"""An Euler-Lagrange reference for any weight, kept with the tests.

The extremal through two polar points is the graph z(phi) that makes
integral of L = v(z)*r dphi, r = sqrt(z^2 + z'^2), stationary.  Its
Euler-Lagrange equation

    d/dphi (v*z'/r) - (v'*r + v*z/r) = 0

is solved by Chebyshev-Lobatto collocation in phi with z fixed at both
ends (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 6 and 13):
Newton steps with a finite-difference Jacobian, stopped on the residual
relative to the rounding scale of its terms.  It uses no first integral, no
turning radius and no quadrature; a turn is an ordinary point where
z' = 0.  Along the solution the conserved quantity of the phi-free
Lagrangian, P = L - z'*dL/dz' = v*z^2/r, must equal the library's 1/n.

Run as a script, it prints the largest gaps of each case:

    PYTHONPATH=src python tests/collocation_reference.py
"""

from dataclasses import dataclass

import numpy as np

from radial_extremals import ExtremalSpec, eval_vq, parse_weight
from radial_extremals import integrate_phi, trace_extremal

# weight text -> (n, radius on the phi < 0 branch, radius on the phi > 0
# branch, N): one endpoint on each side of the library's turn at phi = 0
CASES = {
    "2.5*z^1.3": (1.3, 0.9, 1.2, 64),
    "exp(-z)+0.2": (5.0, 0.3, 0.5, 32),
    "2+sin(3*z)": (0.8, 0.6, 0.7, 48),
    "log(z)/z": (1.3, 2.3, 2.6, 48),
}


@dataclass
class Collocation:
    """z at the N + 1 Chebyshev-Lobatto nodes phi (phi_b first), the
    conserved P = v*z^2/r there, and the largest |coefficient| among the
    last N/8 of z's Chebyshev series."""

    phi: np.ndarray
    z: np.ndarray
    P: np.ndarray
    tail: float
    iterations: int


def _cheb(N: int):
    """Lobatto nodes x_j = cos(j*pi/N) and their differentiation matrix."""
    x = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.r_[2.0, np.ones(N - 1), 2.0] * (-1.0) ** np.arange(N + 1)
    dx = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dx + np.eye(N + 1))
    return x, D - np.diag(D.sum(axis=1))


def _flux_force(w, z, p):
    """v*p/r and v'*r + v*z/r at radius z and slope p = dz/dphi, and r."""
    r = np.hypot(z, p)
    v, q = eval_vq(w, z)
    return v * p / r, q * r + v * z / r, r


def _slopes(w, z, p):
    """d/dz and d/dp of (flux, force) by central differences, pointwise,
    so that no difference cancels the large entries of D."""
    h = 6e-6 * np.maximum(np.abs(z), np.abs(p))
    up, down = _flux_force(w, z + h, p), _flux_force(w, z - h, p)
    by_z = [(u - d) / (2.0 * h) for u, d in zip(up[:2], down[:2])]
    up, down = _flux_force(w, z, p + h), _flux_force(w, z, p - h)
    by_p = [(u - d) / (2.0 * h) for u, d in zip(up[:2], down[:2])]
    return by_z, by_p


def collocate(w, a, b, start, N: int, rtol: float = 1e-13,
              max_iter: int = 30, polish: int = 0) -> Collocation:
    """Extremal of the weight w from polar point a = (phi_a, z_a) to
    b = (phi_b, z_b), from the start values z = start(phi) at the nodes.

    The residual at the nodes is D @ flux - force.  Newton's Jacobian,
    D @ (diag(flux_z) + diag(flux_p) @ D) - diag(force_z) - diag(force_p)
    @ D, takes the pointwise partials from finite differences.  Newton
    stops once the residual at every interior node is within rtol of its
    rounding scale |D| @ |flux| + |force|, whose entries grow like N^2 as
    those of D do, and polish more steps past that; AssertionError if it
    never is."""
    x, D = _cheb(N)
    mid, half = 0.5 * (a[0] + b[0]), 0.5 * (b[0] - a[0])
    phi = mid + half * x
    D = D / half
    z = np.asarray(start(phi), dtype=float).copy()
    z[0], z[-1] = b[1], a[1]
    inner = slice(1, N)
    for it in range(max_iter):
        p = D @ z
        flux, force, r = _flux_force(w, z, p)
        f = (D @ flux - force)[inner]
        scale = (np.abs(D) @ np.abs(flux) + np.abs(force))[inner]
        if np.all(np.abs(f) <= rtol * scale):
            if not polish:
                break
            polish -= 1
        (flux_z, force_z), (flux_p, force_p) = _slopes(w, z, p)
        J = (D * flux_z + D @ (flux_p[:, None] * D) - np.diag(force_z)
             - force_p[:, None] * D)
        z[inner] -= np.linalg.solve(J[inner, inner], f)
    else:
        raise AssertionError(f"no convergence in {max_iter} Newton steps: "
                             f"residual {np.max(np.abs(f) / scale):.3e} "
                             "of its scale")
    P = eval_vq(w, z)[0] * z * z / r
    ext = np.r_[z, z[-2:0:-1]]
    coef = np.abs(np.fft.fft(ext).real[:N + 1]) / N
    return Collocation(phi, z, P, float(coef[N - N // 8:].max()), it)


def case(text: str):
    """The library's extremal of a CASES entry, turned at phi = 0, and the
    collocation through its two endpoints from the library's curve
    perturbed by 5 %: (spec, Collocation)."""
    n, z_a, z_b, N = CASES[text]
    spec = ExtremalSpec(parse_weight(text), n)
    a = (-integrate_phi(spec, z_a, 1e-13), z_a)
    b = (integrate_phi(spec, z_b, 1e-13), z_b)
    curve = trace_extremal(spec, max(z_a, z_b), 400, tol=1e-13)

    def start(phi):
        z = np.interp(phi, curve.phi, curve.z)
        return z * (1.0 + 0.05 * (1.0 - ((phi - phi[-1]) / (phi[0] - phi[-1])
                                         * 2.0 - 1.0) ** 2))
    return spec, collocate(spec.weight, a, b, start, N)


def gaps(spec, sol: Collocation):
    """(max |n*P - 1|, max gap between a node's angle and integrate_phi's
    angle to its radius on the node's branch) over the nodes."""
    clairaut = float(np.abs(spec.n * sol.P - 1.0).max())
    z = np.maximum(sol.z, spec.z_turn)   # a radius rounded inside z*
    library = np.copysign(integrate_phi(spec, z, 1e-13), sol.phi)
    return clairaut, float(np.abs(sol.phi - library).max())


if __name__ == "__main__":
    for text in CASES:
        spec, sol = case(text)
        clairaut, angle = gaps(spec, sol)
        print(f"{text:12s} N={len(sol.z) - 1:2d}  max|n*P - 1| "
              f"{clairaut:.1e}  max angle gap {angle:.1e}  tail "
              f"{sol.tail:.1e}  Newton steps {sol.iterations}")
