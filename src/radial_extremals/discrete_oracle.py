"""Direct minimization of the discretized functional over polylines.

The weighted length of a polyline is the sum of v(|midpoint|)*|segment| over
its segments (midpoint rule: second-order accurate and with a short exact
gradient).  Minimizing it over the interior vertices with fixed endpoints
gives an independent check that the analytically traced curves really are
extremals.

Along an extremal v*z*sin(alpha) = 1/n, so sin(alpha) never vanishes: the
curve is a polar graph z(phi), and a polyline with one vertex on each of a
fixed set of rays from the pole can carry it.  minimize moves the vertices
along their rays by damped Newton (Levenberg-Marquardt) steps on the exact
Hessian, since the functional is ill-conditioned (about N^2 in the segment
count).  On the rays the Hessian is tridiagonal, and each damped system is
solved by its Cholesky recurrence (Golub and Van Loan, section 4.3) in O(N).

minimize evaluates each vertex set once: its value, gradient and next
Hessian share one set of segment data and one (v, q, v'') pass at the
midpoints, v and q bit for bit what separate passes give, so a Newton step
makes no weight pass of its own.  Its OracleResult carries the first
and last values and the last gradient, so no caller evaluates them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, DomainViolation, EvalError,
                     NonPositiveWeight, StalledDescent, real, real_array)
from .weights import RadialWeight, eval_v, eval_vq, eval_vq2

__all__ = ["OracleResult", "Polyline", "functional_value", "gradient",
           "minimize"]

_MU_MIN = 1e-12        # initial damping and its floor, in units of tr(T)/dim
_MAX_REJECTIONS = 50


class Polyline:
    """Ordered vertices with fixed endpoints; the oracle's decision variable.

    Takes a (k, 2) array of coordinates (or anything np.array turns into
    one), copied; consecutive vertices must be distinct.
    """

    def __init__(self, vertices):
        pts = real_array("vertices", vertices)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise DomainError("a polyline needs at least two 2-d vertices")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise DomainError("consecutive vertices must be distinct")
        self.vertices = pts


@dataclass(frozen=True)
class OracleResult:
    """What minimize returns: the final polyline, its functional value and
    largest gradient component (bit for bit what functional_value and
    gradient give for it), that gradient's largest component along the rays
    (max_gradient if no step was needed or allowed, so no ray was built),
    the accepted Newton steps, the rejected trials plus failed
    factorizations, whether either gradient met grad_tol, and pl's value."""

    polyline: Polyline
    value: float
    max_gradient: float
    max_ray_gradient: float
    iterations: int
    rejected: int
    converged: bool
    initial_value: float


def _segment_data(verts: np.ndarray):
    delta = verts[1:] - verts[:-1]
    length = np.hypot(delta[:, 0], delta[:, 1])
    mid = 0.5 * (verts[1:] + verts[:-1])
    z_mid = np.hypot(mid[:, 0], mid[:, 1])
    return delta, length, mid, z_mid


def functional_value(pl: Polyline, w: RadialWeight) -> float:
    """Sum of v(|segment midpoint|) * |segment| over the polyline."""
    seg = _segment_data(pl.vertices)
    return _functional(seg, eval_v(w, seg[3]))


def _functional(seg, v: np.ndarray) -> float:
    """The weighted length from segment data and v at the midpoints."""
    with np.errstate(over="ignore"):   # an overflow raises below
        terms = v * seg[1]
    try:
        value = math.fsum(terms)
    except OverflowError:    # finite terms whose sum overflows
        value = math.inf
    if not value < math.inf:
        raise EvalError(f"the weighted length {value} is not finite")
    return value


def gradient(pl: Polyline, w: RadialWeight) -> np.ndarray:
    """Exact gradient with respect to the interior vertices, shape (k-2, 2);
    EvalError where it is not finite."""
    seg = _segment_data(pl.vertices)
    return _gradient(seg, *eval_vq(w, seg[3]))


def _gradient(seg, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The gradient from segment data and (v, q) at the midpoints.  A
    component that is not finite raises EvalError naming the midpoint
    radius of its larger segment term."""
    delta, length, mid, z_mid = seg
    unit = delta / length[:, None]
    # each segment j contributes q*(mid/z)*L/2 to both ends and +-v*unit;
    # near the float range's edge a term or a sum overflows, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        w_part = (0.5 * q * length / z_mid)[:, None] * mid
        v_unit = v[:, None] * unit
        grad = (w_part[:-1] + v_unit[:-1]) + (w_part[1:] - v_unit[1:])
    finite = np.isfinite(grad)
    if np.count_nonzero(finite) < finite.size:
        i = int(np.argmin(finite.all(axis=1)))   # segments i and i+1
        size = np.abs(np.concatenate([w_part, v_unit], axis=1)).max(axis=1)
        z = float(z_mid[i + int(size[i + 1] > size[i])])
        raise EvalError(f"the gradient is not finite at the midpoint radius "
                        f"z = {z!r}")
    return grad


def _hessian(seg, v: np.ndarray, q: np.ndarray, v2: np.ndarray):
    """Exact Hessian over the m interior vertices as its (m, 2, 2) diagonal
    blocks and its (m-1, 2, 2) couplings H[i, i+1], from segment data and
    (v, q, v'') at the midpoints; it makes no weight pass.

    Segment j depends on m = (a+b)/2 and e = b-a only, with
    d2/dm2 = v''*L*mm' + q*L*(I - mm')/z, d2/dm de = q*m e' and
    d2/de2 = v*(I - ee')/L (m, e unit vectors), so the matrix is
    block-tridiagonal in the vertices.  A segment whose blocks are not
    finite (v'' can overflow where v and q do not) raises EvalError naming
    its midpoint radius.
    """
    delta, length, mid, z_mid = seg
    m_hat = mid / z_mid[:, None]
    e_hat = delta / length[:, None]
    eye = np.eye(2)
    mm = m_hat[:, :, None] * m_hat[:, None, :]
    # a block that is not finite raises below; the blocks' sums, over
    # vertices, may still overflow to inf
    with np.errstate(all="ignore"):
        h_mm = (v2 * length)[:, None, None] * mm \
            + (q * length / z_mid)[:, None, None] * (eye - mm)
        h_me = q[:, None, None] * m_hat[:, :, None] * e_hat[:, None, :]
        h_ee = (v / length)[:, None, None] \
            * (eye - e_hat[:, :, None] * e_hat[:, None, :])
        # chain rule through m = (a+b)/2, e = b-a
        quarter = 0.25 * h_mm
        sym = 0.5 * (h_me + h_me.transpose(0, 2, 1))
        h_aa = quarter - sym + h_ee
        h_bb = quarter + sym + h_ee
        h_ab = quarter + 0.5 * (h_me - h_me.transpose(0, 2, 1)) - h_ee
        diag = h_aa[1:] + h_bb[:-1]   # interior vertex i+1 is row i
    finite = np.isfinite(np.concatenate([h_aa, h_bb, h_ab], axis=1))
    if np.count_nonzero(finite) < finite.size:
        z = float(z_mid[np.argmin(finite.all(axis=(1, 2)))])
        raise EvalError(f"the Hessian is not finite at the midpoint radius "
                        f"z = {z!r}")
    return diag, h_ab[1:-1]


def _tridiagonal_solve(diag: np.ndarray, upper: np.ndarray, shift: float,
                       rhs: np.ndarray) -> np.ndarray | None:
    """x with (T + shift*I) x = rhs, for the symmetric tridiagonal T of
    diagonal diag (m,) and off-diagonal upper (m-1,), and rhs (m,), by the
    Cholesky recurrence and its two sweeps on Python floats (numpy calls per
    row would cost more than their arithmetic); None at a pivot that is not
    > 0, NaN included."""
    factors = []
    c = y = 0.0   # L's entry below the pivot above, and y there
    for d, r, b in zip(diag.tolist(), rhs.tolist(), upper.tolist() + [0.0]):
        s = d + shift - c * c
        if not s > 0.0:
            return None
        pivot = math.sqrt(s)
        y, c = (r - c * y) / pivot, b / pivot
        factors.append((pivot, c, y))
    x, out = 0.0, []
    for pivot, c, y in reversed(factors):
        x = (y - c * x) / pivot
        out.append(x)
    return np.array(out[::-1], dtype=float)


def _positive(x: np.ndarray) -> bool:
    """Every entry of x > 0, counted in C; ndarray.all runs Python code in
    numpy 2."""
    return np.count_nonzero(x > 0.0) == x.size


def _rays(verts: np.ndarray) -> np.ndarray:
    """Unit vectors from the pole through the interior vertices, which must
    lie off it and turn about it one way; turns within 4 ulps of 0 are
    rounding (a radial chord's rays turn by up to 1.5 ulps either way)."""
    radii = np.hypot(verts[1:-1, 0], verts[1:-1, 1])
    if not _positive(radii):
        raise DomainError(f"interior vertex {np.argmin(radii > 0.0) + 1} "
                          f"lies at the pole, which has no ray")
    rays = verts[1:-1] / radii[:, None]
    # between unit vectors: those of the vertices underflow near 1e-320
    turns = rays[:-1, 0] * rays[1:, 1] - rays[:-1, 1] * rays[1:, 0]
    floor = 4.0 * np.finfo(float).eps
    if turns.min(initial=0.0) < -floor and turns.max(initial=0.0) > floor:
        raise DomainError("the rays through the interior vertices turn both "
                          "ways about the pole")
    return rays


def _along(grad: np.ndarray, rays: np.ndarray):
    """The gradient along the rays, and its largest magnitude."""
    g = (grad * rays).sum(axis=1)
    return g, np.abs(g).max(initial=0.0)


def _moved(verts: np.ndarray, step: np.ndarray, rays: np.ndarray):
    """verts moved by step along the rays; None if a radius is not > 0."""
    trial = verts.copy()
    trial[1:-1] += step[:, None] * rays
    return trial if _positive((trial[1:-1] * rays).sum(axis=1)) else None


def minimize(pl: Polyline, w: RadialWeight, max_iters: int,
             grad_tol: float) -> OracleResult:
    """Levenberg-Marquardt Newton iteration on the radii along the rays
    from the pole through the given interior vertices.

    Each iteration solves (T + mu*(tr T/dim)*I) p = -g for g and T the exact
    gradient and Hessian projected onto the rays; mu starts at 1e-12, its
    floor.  A trial is accepted if it strictly lowers the functional (summed
    with math.fsum, so trials at the rounding floor tie rather than scatter
    by an ulp), or ties it with a strictly smaller largest gradient
    component along the rays; then mu shrinks tenfold, and a trial that
    takes a radius to <= 0, a rejected trial or a failed factorization grows
    it tenfold.  Stops, converged, once every free gradient component is <=
    grad_tol in magnitude, or at a rejected trial once every component along
    the rays is (the minimizer on the rays, to rounding; off lam = 0 and 1
    the free gradient does not vanish there); else after max_iters accepted
    steps.  The value returned never exceeds the initial one, and a polyline
    without interior vertices comes back unchanged and converged.

    The given polyline raises the weight's or functional_value's own error.
    Then, if a step is needed, an interior vertex at the pole or rays that
    turn both ways about it raise DomainError.  A trial whose midpoints
    leave the weight's domain raises DomainViolation, never clamped, and so
    do a trial's gradient that is not finite and a Hessian that is not
    finite (its v'' comes from the vertex set's one weight pass,
    unchecked); 50 consecutive rejected trials raise StalledDescent.
    """
    max_iters = real("max_iters", max_iters, 0, integer=True)
    grad_tol = real("grad_tol", grad_tol, 0.0)
    verts = pl.vertices.copy()
    seg = _segment_data(verts)
    v, q, v2 = eval_vq2(w, seg[3])
    value = initial_value = _functional(seg, v)
    grad = _gradient(seg, v, q)
    gmax = smax = float(np.abs(grad).max(initial=0.0))
    rays, mu, iterations, rejected = None, _MU_MIN, 0, 0
    while gmax > grad_tol and iterations < max_iters:
        if rays is None:
            rays = _rays(verts)
            slope, smax = _along(grad, rays)
        diag, upper = _checked("current polyline", _hessian, seg, v, q, v2)
        # damping in units of tr(T)/dim keeps the step rotation invariant;
        # near the float range's edge T, its trace or mu times that is inf
        with np.errstate(over="ignore"):
            diag = (rays[:, :, None] * diag * rays[:, None, :]).sum((1, 2))
            upper = (rays[:-1, :, None] * upper
                     * rays[1:, None, :]).sum((1, 2))
            damping = float(diag.sum()) / diag.size
        for _ in range(_MAX_REJECTIONS):
            step = _tridiagonal_solve(diag, upper, mu * damping, -slope)
            trial = None if step is None else _moved(verts, step, rays)
            if trial is not None:
                t_seg = _segment_data(trial)
                t_v, t_q, t_v2 = _checked("trial step", eval_vq2, w,
                                          t_seg[3])
                t_value = _checked("trial step", _functional, t_seg, t_v)
                # a trial with a zero-length segment has no gradient
                if t_value <= value and _positive(t_seg[1]):
                    t_grad = _checked("trial step", _gradient, t_seg, t_v,
                                      t_q)
                    t_slope, t_smax = _along(t_grad, rays)
                    # at the floor of both value and gradient every trial
                    # fails, so the stall counter sees the plateau
                    if (t_value, t_smax) < (value, smax):
                        break
            mu *= 10.0
            rejected += 1
            trial = None
            if smax <= grad_tol:   # at the minimizer on the rays
                break
        else:
            raise StalledDescent(
                f"no decrease after {_MAX_REJECTIONS} rejected steps (value "
                f"{value}, max gradient {gmax:.3e})")
        if trial is None:
            break
        verts, seg, value, grad = trial, t_seg, t_value, t_grad
        v, q, v2 = t_v, t_q, t_v2
        slope, smax = t_slope, t_smax
        gmax = float(np.abs(grad).max())
        mu = max(mu / 10.0, _MU_MIN)
        iterations += 1
    return OracleResult(Polyline(verts), value, gmax, float(smax), iterations,
                        rejected, bool(min(gmax, smax) <= grad_tol),
                        initial_value)


def _checked(where, fn, *args):
    try:
        return fn(*args)
    except (DomainError, NonPositiveWeight, EvalError) as exc:
        raise DomainViolation(f"{where} left the weight's domain: {exc}") from exc
