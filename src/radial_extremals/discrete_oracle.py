"""Direct minimization of the discretized functional over polylines.

The weighted length of a polyline is the sum of v(|midpoint|)*|segment| over
its segments (midpoint rule: second-order accurate and with a short exact
gradient).  Minimizing it over the interior vertices with fixed endpoints
gives an independent check that the analytically traced curves really are
extremals.

The functional is ill-conditioned (roughly like N^2 in the segment count),
so minimize takes damped Newton (Levenberg-Marquardt) steps on the exact
Hessian rather than gradient steps.  Each segment couples only its two end
vertices, so the Hessian is block-tridiagonal with 2x2 blocks, and each
damped system is solved by a block Cholesky factorization of those blocks
(Golub and Van Loan, Matrix Computations, section 4.5) in O(N) work.  A
first stage moves each interior vertex along its ray from the pole, never
through the pole: a tridiagonal matrix projected from the blocks, solved by
the scalar recurrence.  Fixed rays remove the tangential modes that leave
the free Hessian singular at lam = 1.  Then the vertices go free, at once
if one lies at the pole; one damping starts at its floor and carries over.

minimize evaluates each vertex set once: its value, gradient and next
Hessian share one set of segment data and one (v, q) pass at the midpoints,
bit for bit what separate passes give.  Its OracleResult carries the first
and last values and the last gradient, so no caller evaluates them again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, DomainViolation, EvalError,
                     NonPositiveWeight, StalledDescent)
from .weights import RadialWeight, eval_v, eval_vq

__all__ = ["OracleResult", "Polyline", "functional_value", "gradient",
           "minimize"]

_MU_MIN = 1e-12        # initial damping and its floor, in units of tr(H)/dim
_MAX_REJECTIONS = 50


class Polyline:
    """Ordered vertices with fixed endpoints; the oracle's decision variable.

    Takes a (k, 2) array of finite coordinates (or anything np.array turns
    into one), copied; consecutive vertices must be distinct.
    """

    def __init__(self, vertices):
        pts = np.array(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise DomainError("a polyline needs at least two 2-d vertices")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            i = bad[0]
            raise DomainError(f"vertex {i} is not finite: {pts[i].tolist()}")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise DomainError("consecutive vertices must be distinct")
        self.vertices = pts


@dataclass(frozen=True)
class OracleResult:
    """What minimize returns: the final polyline, its functional value and
    largest gradient component (bit for bit what functional_value and
    gradient give for it), the accepted Newton steps and those of them on
    rays, the rejected trials plus failed factorizations, whether the
    gradient met grad_tol, and the value of the polyline it was given."""

    polyline: Polyline
    value: float
    max_gradient: float
    iterations: int
    ray_iterations: int
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
    return _functional(_segment_data(pl.vertices), w)


def _functional(seg, w: RadialWeight) -> float:
    _, length, _, z_mid = seg
    with np.errstate(over="ignore"):   # an overflow raises below
        terms = eval_v(w, z_mid) * length
    try:
        value = math.fsum(terms)
    except OverflowError:    # finite terms whose sum overflows
        value = math.inf
    if not value < math.inf:
        raise EvalError(f"the weighted length {value} is not finite")
    return value


def gradient(pl: Polyline, w: RadialWeight) -> np.ndarray:
    """Exact gradient with respect to the interior vertices, shape (k-2, 2)."""
    seg = _segment_data(pl.vertices)
    return _gradient(seg, *eval_vq(w, seg[3]))


def _gradient(seg, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The gradient from segment data and (v, q) at the midpoints."""
    delta, length, mid, z_mid = seg
    unit = delta / length[:, None]
    # each segment j contributes q*(mid/z)*L/2 to both ends and +-v*unit
    w_part = (0.5 * q * length / z_mid)[:, None] * mid
    v_unit = v[:, None] * unit
    return (w_part[:-1] + v_unit[:-1]) + (w_part[1:] - v_unit[1:])


def _hessian(seg, v: np.ndarray, q: np.ndarray, w: RadialWeight):
    """Exact Hessian over the m interior vertices as its (m, 2, 2) diagonal
    blocks and its (m-1, 2, 2) couplings H[i, i+1], from segment data and
    (v, q) at the midpoints.

    Segment j depends on m = (a+b)/2 and e = b-a only, with
    d2/dm2 = v''*L*mm' + q*L*(I - mm')/z, d2/dm de = q*m e' and
    d2/de2 = v*(I - ee')/L (m, e unit vectors), so the matrix is
    block-tridiagonal in the vertices.  v'' is a central difference of the
    exact q in z.  A segment whose blocks are not finite (an offset that
    underflows to 0 at a tiny radius gives 0/0) raises EvalError naming its
    midpoint radius.
    """
    delta, length, mid, z_mid = seg
    h = 1e-5 * z_mid
    # v and q at z_mid have passed their checks, so this pass raises what
    # one pass over z_mid and both offsets would
    q_up, q_down = eval_vq(w, np.concatenate([z_mid + h, z_mid - h]))[1] \
        .reshape(2, -1)
    m_hat = mid / z_mid[:, None]
    e_hat = delta / length[:, None]
    eye = np.eye(2)
    mm = m_hat[:, :, None] * m_hat[:, None, :]
    with np.errstate(all="ignore"):   # a block that is not finite raises below
        v2 = (q_up - q_down) / (2.0 * h)
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
    finite = np.isfinite(np.concatenate([h_aa, h_bb, h_ab], axis=1))
    if not finite.all():
        z = float(z_mid[np.argmin(finite.all(axis=(1, 2)))])
        raise EvalError(f"the Hessian is not finite at the midpoint radius "
                        f"z = {z!r}")
    # interior vertex i+1 is row i
    return h_aa[1:] + h_bb[:-1], h_ab[1:-1]


class _NotPositiveDefinite(ArithmeticError):
    """A pivot of the block Cholesky factorization is not > 0."""


def _block_solve(diag: np.ndarray, upper: np.ndarray, shift: float,
                 rhs: np.ndarray) -> np.ndarray:
    """x with (H + shift*I) x = rhs, for the symmetric block-tridiagonal H
    of diagonal blocks diag (m, 2, 2) and couplings upper (m-1, 2, 2),
    upper[i] = H[i, i+1], and rhs of shape (m, 2).

    Block Cholesky H + shift*I = L L': each diagonal block of L is the 2x2
    Cholesky factor of a Schur complement S, and the block below it is
    C = B' inv(L)' for the coupling B above it, so the next S is
    D + shift*I - C C'.  The forward sweep runs with the factorization and
    the backward sweep after it.  A pivot that is not > 0 (NaN included)
    raises _NotPositiveDefinite.  The recurrence is sequential, so it runs
    on Python floats: numpy calls per 2x2 block would cost more than their
    arithmetic.
    """
    sqrt = math.sqrt
    factors = []
    c00 = c01 = c10 = c11 = y0 = y1 = 0.0   # C and y of the block above
    # the last block has no coupling below it
    couplings = upper.reshape(-1, 4).tolist() + [(0.0,) * 4]
    for (d00, d01, _, d11), (r0, r1), (b00, b01, b10, b11) in zip(
            diag.reshape(-1, 4).tolist(), rhs.tolist(), couplings):
        s00 = d00 + shift - (c00 * c00 + c01 * c01)
        if not s00 > 0.0:
            raise _NotPositiveDefinite
        l00 = sqrt(s00)
        l10 = (d01 - (c00 * c10 + c01 * c11)) / l00
        s11 = d11 + shift - (c10 * c10 + c11 * c11) - l10 * l10
        if not s11 > 0.0:
            raise _NotPositiveDefinite
        l11 = sqrt(s11)
        # forward sweep: L y = rhs
        t1 = r1 - (c10 * y0 + c11 * y1)
        y0 = (r0 - (c00 * y0 + c01 * y1)) / l00
        y1 = (t1 - l10 * y0) / l11
        # the block below: L C' = B, one column of B at a time
        c00 = b00 / l00
        c01 = (b10 - l10 * c00) / l11
        c10 = b01 / l00
        c11 = (b11 - l10 * c10) / l11
        factors.append((l00, l10, l11, c00, c01, c10, c11, y0, y1))
    # backward sweep: L' x = y, from the last block up
    x0 = x1 = 0.0
    out = []
    for l00, l10, l11, c00, c01, c10, c11, y0, y1 in reversed(factors):
        t0 = y0 - (c00 * x0 + c10 * x1)
        x1 = (y1 - (c01 * x0 + c11 * x1)) / l11
        x0 = (t0 - l10 * x1) / l00
        out.append((x0, x1))
    out.reverse()
    return np.array(out, dtype=float).reshape(-1, 2)


def _tridiagonal_solve(diag: np.ndarray, upper: np.ndarray, shift: float,
                       rhs: np.ndarray) -> np.ndarray:
    """x with (T + shift*I) x = rhs, for the symmetric tridiagonal T of
    diagonal diag (m,) and off-diagonal upper (m-1,), and rhs (m,): the 1x1
    case of _block_solve's recurrence, pivot test and sweeps included."""
    factors = []
    c = y = 0.0   # L's entry below the pivot above, and y there
    for d, r, b in zip(diag.tolist(), rhs.tolist(), upper.tolist() + [0.0]):
        s = d + shift - c * c
        if not s > 0.0:
            raise _NotPositiveDefinite
        pivot = math.sqrt(s)
        y, c = (r - c * y) / pivot, b / pivot
        factors.append((pivot, c, y))
    x, out = 0.0, []
    for pivot, c, y in reversed(factors):
        x = (y - c * x) / pivot
        out.append(x)
    return np.array(out[::-1], dtype=float)


def _along(grad: np.ndarray, rays: np.ndarray | None):
    """A stage's gradient, along each vertex's ray or, with rays None, the
    free one, and its largest component in magnitude."""
    g = grad if rays is None else (grad * rays).sum(axis=1)
    return g, np.abs(g).max(initial=0.0)


def _moved(verts: np.ndarray, step: np.ndarray, rays: np.ndarray | None):
    """verts with the interior vertices moved by step, along their rays or,
    with rays None, in the plane; None if a radius along a ray is not > 0."""
    trial = verts.copy()
    trial[1:-1] += step if rays is None else step[:, None] * rays
    if rays is None or np.all((trial[1:-1] * rays).sum(axis=1) > 0.0):
        return trial
    return None


def minimize(pl: Polyline, w: RadialWeight, max_iters: int,
             grad_tol: float) -> OracleResult:
    """Levenberg-Marquardt Newton iteration along rays, then on free vertices.

    The ray stage ends once the gradient along the rays is <= grad_tol.
    Each iteration solves (H + mu*(tr H/dim)*I) p = -g of its stage, with g
    and H the exact gradient and Hessian, projected onto the rays in the ray
    stage; mu starts at 1e-12, its floor, and carries over.  A trial is
    accepted if it strictly lowers the functional, or ties it with a
    strictly smaller largest gradient component of its stage, and then mu
    shrinks tenfold; a ray trial that takes a radius to <= 0, a rejected
    trial or a failed factorization grows mu tenfold.  The value is summed
    with math.fsum, so at the rounding floor trials tie rather than scatter
    by an ulp, and the gradient can still see progress there.  Stops when
    every free gradient component is <= grad_tol in magnitude or after
    max_iters accepted steps of both stages, whichever comes first; the
    returned functional value never exceeds the initial one.  A polyline
    without interior vertices comes back unchanged and converged.  The
    given polyline raises the weight's or functional_value's own error; a
    trial or Hessian offset whose midpoints leave the weight's domain raises
    DomainViolation, never clamped; 50 consecutive rejected trials raise
    StalledDescent.  A max_iters that is not an integer >= 0, or a grad_tol
    that is not >= 0 (NaN included), raises DomainError before any work.

    Each vertex set is evaluated once.  Its value comes first, and only a
    value that may be accepted is followed by v and q at the midpoints,
    which give the gradient and then the next Hessian.  Returns an
    OracleResult.
    """
    if not (isinstance(max_iters, numbers.Integral) and max_iters >= 0):
        raise DomainError(f"max_iters must be an integer >= 0, got "
                          f"{max_iters!r}")
    if not grad_tol >= 0.0:
        raise DomainError(f"grad_tol must be >= 0, got {grad_tol}")
    verts = pl.vertices.copy()
    seg = _segment_data(verts)
    value = initial_value = _functional(seg, w)
    v, q = eval_vq(w, seg[3])
    grad = _gradient(seg, v, q)
    radii = np.hypot(verts[1:-1, 0], verts[1:-1, 1])
    rays = verts[1:-1] / radii[:, None] if np.all(radii > 0.0) else None
    mu = _MU_MIN
    iterations = ray_iterations = rejected = 0
    while True:
        slope, smax = _along(grad, rays)   # 0.0 without interior vertices
        if rays is not None and smax <= grad_tol:
            rays = None
            continue
        if smax <= grad_tol or iterations == max_iters:
            break
        iterations += 1
        diag, upper = _checked("current polyline", _hessian, seg, v, q, w)
        solve, pivots = _block_solve, diag.reshape(-1, 4)[:, ::3]
        if rays is not None:
            ray_iterations += 1
            diag = (rays[:, :, None] * diag * rays[:, None, :]).sum((1, 2))
            upper = (rays[:-1, :, None] * upper
                     * rays[1:, None, :]).sum((1, 2))
            solve, pivots = _tridiagonal_solve, diag
        # damping in units of tr(H)/dim keeps the step rotation invariant;
        # the diagonal is summed in its row order
        damping = pivots.ravel().sum() / pivots.size
        rejections = 0
        while True:
            try:
                trial = _moved(verts, solve(diag, upper, float(mu * damping),
                                            -slope), rays)
            except _NotPositiveDefinite:
                trial = None
            if trial is not None:
                t_seg = _segment_data(trial)
                t_value = _checked("trial step", _functional, t_seg, w)
                # a trial with a zero-length segment has no gradient
                if t_value <= value and np.all(t_seg[1] > 0.0):
                    t_v, t_q = _checked("trial step", eval_vq, w, t_seg[3])
                    t_grad = _gradient(t_seg, t_v, t_q)
                    # at the floor of both value and gradient every trial
                    # fails, so the stall counter sees the plateau
                    if (t_value, _along(t_grad, rays)[1]) < (value, smax):
                        verts, seg, value = trial, t_seg, t_value
                        v, q, grad = t_v, t_q, t_grad
                        mu = max(mu / 10.0, _MU_MIN)
                        break
            mu *= 10.0
            rejections += 1
            if rejections >= _MAX_REJECTIONS:
                raise StalledDescent(
                    f"no decrease after {rejections} rejected steps (value "
                    f"{value}, max gradient {np.abs(grad).max():.3e})")
        rejected += rejections
    gmax = float(np.abs(grad).max(initial=0.0))
    return OracleResult(Polyline(verts), value, gmax, iterations,
                        ray_iterations, rejected, bool(gmax <= grad_tol),
                        initial_value)


def _checked(where, fn, *args):
    try:
        return fn(*args)
    except (DomainError, NonPositiveWeight, EvalError) as exc:
        raise DomainViolation(f"{where} left the weight's domain: {exc}") from exc
