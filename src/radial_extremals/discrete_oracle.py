"""Direct minimization of the discretized functional over polylines.

The weighted length of a polyline is the sum of v(|midpoint|)*|segment| over
its segments (midpoint rule: second-order accurate and with a short exact
gradient).  Minimizing it over the interior vertices with fixed endpoints
gives an independent check that the analytically traced curves really are
extremals.

The functional is ill-conditioned (roughly like N^2 in the segment count),
so minimize takes damped Newton (Levenberg-Marquardt) steps on the exact
Hessian rather than gradient steps.  Each segment couples only its two end
vertices, so the Hessian is block-tridiagonal with 2x2 blocks, added into
diagonal block views of a matrix over the interior vertices; at the sizes
used here (a few hundred vertices) a dense Cholesky solve is fast enough.

minimize evaluates each vertex set once: its value, gradient and next
Hessian share one set of segment data and one (v, q) pass at the midpoints,
bit for bit what separate passes give, and its OracleResult carries the
final value and gradient so that no caller evaluates them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, DomainViolation, EvalError,
                     NonPositiveWeight, StalledDescent)
from .weights import RadialWeight, eval_v, eval_vq

__all__ = ["OracleResult", "Polyline", "functional_value", "gradient",
           "minimize"]

_MU_START = 1.0        # initial damping, in units of tr(H)/dim
_MU_MIN = 1e-12
_MAX_REJECTIONS = 50


class Polyline:
    """Ordered vertices with fixed endpoints; the oracle's decision variable.

    Takes a (k, 2) array (or anything np.array turns into one), copied.
    """

    def __init__(self, vertices):
        pts = np.array(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise DomainError("a polyline needs at least two 2-d vertices")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise DomainError("consecutive vertices must be distinct")
        self.vertices = pts


@dataclass(frozen=True)
class OracleResult:
    """What minimize returns: the final polyline, its functional value and
    largest gradient component (bit for bit what functional_value and
    gradient give for it), the accepted Newton steps, the rejected trials
    plus failed factorizations, and whether the gradient met grad_tol."""

    polyline: Polyline
    value: float
    max_gradient: float
    iterations: int
    rejected: int
    converged: bool


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


def _hessian(seg, v: np.ndarray, q: np.ndarray,
             w: RadialWeight) -> np.ndarray:
    """Exact Hessian over the interior vertices, a dense (2(k-2))^2 matrix,
    from segment data and (v, q) at the midpoints.

    Segment j depends on m = (a+b)/2 and e = b-a only, with
    d2/dm2 = v''*L*mm' + q*L*(I - mm')/z, d2/dm de = q*m e' and
    d2/de2 = v*(I - ee')/L (m, e unit vectors), so the matrix is
    block-tridiagonal in the vertices.  v'' is a central difference of the
    exact q in z.
    """
    delta, length, mid, z_mid = seg
    h = 1e-5 * z_mid
    # v and q at z_mid have passed their checks, so this pass raises what
    # one pass over z_mid and both offsets would
    q_up, q_down = eval_vq(w, np.concatenate([z_mid + h, z_mid - h]))[1] \
        .reshape(2, -1)
    v2 = (q_up - q_down) / (2.0 * h)
    m_hat = mid / z_mid[:, None]
    e_hat = delta / length[:, None]
    eye = np.eye(2)
    mm = m_hat[:, :, None] * m_hat[:, None, :]
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
    # interior vertex i+1 is row i; adding into zeros turns a coupling
    # entry of -0.0 into +0.0, as a scatter over all vertices did
    m = len(z_mid) - 1
    hess = np.zeros((m, 2, m, 2))
    diag, upper, lower = (_blocks(hess), _blocks(hess[:-1, :, 1:]),
                          _blocks(hess[1:, :, :-1]))
    diag += h_aa[1:]
    diag += h_bb[:-1]
    upper += h_ab[1:-1]
    lower += h_ab[1:-1].transpose(0, 2, 1)
    return hess.reshape(2 * m, 2 * m)


def _blocks(a: np.ndarray) -> np.ndarray:
    """Writeable view of the diagonal 2x2 blocks a[i, :, i, :]."""
    return np.einsum("iaib->iab", a)


def minimize(pl: Polyline, w: RadialWeight, max_iters: int,
             grad_tol: float) -> OracleResult:
    """Levenberg-Marquardt Newton iteration on the interior vertices.

    Each iteration solves (H + mu*(tr H/dim)*I) p = -g by Cholesky, with g
    and H the exact gradient and Hessian.  A trial is accepted if it
    strictly lowers the functional, or ties it with a strictly smaller
    largest gradient component, and then mu shrinks tenfold; a rejected
    trial or a failed factorization grows mu tenfold.  The value is summed
    with math.fsum, so at the rounding floor trials tie rather than scatter
    by an ulp, and the gradient can still see progress there.  Stops when
    every gradient component is <= grad_tol in magnitude or after max_iters
    iterations, whichever comes first; the returned functional value never
    exceeds the initial one.  A polyline without interior vertices comes
    back unchanged and converged.  A trial whose midpoints leave the
    weight's domain raises DomainViolation rather than being clamped; 50
    consecutive rejected trials raise StalledDescent.

    Each vertex set is evaluated once.  Its value comes first, and only a
    value that may be accepted is followed by v and q at the midpoints,
    which give the gradient and then the next Hessian.  Returns an
    OracleResult.
    """
    verts = pl.vertices.copy()
    seg = _segment_data(verts)
    value = _checked("initial polyline", _functional, seg, w)
    v, q = _checked("initial polyline", eval_vq, w, seg[3])
    grad = _gradient(seg, v, q)
    gmax = np.abs(grad).max(initial=0.0)   # 0.0 without interior vertices
    mu = _MU_START
    iterations = rejected = 0
    for _ in range(max_iters):
        if gmax <= grad_tol:
            break
        iterations += 1
        hess = _checked("current polyline", _hessian, seg, v, q, w)
        # damping in units of tr(H)/dim keeps the step rotation invariant
        damping = (np.trace(hess) / len(hess)) * np.eye(len(hess))
        rejections = 0
        while True:
            try:
                chol = np.linalg.cholesky(hess + mu * damping)
            except np.linalg.LinAlgError:
                pass
            else:
                step = np.linalg.solve(
                    chol.T, np.linalg.solve(chol, -grad.ravel()))
                trial = verts.copy()
                trial[1:-1] += step.reshape(-1, 2)
                t_seg = _segment_data(trial)
                t_value = _checked("trial step", _functional, t_seg, w)
                # a trial with a zero-length segment has no gradient
                if t_value <= value and np.all(t_seg[1] > 0.0):
                    t_v, t_q = _checked("trial step", eval_vq, w, t_seg[3])
                    t_grad = _gradient(t_seg, t_v, t_q)
                    t_gmax = np.abs(t_grad).max(initial=0.0)
                    # at the floor of both value and gradient every trial
                    # fails, so the stall counter sees the plateau
                    if (t_value, t_gmax) < (value, gmax):
                        verts, seg, value = trial, t_seg, t_value
                        v, q, grad, gmax = t_v, t_q, t_grad, t_gmax
                        mu = max(mu / 10.0, _MU_MIN)
                        break
            mu *= 10.0
            rejections += 1
            if rejections >= _MAX_REJECTIONS:
                raise StalledDescent(
                    f"no decrease after {rejections} rejected steps "
                    f"(value {value}, max gradient {gmax:.3e})")
        rejected += rejections
    return OracleResult(Polyline(verts), value, float(gmax), iterations,
                        rejected, bool(gmax <= grad_tol))


def _checked(where, fn, *args):
    try:
        return fn(*args)
    except (DomainError, NonPositiveWeight, EvalError) as exc:
        raise DomainViolation(f"{where} left the weight's domain: {exc}") from exc
