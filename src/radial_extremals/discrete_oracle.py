"""Direct minimization of the discretized functional over polylines.

The weighted length of a polyline is the sum of v(|midpoint|)*|segment| over
its segments (midpoint rule: second-order accurate and with a short exact
gradient).  Minimizing it over the interior vertices with fixed endpoints
gives an independent check that the analytically traced curves really are
extremals.

The functional is ill-conditioned (roughly like N^2 in the segment count),
so minimize takes damped Newton (Levenberg-Marquardt) steps on the exact
Hessian rather than gradient steps.  Each segment couples only its two end
vertices, so the Hessian is block-tridiagonal with 2x2 blocks; at the sizes
used here (a few hundred vertices) a dense Cholesky solve is fast enough.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DomainError, DomainViolation, EvalError,
                     NonPositiveWeight, StalledDescent)
from .weights import RadialWeight, eval_v, eval_vq

__all__ = ["Polyline", "functional_value", "gradient", "minimize"]

_MU_START = 1.0        # initial damping, in units of tr(H)/dim
_MU_MIN = 1e-12
_MAX_REJECTIONS = 50


class Polyline:
    """Ordered vertices with fixed endpoints; the oracle's decision variable."""

    def __init__(self, vertices):
        pts = np.asarray([(p.x, p.y) if hasattr(p, "x") else tuple(p)
                          for p in vertices], dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise DomainError("a polyline needs at least two 2-d vertices")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
            raise DomainError("consecutive vertices must be distinct")
        self.vertices = pts


def _segment_data(verts: np.ndarray):
    delta = verts[1:] - verts[:-1]
    length = np.hypot(delta[:, 0], delta[:, 1])
    mid = 0.5 * (verts[1:] + verts[:-1])
    z_mid = np.hypot(mid[:, 0], mid[:, 1])
    return delta, length, mid, z_mid


def functional_value(pl: Polyline, w: RadialWeight) -> float:
    """Sum of v(|segment midpoint|) * |segment| over the polyline."""
    return _functional(pl.vertices, w)


def _functional(verts: np.ndarray, w: RadialWeight) -> float:
    _, length, _, z_mid = _segment_data(verts)
    return math.fsum(eval_v(w, z_mid) * length)


def gradient(pl: Polyline, w: RadialWeight) -> np.ndarray:
    """Exact gradient with respect to the interior vertices, shape (k-2, 2)."""
    return _gradient(pl.vertices, w)


def _gradient(verts: np.ndarray, w: RadialWeight) -> np.ndarray:
    delta, length, mid, z_mid = _segment_data(verts)
    v, q = eval_vq(w, z_mid)
    unit = delta / length[:, None]
    # each segment j contributes q*(mid/z)*L/2 to both ends and +-v*unit
    w_part = (0.5 * q * length / z_mid)[:, None] * mid
    v_unit = v[:, None] * unit
    return (w_part[:-1] + v_unit[:-1]) + (w_part[1:] - v_unit[1:])


def _hessian(verts: np.ndarray, w: RadialWeight) -> np.ndarray:
    """Exact Hessian over the interior vertices, a dense (2(k-2))^2 matrix.

    Segment j depends on m = (a+b)/2 and e = b-a only, with
    d2/dm2 = v''*L*mm' + q*L*(I - mm')/z, d2/dm de = q*m e' and
    d2/de2 = v*(I - ee')/L (m, e unit vectors), so the matrix is
    block-tridiagonal in the vertices.  v'' is a central difference of the
    exact q in z.
    """
    delta, length, mid, z_mid = _segment_data(verts)
    h = 1e-5 * (z_mid - w.domain_min)
    # minimize has checked v at z_mid through the gradient, so one pass
    # over all three point sets raises what eval_v and then eval_q did
    v, q = eval_vq(w, np.concatenate([z_mid, z_mid + h, z_mid - h]))
    v = v[:len(z_mid)]
    q, q_up, q_down = q.reshape(3, -1)
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
    sym = 0.5 * (h_me + h_me.transpose(0, 2, 1))
    h_aa = 0.25 * h_mm - sym + h_ee
    h_bb = 0.25 * h_mm + sym + h_ee
    h_ab = 0.25 * h_mm + 0.5 * (h_me - h_me.transpose(0, 2, 1)) - h_ee
    k = len(verts)
    full = np.zeros((k, 2, k, 2))
    j = np.arange(k - 1)
    full[j, :, j, :] += h_aa
    full[j + 1, :, j + 1, :] += h_bb
    full[j, :, j + 1, :] += h_ab
    full[j + 1, :, j, :] += h_ab.transpose(0, 2, 1)
    return full.reshape(2 * k, 2 * k)[2:-2, 2:-2]


def minimize(pl: Polyline, w: RadialWeight, max_iters: int,
             grad_tol: float) -> Polyline:
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
    exceeds the initial one.  A trial whose midpoints leave the weight's
    domain raises DomainViolation rather than being clamped; 50 consecutive
    rejected trials raise StalledDescent.
    """
    verts = pl.vertices.copy()
    value = _checked(_functional, verts, w, "initial polyline")
    grad = _checked(_gradient, verts, w, "initial polyline")
    gmax = np.abs(grad).max()
    mu = _MU_START
    for _ in range(max_iters):
        if gmax <= grad_tol:
            break
        hess = _checked(_hessian, verts, w, "current polyline")
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
                t_value = _checked(_functional, trial, w, "trial step")
                if t_value <= value:
                    t_grad = _checked(_gradient, trial, w, "trial step")
                    t_gmax = np.abs(t_grad).max()
                    # at the floor of both value and gradient every trial
                    # fails, so the stall counter sees the plateau
                    if (t_value, t_gmax) < (value, gmax):
                        verts, value = trial, t_value
                        grad, gmax = t_grad, t_gmax
                        mu = max(mu / 10.0, _MU_MIN)
                        break
            mu *= 10.0
            rejections += 1
            if rejections >= _MAX_REJECTIONS:
                raise StalledDescent(
                    f"no decrease after {rejections} rejected steps "
                    f"(value {value}, max gradient {gmax:.3e})")
    return Polyline(verts)


def _checked(fn, verts, w, where):
    try:
        return fn(verts, w)
    except (DomainError, NonPositiveWeight, EvalError) as exc:
        raise DomainViolation(f"{where} left the weight's domain: {exc}") from exc
