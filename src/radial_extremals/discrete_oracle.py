"""Direct minimization of the discretized functional over polylines.

The weighted length of a polyline is the sum of v(|midpoint|)*|segment| over
its segments (midpoint rule: second-order accurate and with a short exact
gradient).  Minimizing it over the interior vertices with fixed endpoints
gives an independent check that the analytically traced curves really are
extremals.
"""

from __future__ import annotations

import numpy as np

from .errors import (DomainError, DomainViolation, EvalError,
                     NonPositiveWeight, StalledDescent)
from .weights import RadialWeight, eval_q, eval_v

__all__ = ["Polyline", "functional_value", "gradient", "minimize"]

_ARMIJO = 1e-4
_GROWTH = 1.25
_MAX_BACKTRACKS = 50


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
    return float(np.dot(eval_v(w, z_mid), length))


def gradient(pl: Polyline, w: RadialWeight) -> np.ndarray:
    """Exact gradient with respect to the interior vertices, shape (k-2, 2)."""
    return _gradient(pl.vertices, w)


def _gradient(verts: np.ndarray, w: RadialWeight) -> np.ndarray:
    delta, length, mid, z_mid = _segment_data(verts)
    v = eval_v(w, z_mid)
    q = eval_q(w, z_mid)
    unit = delta / length[:, None]
    # each segment j contributes q*(mid/z)*L/2 to both ends and +-v*unit
    w_part = (0.5 * q * length / z_mid)[:, None] * mid
    v_unit = v[:, None] * unit
    return (w_part[:-1] + v_unit[:-1]) + (w_part[1:] - v_unit[1:])


def minimize(pl: Polyline, w: RadialWeight, max_iters: int,
             grad_tol: float) -> Polyline:
    """Gradient descent with Armijo backtracking on the interior vertices.

    Stops when every gradient component is <= grad_tol in magnitude or after
    max_iters steps, whichever comes first; the returned functional value
    never exceeds the initial one.  A trial step whose midpoints leave the
    weight's domain raises DomainViolation rather than being clamped; 50
    consecutive failed backtracks raise StalledDescent.
    """
    verts = pl.vertices.copy()
    value = _checked(_functional, verts, w, "initial polyline")
    step = 1.0
    for _ in range(max_iters):
        grad = _checked(_gradient, verts, w, "current polyline")
        if np.abs(grad).max() <= grad_tol:
            break
        gsq = float(np.sum(grad * grad))
        backtracks = 0
        while True:
            trial = verts.copy()
            trial[1:-1] -= step * grad
            trial_value = _checked(_functional, trial, w, "trial step")
            # strict decrease: a trial that only ties the current value is
            # no progress, so the stall counter can see a true plateau
            if trial_value < value - _ARMIJO * step * gsq:
                verts, value = trial, trial_value
                step *= _GROWTH
                break
            step *= 0.5
            backtracks += 1
            if backtracks >= _MAX_BACKTRACKS:
                raise StalledDescent(
                    f"no decrease after {backtracks} backtracks "
                    f"(value {value}, max gradient {np.abs(grad).max():.3e})")
    return Polyline(verts)


def _checked(fn, verts, w, where):
    try:
        return fn(verts, w)
    except (DomainError, NonPositiveWeight, EvalError) as exc:
        raise DomainViolation(f"{where} left the weight's domain: {exc}") from exc
