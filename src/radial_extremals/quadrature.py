"""Adaptive quadrature on a nested 7/15-point Gauss-Kronrod rule.

The driver bisects whichever panel carries the largest error estimate until
the summed estimate meets an absolute tolerance, with a hard budget on the
number of panels.  A panel's estimate is never below its round-off floor
50*eps*integral(|f|), so the driver gives up as soon as the summed floor of
its partition exceeds the tolerance.  Integrands must accept numpy arrays
(they are called once per panel on all 15 nodes).  kronrod_panels evaluates
many panels in one call of the integrand, on a (K, 15) array of nodes; each
of its rows equals kronrod_panel on that panel exactly, and a row whose
estimate misses the tolerance is refined from that row, not evaluated again.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import QuadratureFailure

__all__ = ["kronrod_panel", "kronrod_panels", "integrate"]

# 15-point Kronrod abscissae (positive half, descending) and weights,
# with the embedded 7-point Gauss weights on the shared nodes.
_XK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985,
])
_WK_HALF = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989,
])
_WK_CENTER = 0.2094821410847278
_WG_HALF = np.array([
    0.0, 0.1294849661688697, 0.0, 0.2797053914892767,
    0.0, 0.3818300505051189, 0.0,
])
_WG_CENTER = 0.4179591836734694

_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_WK = np.concatenate([_WK_HALF, [_WK_CENTER], _WK_HALF[::-1]])
_WG = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])

_FLOOR = 50.0 * np.finfo(float).eps


def _panel_sums(fv: np.ndarray, half: float, width: float):
    """(integral, error_estimate) of one panel from its 15 node values."""
    resk = half * float(_WK @ fv)
    resg = half * float(_WG @ fv)
    mean = resk / width if width != 0.0 else 0.0
    resasc = abs(half) * float(_WK @ np.abs(fv - mean))
    resabs = abs(half) * float(_WK @ np.abs(fv))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, _FLOOR * resabs)
    return resk, err


def kronrod_panel(f, a: float, b: float):
    """One 15-point Kronrod evaluation of f on [a, b].

    Returns (integral, error_estimate) where the estimate follows the usual
    practice of sharpening |K15 - G7| against the integrand's variation.
    """
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    fv = np.asarray(f(center + half * _NODES), dtype=float)
    return _panel_sums(fv, half, b - a)


def kronrod_panels(f, a, b):
    """kronrod_panel on the panels [a[k], b[k]], with one call of f.

    f receives the (K, 15) array of all panels' nodes.  Returns arrays
    (integrals, error_estimates); row k equals kronrod_panel(f, a[k], b[k])
    bit for bit, because each row is summed by the same scalar code.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    fv = np.asarray(f(center[:, None] + half[:, None] * _NODES), dtype=float)
    sums = [_panel_sums(row, h, width) for row, h, width
            in zip(fv, half.tolist(), (b - a).tolist())]
    vals, errs = np.array(sums, dtype=float).reshape(-1, 2).T
    return vals, errs


def _integrate(f, a: float, b: float, tol: float, max_panels: int = 10_000):
    """(integral, summed error estimate, panels in the final partition)."""
    if a == b:
        return 0.0, 0.0, 0
    if b < a:
        val, err, panels = _integrate(f, b, a, tol, max_panels)
        return -val, err, panels
    return _refine(f, a, b, tol, *kronrod_panel(f, a, b), max_panels)


def _refine(f, a: float, b: float, tol: float, val: float, err: float,
            max_panels: int = 10_000):
    """_integrate on [a, b], a < b, from its already evaluated first Kronrod
    panel (val, err), so that panel is not evaluated again."""
    total_val, total_err = val, err
    # 50*eps*|integral| summed over the panels: at most the summed floor of
    # their estimates, so once it exceeds tol no refinement can succeed
    floor = _FLOOR * abs(val)
    heap = [(-err, 0, a, b, val)]
    seq = 1
    while total_err > tol:
        if floor > tol:
            raise QuadratureFailure(
                f"tol {tol:.3e} is below the round-off floor {floor:.3e} "
                "of the integral")
        neg_err, _, lo, hi, old_val = heapq.heappop(heap)
        if hi - lo < 1e-15 * (1.0 + abs(lo) + abs(hi)):
            raise QuadratureFailure(
                f"panel [{lo}, {hi}] cannot be refined further "
                f"(remaining error {total_err:.3e} > tol {tol:.3e})")
        mid = 0.5 * (lo + hi)
        v1, e1 = kronrod_panel(f, lo, mid)
        v2, e2 = kronrod_panel(f, mid, hi)
        total_val += (v1 + v2) - old_val
        total_err += (e1 + e2) - (-neg_err)
        floor += _FLOOR * (abs(v1) + abs(v2) - abs(old_val))
        heapq.heappush(heap, (-e1, seq, lo, mid, v1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2))
        seq += 2
        if len(heap) > max_panels:
            raise QuadratureFailure(
                f"needed more than {max_panels} panels for tol {tol:.3e}")
    return total_val, total_err, len(heap)


def integrate(f, a: float, b: float, tol: float, max_panels: int = 10_000) -> float:
    """Integral of f over [a, b] with absolute error <= tol.

    Raises QuadratureFailure if the panel budget is exhausted, a panel can
    no longer be refined, or tol is below the integral's round-off floor.
    """
    return _integrate(f, a, b, tol, max_panels)[0]
