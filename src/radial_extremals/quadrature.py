"""Adaptive quadrature on a nested 7/15-point Gauss-Kronrod rule.

integrate is the one driver.  It integrates many intervals, each to its
own absolute tolerance and, given runs of intervals, each run with its own
integrand, which receives the (K, 15) array of the nodes of K panels and
returns values of the same shape.  A first panel whose estimate misses its
tolerance is refined by bisecting whichever panel carries the largest
estimate, under a hard budget on panels.  An estimate is never below its
round-off floor 50*eps*integral(|f|), so refinement gives up once the
summed floor of its partition exceeds the tolerance.  A panel at its floor
is kept whole, as its halves' floors sum to the same; once only such
panels are left, their exactly rounded sum meets the tolerance or fails.

A row's sums and estimate do not depend on its batch: np.vecdot takes one
dot product per row (a matrix product accumulates in another order), and
each estimate is sharpened with Python's float ** 1.5, which np.power does
not always match (a bound from np.power leaves only the rows whose
estimate may exceed its floor to take it one by one).  So where each
node's value depends on that node alone (as in reduced_ode), all first
panels share one call, each integrand called once on its own block of
rows; with split=True that call also evaluates both halves of each first
bisection, which refinement takes.
One rule defines every outcome: results, estimates, panel counts, errors
and warnings are those of plain calls, one per run, in order.  Where the
shared call raises an ExtremalError or would give a numpy floating-point
warning, the driver makes those plain calls itself.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .errors import ExtremalError, QuadratureFailure

__all__ = ["integrate", "kronrod_panels"]

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
_MAX_PANELS = 10_000      # panels one interval may be refined into
_WKG = np.stack([_WK, _WG])
# 200 raised by a margin that keeps np.power's ratio ** 1.5 above Python's
_RATIO_UP = 200.0 * (1.0 + 1e-12)


def _panel_sums(fv: np.ndarray, half: np.ndarray, width: np.ndarray):
    """(integrals, error estimates) of K panels from their (K, 15) node
    values, half-widths and widths.

    Each estimate is |K15 - G7| sharpened to resasc*min(1, ratio**1.5),
    with Python's float ** (np.power rounds some ratios differently), and
    raised to its round-off floor.  Only rows whose estimate may exceed the
    floor take that ** row by row: a bound from np.power, with a 1e-12
    margin over its few ulps, settles every other row at its floor.
    """
    with np.errstate(all="ignore"):   # a non-finite row raises below
        resk, resg = (half[:, None] * np.vecdot(fv[:, None], _WKG)).T
        # |f - mean| and |f| stacked in place, for one vecdot; a zero-width
        # row has half 0: its NaN mean leaves its sums 0
        stack = np.empty((2, *fv.shape))
        np.subtract(fv, (resk / width)[:, None], out=stack[0])
        stack[1] = fv
        resasc, resabs = np.abs(half) * np.vecdot(np.abs(stack, out=stack),
                                                  _WK)
        raw = np.abs(resk - resg)
        err = _FLOOR * resabs
        # at least each row's sharpened estimate; NaN or inf where resasc
        # is 0 or a sum is not finite, so those rows take the exact formula
        bound = resasc * (_RATIO_UP * raw / resasc) ** 1.5
        for k in (~(err > bound)).nonzero()[0].tolist():
            e, a = raw.item(k), resasc.item(k)
            if a != 0.0 and e != 0.0:
                e = a * min(1.0, (200.0 * e / a) ** 1.5)
            err[k] = max(e, err.item(k))
    finite = np.isfinite(resk) & np.isfinite(err)
    if np.count_nonzero(finite) < finite.size:
        # a NaN estimate never exceeds tol, so the panel would pass
        k = int(np.argmin(finite))
        raise QuadratureFailure(f"panel value {resk[k].item()} or estimate "
                                f"{err[k].item()} is not finite")
    return resk, err


def kronrod_panels(f, a, b):
    """(integrals, error estimates) of the 15-point Kronrod panels of f on
    [a[k], b[k]], with one call of f.

    f receives the (K, 15) array of all panels' nodes.  Each estimate is
    |K15 - G7| sharpened against the integrand's variation, as is usual;
    row k's bits do not depend on the other rows (see the module notes).
    Raises QuadratureFailure if a value or an estimate is not finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    width = b - a
    half = 0.5 * width
    center = 0.5 * (a + b)
    fv = np.asarray(f(center[:, None] + half[:, None] * _NODES), dtype=float)
    return _panel_sums(fv, half, width)


def integrate(runs, lo, hi, tol, split=False):
    """Per-interval (integrals, summed error estimates, panels in the final
    partitions) over [lo[k], hi[k]], each to absolute error tol[k] (or a
    scalar tol).  runs is one integrand, or a list of (integrand, count)
    runs: the first count intervals take the first integrand, the next run
    the next, and so on.  Reversed limits negate the integral; equal limits
    give 0 with no panel, each limit is evaluated (a NaN one and the point
    of equal ones reach the integrand), and an infinite limit raises
    QuadratureFailure, as do [inf, inf] and [-inf, -inf].  split=True also
    evaluates both halves of each first bisection in the first call; no
    result depends on it (see the module notes)."""
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not isinstance(runs, list):
        runs = [(runs, a.size)]
    tol = np.zeros(a.shape) + tol     # a scalar tol serves every interval
    if not a.size:    # no interval: no integrand is called
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=int)
    # order reversed limits in place and negate their results on return
    flip = b < a
    if np.count_nonzero(flip):
        a, b = np.where(flip, b, a), np.where(flip, a, b)
    cuts = [0, *accumulate(n for _, n in runs)]   # run r: cuts[r]..cuts[r+1]
    step = 3 if split else 1
    if split or len(runs) > 1:
        first = _first_panels([f for f, _ in runs], cuts, a, b, split)
        if first is None:   # the plain calls, one per run, in order
            vals, errs, panels = map(np.concatenate, zip(*(
                integrate(f, a[i:j], b[i:j], tol[i:j])
                for (f, _), i, j in zip(runs, cuts, cuts[1:]) if i < j)))
            return np.where(flip, -vals, vals), errs, panels
        v, e = first
    elif np.count_nonzero(np.isinf(a) | np.isinf(b)):
        raise QuadratureFailure("integration limits must be finite")
    else:
        v, e = kronrod_panels(runs[0][0], a, b)
    # interval k's first panel is row step*k of v and e
    vals, errs = v[::step].copy(), e[::step].copy()
    panels = (a != b).astype(int)     # a zero-width row has no panel
    for k in (errs > tol).nonzero()[0].tolist():
        r = step * k
        vals[k], errs[k], panels[k] = _refine(
            runs[bisect_right(cuts, k) - 1][0],     # the run of k
            a.item(k), b.item(k), tol.item(k), v.item(r), e.item(r),
            ((v.item(r + 1), v.item(r + 2)),
             (e.item(r + 1), e.item(r + 2))) if split else None)
    return np.where(flip, -vals, vals), errs, panels


def _first_panels(fs, cuts, lo, hi, split):
    """(integrals, estimates) of the panels [lo[k], hi[k]] from one
    kronrod_panels call in which fs[r] evaluates the rows of intervals
    cuts[r] to cuts[r + 1], once; with split, rows 3k, 3k+1 and 3k+2 are
    interval k and the two halves of its first bisection.  None if that
    call raises an ExtremalError or would warn (an infinite limit always
    does: its panel's zero node is inf*0)."""
    rows = 1
    if split:
        lo, hi = lo.tolist(), hi.tolist()
        mid = [0.5 * (x + y) for x, y in zip(lo, hi)]   # _refine's midpoint
        lo = [x for y, m in zip(lo, mid) for x in (y, y, m)]
        hi = [x for y, m in zip(hi, mid) for x in (y, m, y)]
        rows = 3
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return kronrod_panels(_by_block(
                fs, [rows * (j - i) for i, j in zip(cuts, cuts[1:])]),
                lo, hi)
    except (ExtremalError, FloatingPointError):
        return None


def _by_block(fs, counts):
    """The integrand of rows in blocks: fs[i] is called once, on the next
    counts[i] rows, in the order of fs."""
    def f(x):
        out = np.empty(x.shape)
        start = 0
        for g, count in zip(fs, counts):
            if count:
                out[start:start + count] = g(x[start:start + count])
                start += count
        return out
    return f


def _refine(f, a: float, b: float, tol: float, val: float, err: float,
            halves=None):
    """(integral, summed error estimate, panels) on [a, b], a < b, from its
    already evaluated first panel (val, err), by bisection; each bisection
    evaluates both halves in one kronrod_panels call, except a first
    bisection whose halves ((v1, v2), (e1, e2)) are given.  A popped panel
    whose estimate is its floor 50*eps*|value| (the clamp, for a one-signed
    integrand) is kept whole, as its halves' floors sum to the same."""
    total_val, total_err = val, err
    # 50*eps*|integral| summed over the panels: at most the summed floor of
    # their estimates, so once it exceeds tol no refinement can succeed
    floor = _FLOOR * abs(val)
    heap = [(-err, 0, a, b, val)]
    whole = []
    seq = 1
    while total_err > tol:
        if floor > tol:
            raise QuadratureFailure(
                f"tol {tol:.3e} is below the round-off floor {floor:.3e} "
                "of the integral")
        if not heap:   # sum the floors exactly: the running sums drift
            floor = total_err = math.fsum(whole)
            continue
        neg_err, _, lo, hi, old_val = heapq.heappop(heap)
        if -neg_err == _FLOOR * abs(old_val):
            whole.append(-neg_err)
            continue
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-15 * (b - a) or not lo < mid < hi:
            raise QuadratureFailure(
                f"panel [{lo}, {hi}] cannot be refined further "
                f"(remaining error {total_err:.3e} > tol {tol:.3e})")
        if halves is None:
            halves = (x.tolist() for x in
                      kronrod_panels(f, [lo, mid], [mid, hi]))
        (v1, v2), (e1, e2) = halves
        halves = None
        total_val += (v1 + v2) - old_val
        total_err += (e1 + e2) - (-neg_err)
        floor += _FLOOR * (abs(v1) + abs(v2) - abs(old_val))
        heapq.heappush(heap, (-e1, seq, lo, mid, v1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2))
        seq += 2
        if len(heap) + len(whole) > _MAX_PANELS:
            raise QuadratureFailure(
                f"needed more than {_MAX_PANELS} panels for tol {tol:.3e}")
    return total_val, total_err, len(heap) + len(whole)
