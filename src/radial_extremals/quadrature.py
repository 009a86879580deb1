"""Adaptive quadrature on a nested 7/15-point Gauss-Kronrod rule.

One driver integrates many intervals at once, each to its own absolute
tolerance and, given runs of intervals, each run with its own integrand.
All first panels are evaluated in one kronrod_panels call; a panel whose
estimate misses its tolerance is refined from that panel, by bisecting
whichever panel carries the largest error estimate until the summed
estimate meets the tolerance, with a hard budget on the number of panels.
A panel's estimate is never below its round-off floor 50*eps*integral(|f|),
so refinement gives up as soon as the summed floor of its partition exceeds
the tolerance.  Integrands receive the (K, 15) array of the nodes of K
panels and must return values of the same shape.

The sums and estimates of all K panels are computed together, yet a row's
bits do not depend on its batch: np.vecdot takes one dot product per row,
the one a single row gets (a matrix product accumulates in another order),
and each estimate is sharpened with Python's float ** 1.5, which np.power
does not always match.  So where each node's value depends on that node
alone (as in reduced_ode), runs of several integrands share the first call,
each integrand called once on its own block of rows.  integrate's results,
estimates and panel counts are those of one plain call per run, in order,
and so is every failure: a shared first call that raises an ExtremalError
or would give a numpy floating-point warning is replaced by those plain
calls.  integrate_bisected serves pieces that mostly need exactly one
bisection (reduced_ode's angles from the turning radius): its one first
call also evaluates both halves of every first bisection, which refinement
then takes instead of calling the integrand again; where that call fails
or would warn it returns None, and the caller makes the plain calls that
define the failure.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ExtremalError, QuadratureFailure

__all__ = ["integrate", "integrate_bisected", "kronrod_panels"]

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


def _panel_sums(fv: np.ndarray, half: np.ndarray, width: np.ndarray):
    """(integrals, error estimates) of K panels from their (K, 15) node
    values, half-widths and widths."""
    with np.errstate(all="ignore"):   # a non-finite row raises below
        resk, resg = (half[:, None] * np.vecdot(fv[:, None], _WKG)).T
        # a zero-width row has half 0: its NaN mean leaves its sums 0
        mean = resk / width
        resasc, resabs = np.abs(half) * np.vecdot(
            np.abs([fv - mean[:, None], fv]), _WK)
        err = np.abs(resk - resg)
        # Python's float ** (np.power rounds some ratios differently)
        scale = [min(1.0, r ** 1.5) for r in (200.0 * err / resasc).tolist()]
        err = np.where((resasc != 0.0) & (err != 0.0), resasc * scale, err)
        floor = _FLOOR * resabs
        err = np.where(floor > err, floor, err)
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
    half = 0.5 * (b - a)
    center = 0.5 * (a + b)
    fv = np.asarray(f(center[:, None] + half[:, None] * _NODES), dtype=float)
    return _panel_sums(fv, half, b - a)


def integrate(f, a, b, tol):
    """Per-interval (integrals, summed error estimates, panels in the final
    partitions) of f over [a[k], b[k]], each to absolute error tol[k].
    f is one integrand, or a list of (integrand, count) runs: the first
    count intervals take the first integrand, the next run the next, and
    so on; the result is that of one call per run, in order.  Reversed
    limits negate the integral; equal limits give 0 with no panel, a NaN
    limit is evaluated, so the integrand sees it, and an infinite one
    raises QuadratureFailure."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    tol = np.broadcast_to(tol, a.shape)
    runs = f if isinstance(f, list) else [(f, a.size)]
    flip = b < a
    lo, hi = np.where(flip, b, a), np.where(flip, a, b)
    vals, errs = np.zeros(a.shape), np.zeros(a.shape)
    panels = np.zeros(a.shape, dtype=int)
    todo = np.flatnonzero(a != b)
    if todo.size:
        lo_t, hi_t = lo[todo], hi[todo]
        finite = not np.count_nonzero(np.isinf(lo_t) | np.isinf(hi_t))
        fs = [g for g, _ in runs]
        owner = np.searchsorted(np.cumsum([n for _, n in runs]), todo,
                                side="right")    # index into fs
        first = None
        if finite and len(runs) > 1:
            first = _first_panels(fs, np.bincount(owner, minlength=len(fs)),
                                  lo_t, hi_t)
        if first is None and len(runs) > 1:
            # one call per run, so failures come in the runs' order
            parts, start = [], 0
            for g, count in runs:
                run = slice(start, start + count)
                parts.append(integrate(g, a[run], b[run], tol[run]))
                start += count
            return tuple(np.concatenate(x) for x in zip(*parts))
        if first is None:
            if not finite:
                raise QuadratureFailure("integration limits must be finite")
            first = kronrod_panels(fs[0], lo_t, hi_t)
        vals[todo], errs[todo] = first
        panels[todo] = 1
        for j in np.flatnonzero(errs[todo] > tol[todo]).tolist():
            k = todo[j]
            vals[k], errs[k], panels[k] = _refine(
                fs[owner[j]], float(lo[k]), float(hi[k]), float(tol[k]),
                float(vals[k]), float(errs[k]))
    return np.where(flip, -vals, vals), errs, panels


def integrate_bisected(runs, lo, hi, tol):
    """integrate(runs, lo, hi, tol) for pieces with finite lo[k] < hi[k]
    and per-piece tol[k], or None.

    One first call evaluates every piece's first panel and both halves of
    its first bisection, each integrand of runs once, on its own block of
    rows; refinement takes those halves.  Returns None if that call raises
    an ExtremalError or would give a numpy floating-point warning: the
    caller then makes the plain calls that define the failure.  Otherwise
    results, estimates, panel counts and refinement failures are those of
    integrate(runs, lo, hi, tol) (see the module notes).
    """
    lo, hi, tol = (np.asarray(x, dtype=float).tolist() for x in (lo, hi, tol))
    mid = [0.5 * (a + b) for a, b in zip(lo, hi)]   # _refine's midpoint
    first = _first_panels(   # rows 3k, 3k+1, 3k+2: piece k and its halves
        [f for f, _ in runs], [3 * count for _, count in runs],
        [x for a, m in zip(lo, mid) for x in (a, a, m)],
        [x for b, m in zip(hi, mid) for x in (b, m, b)])
    if first is None:
        return None
    v, e = (x.tolist() for x in first)
    vals, errs, panels = [], [], []
    for k, f in enumerate([f for f, count in runs for _ in range(count)]):
        j = 3 * k
        val, err, n = v[j], e[j], 1
        if err > tol[k]:
            val, err, n = _refine(f, lo[k], hi[k], tol[k], val, err,
                                  ((v[j + 1], v[j + 2]), (e[j + 1], e[j + 2])))
        vals.append(val)
        errs.append(err)
        panels.append(n)
    return np.array(vals), np.array(errs), np.array(panels, dtype=int)


def _first_panels(fs, counts, lo, hi):
    """(integrals, estimates) of the panels [lo[r], hi[r]] from one
    kronrod_panels call, fs[i] evaluating the next counts[i] rows, or None
    if that call raises an ExtremalError or would warn."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return kronrod_panels(_by_block(fs, counts), lo, hi)
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
    bisection whose halves ((v1, v2), (e1, e2)) are given."""
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
        if len(heap) > _MAX_PANELS:
            raise QuadratureFailure(
                f"needed more than {_MAX_PANELS} panels for tol {tol:.3e}")
    return total_val, total_err, len(heap)
