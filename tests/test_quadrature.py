import heapq
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radial_extremals.errors import (DomainError, ExtremalError,
                                     ForbiddenRegion, QuadratureFailure)
from radial_extremals import quadrature
from radial_extremals.quadrature import kronrod_panels


def _scalar_driver(f, a, b, tol):
    """The one-interval adaptive driver, every panel from kronrod_panel and
    each half of a bisection in its own integrand call, for reference."""
    if a == b:
        return 0.0, 0.0, 0
    if b < a:
        val, err, panels = _scalar_driver(f, b, a, tol)
        return -val, err, panels
    val, err = kronrod_panel(f, a, b)
    total_val, total_err = val, err
    floor = quadrature._FLOOR * abs(val)
    heap = [(-err, 0, a, b, val)]
    seq = 1
    while total_err > tol:
        if floor > tol:
            raise QuadratureFailure("round-off")
        neg_err, _, lo, hi, old_val = heapq.heappop(heap)
        if hi - lo < 1e-15 * (1.0 + abs(lo) + abs(hi)):
            raise QuadratureFailure("cannot be refined")
        mid = 0.5 * (lo + hi)
        v1, e1 = kronrod_panel(f, lo, mid)
        v2, e2 = kronrod_panel(f, mid, hi)
        total_val += (v1 + v2) - old_val
        total_err += (e1 + e2) - (-neg_err)
        floor += quadrature._FLOOR * (abs(v1) + abs(v2) - abs(old_val))
        heapq.heappush(heap, (-e1, seq, lo, mid, v1))
        heapq.heappush(heap, (-e2, seq + 1, mid, hi, v2))
        seq += 2
        if len(heap) > quadrature._MAX_PANELS:
            raise QuadratureFailure("budget")
    return total_val, total_err, len(heap)


def _row_sums(fv, half, width, power=pow):
    """One panel's (integral, estimate) from four 1-D dot products and
    scalar arithmetic: the one-row reference for _panel_sums.  power is
    the sharpening's **, replaceable to show what the tests catch."""
    wk, wg = quadrature._WK, quadrature._WG
    with np.errstate(all="ignore"):   # inf and overflowing rows
        resk = half * float(wk @ fv)
        resg = half * float(wg @ fv)
        mean = resk / width if width != 0.0 else 0.0
        resasc = abs(half) * float(wk @ np.abs(fv - mean))
        resabs = abs(half) * float(wk @ np.abs(fv))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, power(200.0 * err / resasc, 1.5))
    err = max(err, quadrature._FLOOR * resabs)
    if not (math.isfinite(resk) and math.isfinite(err)):
        raise QuadratureFailure(f"panel value {resk} or estimate {err} "
                                "is not finite")
    return resk, err


def kronrod_panel(f, a, b):
    """One 15-point Kronrod panel of f on [a, b], f called on the panel's
    1-D node array: the one-panel reference for kronrod_panels."""
    half, center = 0.5 * (b - a), 0.5 * (a + b)
    fv = np.asarray(f(center + half * quadrature._NODES), dtype=float)
    return _row_sums(fv, half, b - a)


def integrate_one(f, a, b, tol):
    """Integral of f over [a, b] with absolute error <= tol: integrate on
    one interval."""
    return float(quadrature.integrate(f, [a], [b], tol)[0][0])


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def gaussian_reference(a, c, lo, hi):
    # integral of exp(-a (x-c)^2) via the error function
    s = math.sqrt(a)
    return math.sqrt(math.pi / a) / 2 * (math.erf(s * (hi - c))
                                         - math.erf(s * (lo - c)))


class TestPanel:
    def test_polynomial_exactness(self):
        val, err = kronrod_panel(lambda x: x ** 2, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-15)
        val, _ = kronrod_panel(lambda x: 7.0 * x ** 5 - x + 2.0, -1.0, 3.0)
        exact = 7.0 / 6.0 * (3.0 ** 6 - 1.0) - (9.0 - 1.0) / 2.0 + 8.0
        assert val == pytest.approx(exact, rel=1e-14)

    def test_error_estimate_bounds_true_error(self):
        val, err = kronrod_panel(lambda x: np.exp(np.sin(3.0 * x)), 0.0, 2.0)
        ref = integrate_one(lambda x: np.exp(np.sin(3.0 * x)), 0.0, 2.0,
                            1e-13)
        assert abs(val - ref) <= max(err, 1e-13)


class TestPanels:
    # each case: integrand, left ends, right ends
    CASES = {
        "smooth": (lambda x: np.exp(np.sin(3.0 * x)) / (1.0 + x * x),
                   [0.0, 0.5, -2.0, 1.0, 3.0],
                   [0.5, 1.25, 2.0, 1.0 + 1e-9, 7.5]),
        "zero width": (lambda x: np.cos(x), [0.3, 1.0], [0.3, 2.0]),
        "constant": (lambda x: np.full(np.shape(x), 2.5), [0.0, -1.0],
                     [1.0, 4.0]),
        "reversed": (lambda x: x ** 3 - x, [2.0, 0.0], [-1.0, 3.0]),
        "steep": (lambda x: 1.0 / np.sqrt(x), [1e-8, 1e-3], [1.0, 2e-3]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rows_equal_scalar_panel(self, case):
        f, lo, hi = self.CASES[case]
        vals, errs = kronrod_panels(f, lo, hi)
        assert vals.shape == errs.shape == (len(lo),)
        for k, (a, b) in enumerate(zip(lo, hi)):
            assert (vals[k], errs[k]) == kronrod_panel(f, a, b)

    def test_one_call_on_all_nodes(self):
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return x * x
        kronrod_panels(f, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert shapes == [(3, 15)]

    def test_constant_integrand_sharpening_branch(self):
        # f - mean vanishes on every node, so resasc is 0 and the estimate
        # falls back to the round-off floor 50*eps*|integral|
        vals, errs = kronrod_panels(lambda x: np.full(np.shape(x), 2.0),
                                    [0.0], [3.0])
        assert vals[0] == 6.0
        assert errs[0] == 50.0 * np.finfo(float).eps * 6.0


class TestBatchedSums:
    """_panel_sums on K rows at once against _row_sums row by row, bit for
    bit: the batched dot products must round as the per-row ones do."""

    @staticmethod
    def rows(seed=0, k=400):
        rng = np.random.default_rng(seed)
        # smooth rows, so the estimate is sharpened below |K15 - G7|, and
        # noise rows, with magnitudes spread over about 1e+-20
        smooth = np.exp(rng.uniform(0.5, 20.0, (k, 1)) * quadrature._NODES)
        noise = rng.standard_normal((k, 15))
        fv = np.concatenate([smooth, noise])
        fv *= 10.0 ** rng.uniform(-20.0, 20.0, (2 * k, 1))
        a = rng.uniform(-3.0, 3.0, 2 * k)
        b = a + rng.uniform(-2.0, 2.0, 2 * k) * 10.0 ** rng.uniform(
            -6.0, 0.0, 2 * k)
        # constant rows (f - mean vanishes, so resasc is 0) and zero widths
        fv[::7] = fv[::7, :1]
        b[::11] = a[::11]
        return fv, 0.5 * (b - a), b - a

    @staticmethod
    def reference(fv, half, width, power=pow):
        return np.array([_row_sums(*args, power=power) for args
                         in zip(fv, half.tolist(), width.tolist())]).T

    # node values as the integrand returned them, in any memory layout
    @pytest.mark.parametrize("layout", [
        np.ascontiguousarray, np.asfortranarray,
        lambda fv: np.repeat(fv, 2, axis=1)[:, ::2]])
    def test_rows_equal_per_row_sums(self, layout):
        fv, half, width = self.rows()
        fv = layout(fv)
        got = quadrature._panel_sums(fv, half, width)
        want = self.reference(fv, half, width)
        for g, w in zip(got, want):
            assert (_bits(g) == _bits(w)).all()
            assert not g[width == 0.0].any()

    def test_sharpening_uses_python_power(self):
        # rows whose estimate moves if the ratio is raised by np.power
        fv, half, width = self.rows(seed=1)
        want = self.reference(fv, half, width)
        moved = _bits(self.reference(fv, half, width, np.power)[1]) \
            != _bits(want[1])
        assert moved.sum() >= 5
        vals, errs = quadrature._panel_sums(fv[moved], half[moved],
                                           width[moved])
        assert (_bits(vals) == _bits(want[0][moved])).all()
        assert (_bits(errs) == _bits(want[1][moved])).all()

    # a NaN node, an inf node, and finite nodes whose sums overflow
    BAD_ROWS = {"nan": [1.0] * 7 + [np.nan] + [1.0] * 7,
                "inf": [1.0] * 9 + [np.inf] + [1.0] * 5,
                "overflow": [1e308] * 15}

    @pytest.mark.parametrize("first, second", [
        ("nan", "inf"), ("inf", "nan"), ("overflow", "nan")])
    def test_first_non_finite_row_named(self, first, second):
        fv, half, width = (x[:20] for x in self.rows(seed=2))
        fv[8], fv[13] = self.BAD_ROWS[first], self.BAD_ROWS[second]
        with pytest.raises(QuadratureFailure) as want:
            for args in zip(fv, half.tolist(), width.tolist()):
                _row_sums(*args)
        with pytest.raises(QuadratureFailure,
                           match=re.escape(str(want.value))):
            quadrature._panel_sums(fv, half, width)

class TestIntegrate:
    def test_sin(self):
        assert integrate_one(lambda x: np.sin(x), 0.0, math.pi, 1e-13) == \
            pytest.approx(2.0, abs=1e-13)

    def test_empty_and_reversed(self):
        assert integrate_one(lambda x: x, 1.0, 1.0, 1e-10) == 0.0
        fwd = integrate_one(lambda x: x ** 3 + 1.0, 0.0, 2.0, 1e-12)
        rev = integrate_one(lambda x: x ** 3 + 1.0, 2.0, 0.0, 1e-12)
        assert fwd == pytest.approx(-rev, rel=1e-14)
        assert fwd == pytest.approx(6.0, abs=1e-12)

    def test_sharp_peak_meets_tolerance(self):
        a, c = 1e4, 0.3
        got = integrate_one(lambda x: np.exp(-a * (x - c) ** 2), 0.0, 1.0,
                            1e-12)
        assert got == pytest.approx(gaussian_reference(a, c, 0.0, 1.0),
                                    abs=1e-11)

    def test_divergent_integrand_fails(self):
        with pytest.raises(QuadratureFailure):
            integrate_one(lambda x: 1.0 / x, 0.0, 1.0, 1e-8)

    def test_core_reports_estimate_and_panels(self):
        f = lambda x: np.exp(-1e2 * (x - 0.3) ** 2)  # noqa: E731
        vals, errs, panels = quadrature.integrate(
            f, [0.0, 1.0, 0.5], [1.0, 0.0, 0.5], 1e-12)
        val, err, count = vals[0], errs[0], panels[0]
        assert val == integrate_one(f, 0.0, 1.0, 1e-12)
        assert 0.0 < err <= 1e-12
        assert count > 1
        assert (vals[1], errs[1], panels[1]) == (-val, err, count)
        assert (vals[2], errs[2], panels[2]) == (0.0, 0.0, 0)
        one = quadrature.integrate(lambda x: x * x, [0.0], [1.0], 1e-10)
        assert [x[0] for x in one] == \
            [*kronrod_panel(lambda x: x * x, 0.0, 1.0), 1]

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: 1.0 + x, 0.0, 1.0),        # first panel's floor > tol
        (np.sin, 0.0, 2.0 * math.pi),         # floor appears on refinement
    ])
    def test_tolerance_below_round_off_fails_fast(self, f, a, b):
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        with pytest.raises(QuadratureFailure, match="round-off"):
            integrate_one(counted, a, b, 1e-14)
        assert len(calls) <= 5     # not the 10k-panel budget
        assert integrate_one(counted, a, b, 1e-13) == \
            pytest.approx(integrate_one(f, a, b, 1e-10), abs=1e-13)

    def test_array_call_equals_scalar_driver(self):
        # forward, reversed and equal limits; entries that need refinement
        # and entries met by their first panel; a tol per interval
        f = lambda x: np.exp(-1e3 * (x - 0.3) ** 2) + np.sin(x)  # noqa: E731
        a = [0.0, 1.0, 0.5, 0.3, 0.31, -1.0, 2.0, 0.25]
        b = [1.0, 0.0, 0.5, 0.31, 0.3, 2.0, 0.0, 0.35]
        tol = [1e-12, 1e-12, 1e-12, 1e-9, 1e-13, 1e-6, 1e-10, 1e-8]
        vals, errs, panels = quadrature.integrate(f, a, b, tol)
        got = list(zip(vals.tolist(), errs.tolist(), panels.tolist()))
        assert got == [_scalar_driver(f, *args) for args in zip(a, b, tol)]
        assert panels[2] == 0 and 1 in panels and panels.max() > 4
        assert vals[1] == -vals[0]

    def test_refine_one_integrand_call_per_bisection(self):
        shapes = []

        def f(x):
            shapes.append(np.shape(x))
            return np.exp(-1e3 * (x - 0.3) ** 2)
        val, err = kronrod_panel(f, 0.0, 1.0)
        shapes.clear()
        _, _, panels = quadrature._refine(f, 0.0, 1.0, 1e-12, val, err)
        assert panels > 2
        assert shapes == [(2, 15)] * (panels - 1)

    def test_infinite_limit_fails(self):
        with pytest.raises(QuadratureFailure, match="limits must be finite"):
            integrate_one(np.exp, 0.0, math.inf, 1e-10)

    @pytest.mark.parametrize("end", [math.inf, -math.inf])
    def test_equal_infinite_limits_fail(self, end):
        # equal limits are evaluated like any other, so an infinite pair
        # is not the empty interval's 0
        with pytest.raises(QuadratureFailure, match="limits must be finite"):
            integrate_one(np.exp, end, end, 1e-10)

    def test_nan_first_panel_fails(self):
        # with numpy's invalid-value warning off, sqrt past 1 hands the
        # driver NaN quietly; a NaN estimate never exceeds tol
        with np.errstate(invalid="ignore"), \
                pytest.raises(QuadratureFailure, match="not finite"):
            integrate_one(lambda x: np.sqrt(1.0 - x), 0.0, 2.0, 1e-10)
        with pytest.raises(QuadratureFailure, match="not finite"):
            kronrod_panel(lambda x: np.full(np.shape(x), np.nan), 0.0, 1.0)

    def test_nan_on_refinement_fails(self):
        # the first panel's nodes miss the NaN strip around 0.3, and its
        # estimate misses tol, so only a bisection samples the strip
        def f(x):
            return np.where(abs(x - 0.3) < 1e-3, np.nan,
                            np.exp(-1e3 * (x - 0.3) ** 2))
        assert np.isfinite(kronrod_panel(f, 0.0, 1.0)).all()
        with pytest.raises(QuadratureFailure, match="not finite"):
            integrate_one(f, 0.0, 1.0, 1e-10)

    def test_panel_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 2)
        with pytest.raises(QuadratureFailure,
                           match="needed more than 2 panels"):
            integrate_one(lambda x: np.exp(-1e4 * (x - 0.3) ** 2),
                          0.0, 1.0, 1e-12)


class TestBisected:
    """integrate with split=True evaluates each first bisection with the
    first panels and gives the plain call's bits; where that first call
    fails or would warn, the driver makes the plain call itself."""

    def test_equals_plain(self):
        # the cases of test_array_call_equals_scalar_driver, upwards and
        # without the equal pair: first panels that meet tol, and panels
        # that need one or many bisections
        f = lambda x: np.exp(-1e3 * (x - 0.3) ** 2) + np.sin(x)  # noqa: E731
        lo = [0.0, 0.0, 0.3, 0.3, -1.0, 0.0, 0.25, 0.0]
        hi = [1.0, 1.0, 0.31, 0.31, 2.0, 2.0, 0.35, 0.6]
        tol = [1e-12, 1e-12, 1e-9, 1e-13, 1e-6, 1e-10, 1e-8, 1e-8]
        calls = {False: [], True: []}
        got = {}
        for split in calls:
            def counted(x, _calls=calls[split]):
                _calls.append(np.shape(x))
                return f(x)
            got[split] = [x.tolist() for x in quadrature.integrate(
                [(counted, len(lo))], lo, hi, tol, split=split)]
        assert got[True] == got[False]
        assert calls[True][0] == (3 * 8, 15)
        assert len(calls[True]) == len(calls[False]) - \
            sum(p > 1 for p in got[False][2])

    # NaN between the nodes of [0, 1], on the midpoint node 0.25 of [0, 0.5]
    @staticmethod
    def _strip(f):
        return lambda x: np.where(abs(x - 0.25) < 1e-3, np.nan, f(x))

    @staticmethod
    def counted(f, shapes):
        def g(x):
            shapes.append(np.shape(x))
            return f(x)
        return g

    def test_nan_half_first_panel_meets_tol(self):
        f = self._strip(lambda x: 1.0 + x)
        plain = quadrature.integrate(f, [0.0], [1.0], 1e-10)
        shapes = []
        got = quadrature.integrate([(self.counted(f, shapes), 1)], [0.0],
                                   [1.0], [1e-10], split=True)
        # the split first call fails, and the plain call replaces it
        assert shapes == [(3, 15), (1, 15)]
        assert [x.tolist() for x in got] == [x.tolist() for x in plain]
        assert plain[2].tolist() == [1]

    def test_nan_half_on_refinement_fails(self):
        f = self._strip(lambda x: np.exp(-1e3 * (x - 0.3) ** 2))
        with pytest.raises(QuadratureFailure, match="not finite") as plain:
            quadrature.integrate(f, [0.0], [1.0], 1e-10)
        with pytest.raises(QuadratureFailure,
                           match=f"^{re.escape(str(plain.value))}$"):
            quadrature.integrate([(f, 1)], [0.0], [1.0], [1e-10],
                                 split=True)

    def test_warning_left_to_plain_call(self):
        # log(0) at the half's midpoint node would warn (an error here);
        # the plain call that replaces the first call never samples it
        f = lambda x: 1.0 + x + 0.0 * np.log(abs(x - 0.25))  # noqa: E731
        shapes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadrature.integrate([(self.counted(f, shapes), 1)],
                                       [0.0], [1.0], [1e-10], split=True)
        assert shapes == [(3, 15), (1, 15)]
        assert [x.tolist() for x in got] == \
            [[x] for x in kronrod_panel(f, 0.0, 1.0)] + [[1]]


class TestRuns:
    """Several integrands in one call: each run of intervals gets the bits
    and the failures of a call of its own, the runs taken in order."""

    # smooth, peaked (refines) and reversed intervals, an equal pair, and
    # pieces met by their first panel
    A = [0.0, 1.0, 0.5, 0.3, 0.25, -1.0]
    B = [1.0, 0.0, 0.5, 0.31, 0.35, 2.0]
    TOL = [1e-12, 1e-12, 1e-12, 1e-9, 1e-8, 1e-10]

    @staticmethod
    def f1(x):
        return np.exp(-1e3 * (x - 0.3) ** 2) + np.sin(x)

    @staticmethod
    def f2(x):
        return 1.0 / (2.0 + np.cos(3.0 * x))

    @staticmethod
    def per_run(runs, a, b, tol):
        parts, start = [], 0
        for f, count in runs:
            run = slice(start, start + count)
            parts.append(quadrature.integrate(f, a[run], b[run], tol[run]))
            start += count
        return [np.concatenate(x) for x in zip(*parts)]

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("cut", [0, 2, 4, 6])   # 0, 6: one run only
    def test_equals_one_call_per_run(self, split, cut):
        a, b, tol = (np.array(x) for x in (self.A, self.B, self.TOL))
        if split:   # upward limits without the equal pair, as span pieces
            a, b = np.minimum(a, b), np.maximum(a, b)
            b[2] = 0.75
        runs = [(self.f1, cut), (self.f2, len(a) - cut)]
        calls = []

        def counted(f):
            def g(x):
                calls.append(f)
                return f(x)
            return g
        got = quadrature.integrate([(counted(f), n) for f, n in runs], a, b,
                                   tol, split=split)
        want = self.per_run(runs, a, b, tol)
        for g, w in zip(got, want):
            assert (_bits(g) == _bits(w)).all()
        assert got[2].dtype == want[2].dtype
        assert (got[2][2] == 0) != split and got[2].max() > 1
        # one shared first call, in which each integrand is called once,
        # in order; f1's peaked interval is refined only after it
        first = [f for f, n in runs if n]
        assert calls[:len(first)] == first

    def test_nan_limit_fails_as_its_own_call(self):
        a = np.array([0.0, np.nan, 0.0])
        b = np.array([1.0, 1.0, 2.0])
        for split in (1, 2):
            with pytest.raises(QuadratureFailure) as want:
                self.per_run([(self.f1, split), (self.f2, 3 - split)],
                             a, b, np.full(3, 1e-10))
            with pytest.raises(QuadratureFailure,
                               match=f"^{re.escape(str(want.value))}$"):
                quadrature.integrate(
                    [(self.f1, split), (self.f2, 3 - split)], a, b, 1e-10)

    def test_infinite_limit_of_a_later_run_fails_after_the_first(self):
        # the first run's failure comes before the second run's limits are
        # looked at, as in one call per run
        def bad(x):
            raise DomainError("first run")
        runs = [(bad, 1), (self.f2, 1)]
        with pytest.raises(DomainError, match="first run"):
            quadrature.integrate(runs, [0.0, 0.0], [1.0, math.inf], 1e-10)
        with pytest.raises(QuadratureFailure, match="limits must be finite"):
            quadrature.integrate([(self.f1, 1), (self.f2, 1)],
                                 [0.0, 0.0], [1.0, math.inf], 1e-10)

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("end", [math.inf, -math.inf])
    def test_equal_infinite_limits_of_one_run_fail(self, split, end):
        for a, b in (([0.0, end], [1.0, end]), ([end, 0.0], [end, 1.0])):
            with pytest.raises(QuadratureFailure,
                               match="limits must be finite"):
                quadrature.integrate([(self.f1, 1), (self.f2, 1)], a, b,
                                     1e-10, split=split)

    @pytest.mark.parametrize("split", [False, True])
    def test_failed_refinement_of_first_run_wins(self, split):
        # the second integrand raises; the first run's piece would fail
        # only on refinement (tol below its round-off floor), so a shared
        # first call that skipped to the second run's error would hide it
        seen = []

        def second(x):
            seen.append(x.shape)
            raise ForbiddenRegion("second run")
        def call(runs, a, b, tol):
            return quadrature.integrate(runs, a, b, tol, split=split)
        runs = [(self.f1, 1), (second, 1)]
        a, b, tol = [0.0, 0.0], [1.0, 1.0], [1e-17, 1e-10]
        with pytest.raises(QuadratureFailure, match="round-off") as want:
            quadrature.integrate(self.f1, a[:1], b[:1], tol[:1])
        with pytest.raises(QuadratureFailure,
                           match=f"^{re.escape(str(want.value))}$"):
            call(runs, a, b, tol)
        # the shared first call only, never the second run's own
        assert len(seen) == 1
        # both runs fail on refinement: the first run's failure is raised
        runs = [(self.f1, 1), (self.f2, 1)]
        with pytest.raises(QuadratureFailure,
                           match=f"^{re.escape(str(want.value))}$"):
            call(runs, a, b, [1e-17, 1e-17])

    def test_warning_left_to_the_calls_per_run(self):
        # 1/0 at the centre node of [0, 0.5] warns, and exp(-inf) is 0: the
        # shared call would warn, so the calls per run are made, with the
        # one warning
        def second(x):
            return np.exp(-1.0 / abs(x - 0.25))
        runs = [(self.f1, 1), (second, 1)]
        a, b, tol = np.zeros(2), np.array([1.0, 0.5]), np.full(2, 1e-10)
        got = {}
        for name, call in (
                ("runs", lambda: quadrature.integrate(runs, a, b, tol)),
                ("per run", lambda: self.per_run(runs, a, b, tol))):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                got[name] = [x.tolist() for x in call()]
            got[name].append([str(w.message) for w in seen])
        assert got["runs"] == got["per run"]
        assert got["runs"][-1] == ["divide by zero encountered in divide"]


def _split_kind(kind, c):
    """An integrand of one kind; c is the centre node of the first half of
    a piece, which its first panel does not sample."""
    def peak(x):
        return np.exp(-1e3 * (x - c) ** 2)
    return {"smooth": lambda x: np.exp(np.sin(3.0 * x)) / (1.0 + x * x),
            "peaked": peak,
            "nan strip": lambda x: np.where(abs(x - c) < 1e-12, np.nan,
                                            peak(x)),
            "log node": lambda x: peak(x) + 0.0 * np.log(abs(x - c))}[kind]


def _split_outcome(call):
    """(value and estimate bits and panel counts, or the error's class and
    message; the messages of the RuntimeWarnings given)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            vals, errs, panels = call()
            got = (_bits(vals).tolist(), _bits(errs).tolist(),
                   panels.tolist())
        except ExtremalError as exc:
            got = (type(exc), str(exc))
    return got, [str(w.message) for w in seen
                 if issubclass(w.category, RuntimeWarning)]


_PIECE = st.tuples(st.floats(-3.0, 3.0),
                   st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                   st.floats(-14.0, -6.0))


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(
    st.sampled_from(["smooth", "peaked", "nan strip", "log node"]),
    st.lists(_PIECE, min_size=1, max_size=4)), min_size=1, max_size=3))
def test_split_first_call_changes_no_outcome(runs):
    # runs of random pieces, upward, reversed or of zero width, each with
    # its own tol; a NaN strip or a log node sits where only the halves of
    # the run's first piece sample it
    fs, lo, hi, tol = [], [], [], []
    for kind, pieces in runs:
        a, width, _ = pieces[0]
        b = a + abs(width)
        fs.append((_split_kind(kind, 0.5 * (a + 0.5 * (a + b))),
                   len(pieces)))
        for a, width, log_tol in pieces:
            lo.append(a)
            hi.append(a + width)
            tol.append(10.0 ** log_tol)
    plain = _split_outcome(lambda: quadrature.integrate(fs, lo, hi, tol))
    assert plain == _split_outcome(
        lambda: quadrature.integrate(fs, lo, hi, tol, split=True))
