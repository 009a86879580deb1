import heapq
import math

import numpy as np
import pytest

from radial_extremals.errors import QuadratureFailure
from radial_extremals import quadrature
from radial_extremals.quadrature import (integrate, kronrod_panel,
                                         kronrod_panels)


def _scalar_driver(f, a, b, tol, max_panels=10_000):
    """The one-interval adaptive driver, every panel from kronrod_panel and
    each half of a bisection in its own integrand call, for reference."""
    if a == b:
        return 0.0, 0.0, 0
    if b < a:
        val, err, panels = _scalar_driver(f, b, a, tol, max_panels)
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
        if len(heap) > max_panels:
            raise QuadratureFailure("budget")
    return total_val, total_err, len(heap)


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
        ref = integrate(lambda x: np.exp(np.sin(3.0 * x)), 0.0, 2.0, 1e-13)
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


class TestIntegrate:
    def test_sin(self):
        assert integrate(lambda x: np.sin(x), 0.0, math.pi, 1e-13) == \
            pytest.approx(2.0, abs=1e-13)

    def test_empty_and_reversed(self):
        assert integrate(lambda x: x, 1.0, 1.0, 1e-10) == 0.0
        fwd = integrate(lambda x: x ** 3 + 1.0, 0.0, 2.0, 1e-12)
        rev = integrate(lambda x: x ** 3 + 1.0, 2.0, 0.0, 1e-12)
        assert fwd == pytest.approx(-rev, rel=1e-14)
        assert fwd == pytest.approx(6.0, abs=1e-12)

    def test_sharp_peak_meets_tolerance(self):
        a, c = 1e4, 0.3
        got = integrate(lambda x: np.exp(-a * (x - c) ** 2), 0.0, 1.0, 1e-12)
        assert got == pytest.approx(gaussian_reference(a, c, 0.0, 1.0),
                                    abs=1e-11)

    def test_divergent_integrand_fails(self):
        with pytest.raises(QuadratureFailure):
            integrate(lambda x: 1.0 / x, 0.0, 1.0, 1e-8)

    def test_core_reports_estimate_and_panels(self):
        f = lambda x: np.exp(-1e2 * (x - 0.3) ** 2)  # noqa: E731
        vals, errs, panels = quadrature._integrate(
            f, [0.0, 1.0, 0.5], [1.0, 0.0, 0.5], 1e-12)
        val, err, count = vals[0], errs[0], panels[0]
        assert val == integrate(f, 0.0, 1.0, 1e-12)
        assert 0.0 < err <= 1e-12
        assert count > 1
        assert (vals[1], errs[1], panels[1]) == (-val, err, count)
        assert (vals[2], errs[2], panels[2]) == (0.0, 0.0, 0)
        one = quadrature._integrate(lambda x: x * x, [0.0], [1.0], 1e-10)
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
            integrate(counted, a, b, 1e-14)
        assert len(calls) <= 5     # not the 10k-panel budget
        assert integrate(counted, a, b, 1e-13) == \
            pytest.approx(integrate(f, a, b, 1e-10), abs=1e-13)

    def test_array_call_equals_scalar_driver(self):
        # forward, reversed and equal limits; entries that need refinement
        # and entries met by their first panel; a tol per interval
        f = lambda x: np.exp(-1e3 * (x - 0.3) ** 2) + np.sin(x)  # noqa: E731
        a = [0.0, 1.0, 0.5, 0.3, 0.31, -1.0, 2.0, 0.25]
        b = [1.0, 0.0, 0.5, 0.31, 0.3, 2.0, 0.0, 0.35]
        tol = [1e-12, 1e-12, 1e-12, 1e-9, 1e-13, 1e-6, 1e-10, 1e-8]
        vals, errs, panels = quadrature._integrate(f, a, b, tol)
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
            integrate(np.exp, 0.0, math.inf, 1e-10)

    def test_nan_first_panel_fails(self):
        # with numpy's invalid-value warning off, sqrt past 1 hands the
        # driver NaN quietly; a NaN estimate never exceeds tol
        with np.errstate(invalid="ignore"), \
                pytest.raises(QuadratureFailure, match="not finite"):
            integrate(lambda x: np.sqrt(1.0 - x), 0.0, 2.0, 1e-10)
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
            integrate(f, 0.0, 1.0, 1e-10)

    def test_panel_budget_exhaustion(self):
        with pytest.raises(QuadratureFailure):
            integrate(lambda x: np.exp(-1e4 * (x - 0.3) ** 2),
                      0.0, 1.0, 1e-12, max_panels=2)
