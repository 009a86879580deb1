import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from radial_extremals import bvp, reduced_ode, weights
from radial_extremals import (BvpProblem, DomainError, ExtremalSpec,
                              ForbiddenRegion, NoBracket, PolarPoint,
                              PowerLaw, PowerLawCurve, Polyline,
                              QuadratureFailure, eval_v, functional_value,
                              integrate_phi, parse_weight, power_law_point,
                              solve_n)

import closed_form_reference
import span_costs


def span(n, prob, tol=1e-12):
    """Total |delta phi| between the endpoints on the extremal with
    constant n, by the two helpers solve_n evaluates."""
    _, da, db = bvp._branch_angles(prob, n, tol)
    return bvp._span(prob, da, db)


def endpoints_from_curve(lam, n, psi_a, psi_b, phi0=0.0):
    c = PowerLawCurve(lam, n, phi0)
    return power_law_point(c, psi_a), power_law_point(c, psi_b)


def round_trip_draws():
    """(lam, n_true, problem) for each of criterion 07's 50 draws."""
    rng = np.random.default_rng(23)
    for draw in range(50):
        lam = float(rng.uniform(0.0, 3.0))
        n_true = float(rng.uniform(0.7, 2.2))
        phi0 = float(rng.uniform(-0.5, 0.5))
        same_branch = draw % 2 == 1
        if same_branch:
            psi_a = float(rng.uniform(0.6, 0.9))
            psi_b = float(rng.uniform(1.0, 1.3))
        else:
            psi_a = -float(rng.uniform(0.6, 1.3))
            psi_b = float(rng.uniform(0.6, 1.3))
        a, b = endpoints_from_curve(lam, n_true, psi_a, psi_b, phi0)
        yield lam, n_true, BvpProblem(a, b, PowerLaw(lam), same_branch)


def first_round_trip_draw():
    """(lam, n_true, endpoint a, endpoint b) of criterion 07's first draw."""
    lam, n_true, prob = next(round_trip_draws())
    return lam, n_true, prob.a, prob.b


def count_spans(monkeypatch):
    """The list of n at which solve_n evaluates an angular span, filled as
    it runs."""
    spans = []

    def counted(prob, n, tol, _f=bvp._branch_angles):
        spans.append(n)
        return _f(prob, n, tol)
    monkeypatch.setattr(bvp, "_branch_angles", counted)
    return spans


class TestAngularSpan:
    def test_constant_weight_symmetric(self):
        prob = BvpProblem(PolarPoint(-1.0, 1.0), PolarPoint(1.0, 1.0),
                          PowerLaw(0.0))
        got = span(2.0, prob)
        assert got == pytest.approx(2.0 * math.atan(math.sqrt(3.0)),
                                    abs=1e-10)

    def test_same_branch_equal_radii(self):
        prob = BvpProblem(PolarPoint(0.2, 1.5), PolarPoint(0.9, 1.5),
                          PowerLaw(0.0), same_branch=True)
        assert span(1.0, prob) == 0.0

    def test_linear_weight_vs_closed_form(self):
        n = 1.4
        a, b = endpoints_from_curve(1.0, n, -0.8, 0.8)
        prob = BvpProblem(a, b, PowerLaw(1.0))
        got = span(n, prob)
        assert got == pytest.approx(0.8, abs=1e-10)  # 2 * (psi/2)

    def test_forbidden_when_turning_radius_exceeds_endpoint(self):
        prob = BvpProblem(PolarPoint(-0.5, 1.0), PolarPoint(0.5, 1.0),
                          PowerLaw(0.0))
        with pytest.raises(ForbiddenRegion, match=r"^z = 1.0 lies inside "
                           r"the turning radius z\* = 2.0 at n = 0.5$"):
            span(0.5, prob)   # z* = 2 > 1

    @pytest.mark.parametrize("weight,n,radii", [
        (PowerLaw(0.0), 2.0, (0.6, 1.5)),      # z* = 0.5, handoff 0.75
        (PowerLaw(0.0), 2.0, (1.5, 0.6)),
        (PowerLaw(0.0), 2.0, (0.5 * (1.0 - 5e-13), 1.5)),   # inside z*
        (PowerLaw(0.0), 2.0, (0.5, 0.5)),
        (PowerLaw(1.3), 1.1, (1.0, 3.0)),
        (parse_weight("sqrt(1+z^3)"), 1.2, (0.75, 2.0)),
        (parse_weight("1/(1+z^2)"), 3.0, (0.4, 0.9))])
    def test_both_angles_equal_integrate_phi(self, weight, n, radii):
        prob = BvpProblem(PolarPoint(0.1, radii[0]),
                          PolarPoint(0.7, radii[1]), weight)
        for tol in (1e-12, 1e-13):
            spec, da, db = bvp._branch_angles(prob, n, tol)
            want = [integrate_phi(spec, z, tol) for z in radii]
            assert [da, db] == want
            # a radius within 1e-12 inside z* gives +0.0, as at z*
            assert [math.copysign(1.0, x) for x in (da, db)] == [1.0, 1.0]
            assert all(type(x) is float for x in (da, db))

    def test_tol_outside_integrate_phi_range(self):
        prob = BvpProblem(PolarPoint(-1.0, 1.0), PolarPoint(1.0, 1.0),
                          PowerLaw(0.0))
        message = r"^tol must be in \[1e-14, 0.001\], got 0.01$"
        with pytest.raises(DomainError, match=message):
            span(2.0, prob, 1e-2)
        # tol is checked before the radii, as in integrate_phi
        with pytest.raises(DomainError, match=message):
            span(0.5, prob, 1e-2)


class TestSolveN:
    def test_constant_weight_line(self):
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        sol = solve_n(prob, (1.2, 3.5), 1e-12)
        assert sol.n == pytest.approx(2.0, abs=1e-8)
        assert sol.phi0 == pytest.approx(0.0, abs=1e-10)
        assert sol.z_turn == pytest.approx(0.5, rel=1e-8)

    def test_linear_weight_round_trip(self):
        n_true = 1.7
        a, b = endpoints_from_curve(1.0, n_true, -0.9, 0.9, phi0=0.25)
        prob = BvpProblem(a, b, PowerLaw(1.0))
        sol = solve_n(prob, (1.2, 2.4), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-8)
        assert sol.phi0 == pytest.approx(0.25, abs=1e-8)

    def test_same_branch_round_trip(self):
        n_true = 1.3
        # the bracket's low end must keep the turning radius below both
        # endpoint radii: n_lo >= n_true * cos(psi_min)
        a, b = endpoints_from_curve(2.0, n_true, 0.5, 1.1, phi0=-0.4)
        prob = BvpProblem(a, b, PowerLaw(2.0), same_branch=True)
        sol = solve_n(prob, (1.17, 1.9), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-8)
        assert sol.phi0 == pytest.approx(-0.4, abs=1e-8)

    def test_slow_power_law_round_trip(self):
        # g = z^0.1 - 1 rises so slowly that the far piece from the top
        # rung, 1.524*z*, out to 30*z* holds 4.9 of the 7.79 radians: at
        # qtol 1e-13, half of tol is below that piece's round-off floor
        psi = math.acos(30.0 ** -0.1)
        a, b = endpoints_from_curve(-0.9, 1.0, -psi, psi, phi0=0.3)
        sol = solve_n(BvpProblem(a, b, PowerLaw(-0.9)), (0.95, 1.05), 1e-12)
        assert sol.n == pytest.approx(1.0, rel=1e-8)
        assert sol.phi0 == pytest.approx(0.3, abs=1e-8)

    def test_no_bracket(self):
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        with pytest.raises(NoBracket):
            solve_n(prob, (2.5, 3.5), 1e-12)

    def test_bracket_end_outside_endpoint_radius(self):
        # z*(0.5) = 0.5^(-1/2.3) = 1.35 lies outside both endpoint radii
        prob = BvpProblem(PolarPoint(-0.5, 1.3), PolarPoint(0.5, 1.3),
                          PowerLaw(1.3))
        with pytest.raises(NoBracket, match="invalid bracket end.* n = 0.5$"):
            solve_n(prob, (0.5, 3.0), 1e-12)

    def test_span_evaluations_per_solve(self, monkeypatch):
        # first draw of the acceptance round trip (criterion 07)
        lam, n_true, a, b = first_round_trip_draw()
        calls = count_spans(monkeypatch)
        sol = solve_n(BvpProblem(a, b, PowerLaw(lam)),
                      (0.85 * n_true, 1.6 * n_true), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-7)
        assert sol.evaluations == len(calls) == 7
        assert sol.residual == sol.span - abs(b.phi - a.phi)
        assert abs(sol.residual) <= 1e-12

    @pytest.mark.parametrize("weight", [None, "1.0*z^{lam!r}"])
    def test_weight_passes_per_span(self, monkeypatch, weight):
        # criterion 07's first draw: checked weight passes (eval_v, eval_q
        # and eval_vq calls made by reduced_ode and bvp) per angular span;
        # at most half of the 59.4 (PowerLaw) and 69.2 (expression) passes
        # per span of two integrate_phi calls with three passes per Newton
        # step
        lam, n_true, a, b = first_round_trip_draw()
        w = PowerLaw(lam) if weight is None \
            else parse_weight(weight.format(lam=lam))
        passes = []
        for module in (reduced_ode, bvp):
            for name in ("eval_v", "eval_q", "eval_vq"):
                if hasattr(module, name):
                    def counted(*args, _f=getattr(module, name)):
                        passes.append(args)
                        return _f(*args)
                    monkeypatch.setattr(module, name, counted)
        spans = count_spans(monkeypatch)
        sol = solve_n(BvpProblem(a, b, w),
                      (0.85 * n_true, 1.6 * n_true), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-7)
        per_span = len(passes) / len(spans)
        assert per_span <= 0.5 * (59.4 if weight is None else 69.2)

    @pytest.mark.parametrize("weight", [None, "1.0*z^{lam!r}"])
    def test_passing_weight_checks_never_finish(self, monkeypatch, weight):
        # criterion 07's first draw: every checked weight pass passes its
        # fused test, so the separate checks never run
        lam, n_true, a, b = first_round_trip_draw()
        w = PowerLaw(lam) if weight is None \
            else parse_weight(weight.format(lam=lam))
        finished = []

        def counted(*args, _f=weights._finish):
            finished.append(args)
            return _f(*args)
        monkeypatch.setattr(weights, "_finish", counted)
        spans = count_spans(monkeypatch)
        sol = solve_n(BvpProblem(a, b, w),
                      (0.85 * n_true, 1.6 * n_true), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-7)
        assert len(spans) == 7 and finished == []

    @pytest.mark.parametrize("which", ["a", "b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_endpoint_radius(self, which, bad):
        points = {"a": PolarPoint(-0.5, 1.0), "b": PolarPoint(0.5, 2.0)}
        points[which] = PolarPoint(points[which].phi, bad)
        with pytest.raises(DomainError,
                           match=f"^endpoint {which} radius must be a finite "
                                 f"real number, got {bad}$"):
            solve_n(BvpProblem(points["a"], points["b"], PowerLaw(1.0)),
                    (0.5, 3.0), 1e-12)

    @pytest.mark.parametrize("which", ["a", "b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoint_angle(self, which, bad):
        # a NaN angle reached solve_n, which raised NoBracket (end values
        # nan, nan)
        points = {"a": PolarPoint(-0.5, 1.3), "b": PolarPoint(0.5, 1.3)}
        points[which] = PolarPoint(bad, points[which].z)
        with pytest.raises(DomainError,
                           match=f"^endpoint {which} angle must be a "
                                 f"finite real number, got {bad}$"):
            BvpProblem(points["a"], points["b"], PowerLaw(1.0))

    @pytest.mark.parametrize("which", ["a", "b"])
    @pytest.mark.parametrize("bad", [-1.3, 0.0, -0.0])
    def test_non_positive_endpoint_radius(self, which, bad):
        points = {"a": PolarPoint(-0.5, 1.3), "b": PolarPoint(0.5, 1.3)}
        points[which] = PolarPoint(points[which].phi, bad)
        with pytest.raises(DomainError,
                           match=f"^endpoint {which} radius must be "
                                 f"positive, got {bad}$"):
            BvpProblem(points["a"], points["b"], PowerLaw(1.0))

    def test_equal_endpoints_rejected(self):
        with pytest.raises(NoBracket, match="^endpoints must differ$"):
            BvpProblem(PolarPoint(0.3, 1.3), PolarPoint(0.3, 1.3),
                       PowerLaw(1.0))

    @pytest.mark.parametrize("n_bracket, message", [
        ((2.0, 1.0), "[2.0, 1.0]"), ((0.0, 1.0), "[0.0, 1.0]"),
        ((-1.0, 2.0), "[-1.0, 2.0]"), ((1.2, 1.2), "[1.2, 1.2]"),
        ((math.nan, 2.0), "(nan, 2.0): n bracket end must be a finite real "
                          "number, got nan"),
        ((1.2, math.inf), "(1.2, inf): n bracket end must be a finite real "
                          "number, got inf"),
        (("1.2", "3.5"), "('1.2', '3.5'): n bracket end must be a finite "
                         "real number, got '1.2'"),
        ((1.2, 3.5, 99.0), "(1.2, 3.5, 99.0): too many values to unpack "
                           "(expected 2)"),
        ((1.2,), "(1.2,): not enough values to unpack (expected 2, got 1)"),
        (2.0, "2.0: 'float' object is not iterable")])
    def test_invalid_n_bracket_fails_before_any_span(self, monkeypatch,
                                                     n_bracket, message):
        # a third entry was dropped, text was parsed, and an infinite end
        # reached the turning radius as DomainError
        spans = count_spans(monkeypatch)
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        with pytest.raises(NoBracket, match="^" + re.escape(
                f"invalid n bracket {message}") + "$"):
            solve_n(prob, n_bracket, 1e-12)
        assert spans == []

    @pytest.mark.parametrize("tol, rule", [
        (-1.0, "in [0.0, inf]"), (-1e-300, "in [0.0, inf]"),
        *[(tol, "a finite real number")
          for tol in (math.nan, -math.inf, math.inf, "1e-10", None, True)]])
    def test_bad_tol_fails_before_any_span(self, monkeypatch, tol, rule):
        # an infinite tol took the bracket end n = 3.5 as the root
        spans = count_spans(monkeypatch)
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        with pytest.raises(DomainError, match="^" + re.escape(
                f"tol must be {rule}, got {tol!r}") + "$"):
            solve_n(prob, (1.2, 3.5), tol)
        assert spans == []

    @pytest.mark.parametrize("n_bracket, tol, error", [
        ((1.2, 3.5), math.inf, DomainError),
        ((1.2, 3.5, 99), 1e-10, NoBracket),
        (("1.2", "3.5"), 1e-10, NoBracket)])
    def test_golden_problem_refuses_what_it_answered_silently(
            self, monkeypatch, n_bracket, tol, error):
        # bvp.csv's problem: tol inf returned the bracket end n = 3.5, the
        # third entry was dropped and the text ends parsed, both giving
        # n = 1.9993159356636825
        spans = count_spans(monkeypatch)
        prob = BvpProblem(PolarPoint(-1.047, 1.0), PolarPoint(1.047, 1.0),
                          PowerLaw(0.0))
        with pytest.raises(error):
            solve_n(prob, n_bracket, tol)
        assert spans == []

    def test_numpy_scalar_tol_solves(self):
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        want = solve_n(prob, (1.2, 3.5), 1e-10)
        assert solve_n(prob, (1.2, 3.5), np.float64(1e-10)) == want

    def test_zero_tol_runs_to_bracket_collapse(self):
        # on the curve n z^2 cos(2 phi) = 1 of v = z
        prob = BvpProblem(PolarPoint(-0.45, 1.3), PolarPoint(0.45, 1.3),
                          PowerLaw(1.0))
        sol = solve_n(prob, (0.9, 2.2), 0.0)
        assert sol.n == pytest.approx(1.0 / (1.3 ** 2 * math.cos(0.9)),
                                      rel=1e-12)

    def test_zero_tol_round_trips_solve_or_refuse(self):
        # criterion 07's draws at tol 0: the search runs until the bracket
        # collapses, and ends within the spans' quadrature tol 1e-14 of the
        # target (exactly on it for some), or meets the round-off floor on
        # the way; a collapse residual above 1e-14 would be refused
        outcomes = {"exact": 0, "within 1e-14": 0, "floor": 0}
        for lam, n_true, prob in round_trip_draws():
            try:
                sol = solve_n(prob, (0.85 * n_true, 1.6 * n_true), 0.0)
            except QuadratureFailure as exc:
                assert "below the round-off floor" in str(exc)
                outcomes["floor"] += 1
                continue
            assert abs(sol.residual) <= 1e-14
            assert abs(sol.n - n_true) <= 1e-7 * n_true
            outcomes["exact" if sol.residual == 0.0 else "within 1e-14"] += 1
        print(outcomes)
        assert min(outcomes.values()) > 0

    @pytest.mark.parametrize("tol", [0.0, 1e-20])
    def test_tiny_tol_refuses_a_jump(self, monkeypatch, tol):
        # a span that jumps by 1e-12 across the target: the bracket
        # collapses onto the jump, whose residual exceeds 1e-14
        prob = BvpProblem(PolarPoint(-0.45, 1.3), PolarPoint(0.45, 1.3),
                          PowerLaw(1.0))
        n_root = 1.0 / (1.3 ** 2 * math.cos(0.9))
        span = bvp._branch_angles

        def jumping(prob, n, qtol):
            spec, da, db = span(prob, n, qtol)
            return spec, 0.45 + (5e-13 if n > n_root else -5e-13), 0.45
        monkeypatch.setattr(bvp, "_branch_angles", jumping)
        with pytest.raises(QuadratureFailure,
                           match="^bracket collapsed with span residual "):
            solve_n(prob, (0.9, 2.2), tol)

    @pytest.mark.parametrize("weight", [None, "1.0*z^{lam!r}"])
    def test_one_near_integrand_call_per_span(self, monkeypatch, weight):
        # criterion 07's first draw: each span's near pieces, first panels
        # and first bisections together, take one integrand call; the
        # second span has both endpoints beyond the handoff, which share
        # one near piece (6 rows each when every endpoint had its own)
        lam, n_true, a, b = first_round_trip_draw()
        w = PowerLaw(lam) if weight is None \
            else parse_weight(weight.format(lam=lam))
        near_calls = []

        def counted_near(spec, _f=reduced_ode._near_integrand):
            F = _f(spec)

            def counted(x):
                near_calls.append(np.shape(x))
                return F(x)
            return counted
        monkeypatch.setattr(reduced_ode, "_near_integrand", counted_near)
        spans = count_spans(monkeypatch)
        sol = solve_n(BvpProblem(a, b, w),
                      (0.85 * n_true, 1.6 * n_true), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-7)
        assert len(spans) == 7
        assert near_calls == [(6, 15), (3, 15)] + [(6, 15)] * 5

    @pytest.mark.parametrize("weight", [None, "1.0*z^{lam!r}"])
    def test_one_quadrature_call_per_span(self, monkeypatch, weight):
        # criterion 07's first draw: each span's near and far pieces go
        # through one split integrate call, whose first panels (with their
        # first bisections) are one kronrod_panels call, and none falls
        # back to plain calls; the calls of refinement's later bisections
        # are not counted
        lam, n_true, a, b = first_round_trip_draw()
        w = PowerLaw(lam) if weight is None \
            else parse_weight(weight.format(lam=lam))
        quad = reduced_ode.quadrature
        calls = {"integrate": [], "first panels": []}

        def counted(runs, lo, hi, tol, split=False, _f=quad.integrate):
            calls["integrate"].append((split, len(lo)))
            return _f(runs, lo, hi, tol, split=split)

        def counted_panels(f, lo, hi, _f=quad.kronrod_panels):
            if sys._getframe(1).f_code.co_name != "_refine":
                calls["first panels"].append(len(lo))
            return _f(f, lo, hi)
        monkeypatch.setattr(quad, "integrate", counted)
        monkeypatch.setattr(quad, "kronrod_panels", counted_panels)
        spans = count_spans(monkeypatch)
        sol = solve_n(BvpProblem(a, b, w),
                      (0.85 * n_true, 1.6 * n_true), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-7)
        assert len(spans) == 7
        # pieces per span: near ones (one shared by the endpoints beyond
        # the handoff), then far ones; three rows each
        pieces = [2, 3, 3, 2, 2, 2, 2]
        assert calls["integrate"] == [(True, k) for k in pieces]
        assert calls["first panels"] == [3 * k for k in pieces]

    def test_spans_over_the_benchmark_jobs(self):
        # the benchmark's 105 bvp jobs of seed 1: the spans, their
        # kronrod_panels calls and reduced_ode's weight passes by kind,
        # (calls, points); the np.errstate entries are not pinned
        counts = span_costs.span_counts()
        assert (counts["spans"], counts["kronrod_panels"]) == (767, 842)
        assert {name: counts[name] for name in span_costs.PASSES} == {
            "eval_v": (2455, 43001), "eval_vq": (767, 767),
            "eval_slope": (767, 58995), "masked_v": (1022, 97195),
            "wide_v": (767, 767)}

    def test_root_pieces_reused(self, monkeypatch):
        # first draw of criterion 07: the returned n* is one of the span
        # evaluations, so its spec and angles are not built again
        lam, n_true, a, b = first_round_trip_draw()
        specs = []

        def counted_spec(*args, **kwargs):
            specs.append(args)
            return ExtremalSpec(*args, **kwargs)
        spans = count_spans(monkeypatch)
        monkeypatch.setattr(bvp, "ExtremalSpec", counted_spec)
        sol = solve_n(BvpProblem(a, b, PowerLaw(lam)),
                      (0.85 * n_true, 1.6 * n_true), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-7)
        assert 0 < len(specs) <= len(spans)

    def test_recovered_curve_passes_endpoints(self):
        rng = np.random.default_rng(97)
        for _ in range(12):
            lam = float(rng.uniform(0.0, 3.0))
            n_true = float(rng.uniform(0.8, 2.0))
            phi0 = float(rng.uniform(-0.5, 0.5))
            psi_a = -float(rng.uniform(0.6, 1.3))
            psi_b = float(rng.uniform(0.6, 1.3))
            a, b = endpoints_from_curve(lam, n_true, psi_a, psi_b, phi0)
            prob = BvpProblem(a, b, PowerLaw(lam))
            sol = solve_n(prob, (0.85 * n_true, 1.6 * n_true), 1e-12)
            assert sol.n == pytest.approx(n_true, rel=1e-7)
            spec = ExtremalSpec(PowerLaw(lam), sol.n, phi0=sol.phi0)
            for pt in (a, b):
                off = integrate_phi(spec, pt.z, 1e-13)
                hit = min(abs(sol.phi0 + off - pt.phi),
                          abs(sol.phi0 - off - pt.phi))
                assert hit <= 1e-7

    def test_solution_beats_chord(self):
        # minimality spot check: the recovered extremal's functional does
        # not exceed the straight chord's
        for lam in (1.0, 2.0):
            n_true = 1.2
            a, b = endpoints_from_curve(lam, n_true, -1.0, 1.0)
            prob = BvpProblem(a, b, PowerLaw(lam))
            sol = solve_n(prob, (0.9 * n_true, 1.4 * n_true), 1e-12)
            curve = PowerLawCurve(lam, sol.n, sol.phi0)
            psi_b = closed_form_reference.psi(curve, b.z)
            pts = [power_law_point(curve, float(s))
                   for s in np.linspace(-psi_b, psi_b, 2001)]
            xy = np.array([(p.z * math.sin(p.phi), p.z * math.cos(p.phi))
                           for p in pts])
            curve_value = functional_value(Polyline(xy), PowerLaw(lam))
            chord = np.linspace(xy[0], xy[-1], 2001)
            chord_value = functional_value(Polyline(chord), PowerLaw(lam))
            assert curve_value <= chord_value


class TestEdgeVariable:
    """solve_n on brackets that start at the span's square-root edge
    n_edge, where the turning radius reaches the nearer endpoint radius, or
    within 1 % above it: the search in u = sqrt(n - n_edge) near its own
    edge u = 0."""

    @staticmethod
    def closed_form(mpmath, lam, n, prob):
        """The span of v = z^lam at n and its slope dS/dn, at 40 digits,
        from each angle acos(1/(n*z^k))/k and its slope
        1/(k*n*sqrt((n*z^k)^2 - 1))."""
        with mpmath.workdps(40):
            k, n = mpmath.mpf(lam) + 1, mpmath.mpf(n)
            c = [n * mpmath.mpf(p.z) ** k for p in (prob.a, prob.b)]
            da, db = (mpmath.acos(1 / x) / k for x in c)
            sa, sb = (1 / (k * n * mpmath.sqrt(x * x - 1)) for x in c)
            if prob.same_branch:
                return float(abs(da - db)), float(abs(sa - sb))
            return float(da + db), float(sa + sb)

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(-1.0, 3.0, exclude_min=True),
           z_turn=st.floats(0.5, 2.0), s_near=st.floats(0.1, 0.85),
           s_far=st.floats(0.1, 0.85), same_branch=st.booleans(),
           gap=st.one_of(st.just(0.0), st.floats(0.0, 0.01)),
           s_hi=st.floats(0.0, 0.85),
           tol=st.sampled_from([0.0, 1e-12, 1e-10]))
    # at tol 0 two search points round to one n
    @example(lam=0.0, z_turn=1.0, s_near=0.25, s_far=0.125,
             same_branch=False, gap=0.0078125, s_hi=0.0, tol=0.0)
    def test_power_law_brackets_from_the_edge(self, lam, z_turn, s_near,
                                              s_far, same_branch, gap,
                                              s_hi, tol):
        mpmath = pytest.importorskip("mpmath")
        curve, a, b, n_edge, n_hi = self.points(lam, z_turn, s_near, s_far,
                                                same_branch, s_hi)
        # next to lam = -1, n_edge and n round together
        assume(n_edge < curve.n * (1.0 - 1e-8) and a != b)
        n_lo = min(n_edge * (1.0 + gap), 0.5 * (n_edge + curve.n))
        self.solve_and_check(mpmath, curve,
                             BvpProblem(a, b, PowerLaw(lam), same_branch),
                             (n_lo, n_hi), tol)

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(0.0, 3.0), z_turn=st.floats(0.5, 2.0),
           s_near=st.floats(0.1, 0.85), s_far=st.floats(0.1, 0.85),
           same_branch=st.booleans(), f=st.floats(0.0, 0.95),
           s_hi=st.floats(0.0, 0.85),
           tol=st.sampled_from([0.0, 1e-12, 1e-10]))
    # f*(lam + 1) > 1: the bracket starts further inside the turning circle
    # than 1e-12 of n, where the search once fell back to u = sqrt(n)
    @example(lam=2.0, z_turn=1.0, s_near=0.25, s_far=0.5, same_branch=True,
             f=0.9, s_hi=0.5, tol=1e-12)
    def test_power_law_brackets_inside_the_slack(self, lam, z_turn, s_near,
                                                 s_far, same_branch, f,
                                                 s_hi, tol):
        # the low end lies inside the turning circle of the nearer point
        # by up to 0.95e-12 of its radius, which integrate_phi's slack of
        # 1e-12 inside z* takes: n_lo = n_edge*(1 - f*(lam + 1)*1e-12)
        mpmath = pytest.importorskip("mpmath")
        curve, a, b, n_edge, n_hi = self.points(lam, z_turn, s_near, s_far,
                                                same_branch, s_hi)
        n_lo = n_edge * (1.0 - f * (lam + 1.0) * 1e-12)
        self.solve_and_check(mpmath, curve,
                             BvpProblem(a, b, PowerLaw(lam), same_branch),
                             (n_lo, n_hi), tol)

    @staticmethod
    def points(lam, z_turn, s_near, s_far, same_branch, s_hi):
        """(curve, a, b, n_edge, n_hi) for v = z^lam: a and b at auxiliary
        angles psi (n*z^k*cos(psi) = 1, k = lam + 1) up to top =
        min(pi/2, 2k), so each lies at most 2 rad from the turn as lam
        nears -1, with n = z_turn^-k near 1 there; n_edge = 1/(v*z) at the
        nearer radius z, and at n_hi the nearer point's psi is psi_far or
        more, up to top."""
        k = lam + 1.0
        top = min(0.5 * math.pi, 2.0 * k)
        psi_near = s_near * top
        psi_far = psi_near + s_far * (top - psi_near)
        curve = PowerLawCurve(lam, z_turn ** -k)
        a = power_law_point(curve, psi_near if same_branch else -psi_near)
        b = power_law_point(curve, psi_far)
        z_near = min(a.z, b.z)
        n_edge = 1.0 / (eval_v(PowerLaw(lam), z_near) * z_near)
        n_hi = n_edge / math.cos(psi_far + s_hi * (top - psi_far))
        return curve, a, b, n_edge, n_hi

    def solve_and_check(self, mpmath, curve, prob, n_bracket, tol):
        """solve_n on a bracket around the n of a power-law curve through
        prob's endpoints: no n is evaluated twice, and the closed-form span
        at the solved n meets the target, or a QuadratureFailure is one
        that tol 0's round-off floor or a collapse of the bracket
        explains."""
        qtol = min(1e-13, max(tol / 10.0, 1e-14))
        calls, failure = [], None

        def counted(prob, n, qtol, _f=bvp._branch_angles):
            calls.append(n)
            return _f(prob, n, qtol)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bvp, "_branch_angles", counted)
            try:
                sol = solve_n(prob, n_bracket, tol)
            except QuadratureFailure as exc:
                failure = str(exc)
        # no n evaluated twice, though two u can round to one n
        assert len(set(calls)) == len(calls)
        if failure:
            # tol 0 meets the spans' round-off floor, and where four ulps
            # of n move the span by more than tol no float n meets it
            slope = self.closed_form(mpmath, curve.lam, curve.n, prob)[1]
            assert (tol == 0.0 and "below the round-off floor" in failure
                    or failure.startswith("bracket collapsed")
                    and 4.0 * math.ulp(curve.n) * slope > max(tol, qtol))
            return
        assert sol.evaluations == len(calls)
        # the closed-form span at the solved n meets the target within the
        # stop's tol and the spans' quadrature tol, once for each angle
        span = self.closed_form(mpmath, curve.lam, sol.n, prob)[0]
        target = abs(prob.b.phi - prob.a.phi)
        assert abs(span - target) <= max(tol, qtol) + 2.0 * qtol
