import math
import re
import sys

import numpy as np
import pytest

from radial_extremals import bvp, reduced_ode, weights
from radial_extremals import (BvpProblem, DomainError, ExtremalSpec,
                              ForbiddenRegion, NoBracket, PolarPoint,
                              PowerLaw, PowerLawCurve, Polyline,
                              QuadratureFailure, functional_value,
                              integrate_phi, parse_weight, power_law_point,
                              solve_n)

import closed_form_reference


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
        with pytest.raises(DomainError, match="tol must lie"):
            span(2.0, prob, 1e-2)
        # tol is checked before the radii, as in integrate_phi
        with pytest.raises(DomainError, match="tol must lie"):
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
        assert sol.evaluations == len(calls) == 8
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
        assert len(spans) == 8 and finished == []

    @pytest.mark.parametrize("which", ["a", "b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_endpoint_radius(self, which, bad):
        points = {"a": PolarPoint(-0.5, 1.0), "b": PolarPoint(0.5, 2.0)}
        points[which] = PolarPoint(points[which].phi, bad)
        with pytest.raises(DomainError,
                           match=f"endpoint {which} radius must be finite"):
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
                           match=f"^endpoint {which} angle must be "
                                 f"finite, got {bad}$"):
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

    @pytest.mark.parametrize("n_bracket", [(2.0, 1.0), (0.0, 1.0),
                                           (-1.0, 2.0), (math.nan, 2.0),
                                           (1.2, 1.2)])
    def test_invalid_n_bracket_fails_before_any_span(self, monkeypatch,
                                                     n_bracket):
        spans = count_spans(monkeypatch)
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        lo, hi = map(float, n_bracket)
        with pytest.raises(NoBracket, match=re.escape(
                f"invalid n bracket [{lo}, {hi}]")):
            solve_n(prob, n_bracket, 1e-12)
        assert spans == []

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, -math.inf])
    def test_bad_tol_fails_before_any_span(self, monkeypatch, tol):
        spans = count_spans(monkeypatch)
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        with pytest.raises(DomainError,
                           match=f"^tol must be non-negative, got {tol}$"):
            solve_n(prob, (1.2, 3.5), tol)
        assert spans == []

    def test_zero_tol_runs_to_bracket_collapse(self):
        # on the curve n z^2 cos(2 phi) = 1 of v = z
        prob = BvpProblem(PolarPoint(-0.45, 1.3), PolarPoint(0.45, 1.3),
                          PowerLaw(1.0))
        sol = solve_n(prob, (0.9, 2.2), 0.0)
        assert sol.n == pytest.approx(1.0 / (1.3 ** 2 * math.cos(0.9)),
                                      rel=1e-12)

    def test_zero_tol_round_trips_solve_or_refuse(self):
        # criterion 07's draws at tol 0: the search runs until the bracket
        # collapses, and ends exactly on the target, or refuses with the
        # collapse residual, or meets the round-off floor on the way
        outcomes = {"exact": 0, "collapsed": 0, "floor": 0}
        for lam, n_true, prob in round_trip_draws():
            try:
                sol = solve_n(prob, (0.85 * n_true, 1.6 * n_true), 0.0)
            except QuadratureFailure as exc:
                collapsed = str(exc).startswith(
                    "bracket collapsed with span residual ")
                assert collapsed or "below the round-off floor" in str(exc)
                outcomes["collapsed" if collapsed else "floor"] += 1
                continue
            assert sol.residual == 0.0
            assert abs(sol.n - n_true) <= 1e-7 * n_true
            outcomes["exact"] += 1
        print(outcomes)
        assert min(outcomes.values()) > 0

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
        assert len(spans) == 8
        assert near_calls == [(6, 15), (3, 15)] + [(6, 15)] * 6

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
        assert len(spans) == 8
        # pieces per span: near ones (one shared by the endpoints beyond
        # the handoff), then far ones; three rows each
        pieces = [2, 3, 3, 2, 2, 2, 2, 2]
        assert calls["integrate"] == [(True, k) for k in pieces]
        assert calls["first panels"] == [3 * k for k in pieces]

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
