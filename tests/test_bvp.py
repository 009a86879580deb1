import math

import numpy as np
import pytest

from radial_extremals import bvp
from radial_extremals import (BvpProblem, ExtremalSpec, ForbiddenRegion,
                              NoBracket, PolarPoint, PowerLaw, PowerLawCurve,
                              Polyline, angular_span, functional_value,
                              integrate_phi, power_law_point, psi_from_z,
                              solve_n)


def endpoints_from_curve(lam, n, psi_a, psi_b, phi0=0.0):
    c = PowerLawCurve(lam, n, phi0)
    return power_law_point(c, psi_a), power_law_point(c, psi_b)


class TestAngularSpan:
    def test_constant_weight_symmetric(self):
        prob = BvpProblem(PolarPoint(-1.0, 1.0), PolarPoint(1.0, 1.0),
                          PowerLaw(0.0))
        got = angular_span(2.0, prob)
        assert got == pytest.approx(2.0 * math.atan(math.sqrt(3.0)),
                                    abs=1e-10)

    def test_same_branch_equal_radii(self):
        prob = BvpProblem(PolarPoint(0.2, 1.5), PolarPoint(0.9, 1.5),
                          PowerLaw(0.0), same_branch=True)
        assert angular_span(1.0, prob) == 0.0

    def test_linear_weight_vs_closed_form(self):
        n = 1.4
        a, b = endpoints_from_curve(1.0, n, -0.8, 0.8)
        prob = BvpProblem(a, b, PowerLaw(1.0))
        got = angular_span(n, prob)
        assert got == pytest.approx(0.8, abs=1e-10)  # 2 * (psi/2)

    def test_forbidden_when_turning_radius_exceeds_endpoint(self):
        prob = BvpProblem(PolarPoint(-0.5, 1.0), PolarPoint(0.5, 1.0),
                          PowerLaw(0.0))
        with pytest.raises(ForbiddenRegion):
            angular_span(0.5, prob)   # z* = 2 > 1


class TestSolveN:
    def test_constant_weight_line(self):
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        sol = solve_n(prob, 2.0 * math.pi / 3, (1.2, 3.5), 1e-12)
        assert sol.n == pytest.approx(2.0, abs=1e-8)
        assert sol.phi0 == pytest.approx(0.0, abs=1e-10)
        assert sol.z_turn == pytest.approx(0.5, rel=1e-8)

    def test_linear_weight_round_trip(self):
        n_true = 1.7
        a, b = endpoints_from_curve(1.0, n_true, -0.9, 0.9, phi0=0.25)
        prob = BvpProblem(a, b, PowerLaw(1.0))
        sol = solve_n(prob, abs(b.phi - a.phi), (1.2, 2.4), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-8)
        assert sol.phi0 == pytest.approx(0.25, abs=1e-8)

    def test_same_branch_round_trip(self):
        n_true = 1.3
        # the bracket's low end must keep the turning radius below both
        # endpoint radii: n_lo >= n_true * cos(psi_min)
        a, b = endpoints_from_curve(2.0, n_true, 0.5, 1.1, phi0=-0.4)
        prob = BvpProblem(a, b, PowerLaw(2.0), same_branch=True)
        sol = solve_n(prob, abs(b.phi - a.phi), (1.17, 1.9), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-8)
        assert sol.phi0 == pytest.approx(-0.4, abs=1e-8)

    def test_no_bracket(self):
        prob = BvpProblem(PolarPoint(-math.pi / 3, 1.0),
                          PolarPoint(math.pi / 3, 1.0), PowerLaw(0.0))
        with pytest.raises(NoBracket):
            solve_n(prob, 2.0 * math.pi / 3, (2.5, 3.5), 1e-12)

    def test_bracket_end_outside_endpoint_radius(self):
        # z*(0.5) = 0.5^(-1/2.3) = 1.35 lies outside both endpoint radii
        prob = BvpProblem(PolarPoint(-0.5, 1.3), PolarPoint(0.5, 1.3),
                          PowerLaw(1.3))
        with pytest.raises(NoBracket, match="invalid bracket end.* n = 0.5$"):
            solve_n(prob, 1.0, (0.5, 3.0), 1e-12)

    def test_span_evaluations_per_solve(self, monkeypatch):
        # first draw of the acceptance round trip (criterion 07)
        rng = np.random.default_rng(23)
        lam = float(rng.uniform(0.0, 3.0))
        n_true = float(rng.uniform(0.7, 2.2))
        phi0 = float(rng.uniform(-0.5, 0.5))
        psi_a = -float(rng.uniform(0.6, 1.3))
        psi_b = float(rng.uniform(0.6, 1.3))
        a, b = endpoints_from_curve(lam, n_true, psi_a, psi_b, phi0)
        calls = []

        def counted(n, prob, tol=1e-12):
            calls.append(n)
            return angular_span(n, prob, tol)
        monkeypatch.setattr(bvp, "angular_span", counted)
        sol = solve_n(BvpProblem(a, b, PowerLaw(lam)), abs(b.phi - a.phi),
                      (0.85 * n_true, 1.6 * n_true), 1e-12)
        assert sol.n == pytest.approx(n_true, rel=1e-7)
        assert len(calls) <= 12

    def test_root_pieces_reused(self, monkeypatch):
        # first draw of criterion 07: the returned n* is one of the span
        # evaluations, so its spec and angles are not built again
        rng = np.random.default_rng(23)
        lam = float(rng.uniform(0.0, 3.0))
        n_true = float(rng.uniform(0.7, 2.2))
        phi0 = float(rng.uniform(-0.5, 0.5))
        psi_a = -float(rng.uniform(0.6, 1.3))
        psi_b = float(rng.uniform(0.6, 1.3))
        a, b = endpoints_from_curve(lam, n_true, psi_a, psi_b, phi0)
        spans, specs = [], []

        def counted_span(n, prob, tol=1e-12):
            spans.append(n)
            return angular_span(n, prob, tol)

        def counted_spec(*args, **kwargs):
            specs.append(args)
            return ExtremalSpec(*args, **kwargs)
        monkeypatch.setattr(bvp, "angular_span", counted_span)
        monkeypatch.setattr(bvp, "ExtremalSpec", counted_spec)
        sol = solve_n(BvpProblem(a, b, PowerLaw(lam)), abs(b.phi - a.phi),
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
            sol = solve_n(prob, abs(b.phi - a.phi),
                          (0.85 * n_true, 1.6 * n_true), 1e-12)
            assert sol.n == pytest.approx(n_true, rel=1e-7)
            spec = ExtremalSpec(PowerLaw(lam), sol.n, phi0=sol.phi0)
            for pt in (a, b):
                off = integrate_phi(spec, spec.z_turn, pt.z, 1e-13)
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
            sol = solve_n(prob, abs(b.phi - a.phi),
                          (0.9 * n_true, 1.4 * n_true), 1e-12)
            curve = PowerLawCurve(lam, sol.n, sol.phi0)
            psi_b = psi_from_z(curve, b.z)
            pts = [power_law_point(curve, float(s))
                   for s in np.linspace(-psi_b, psi_b, 2001)]
            xy = np.array([(p.z * math.sin(p.phi), p.z * math.cos(p.phi))
                           for p in pts])
            curve_value = functional_value(Polyline(xy), PowerLaw(lam))
            chord = np.linspace(xy[0], xy[-1], 2001)
            chord_value = functional_value(Polyline(chord), PowerLaw(lam))
            assert curve_value <= chord_value
