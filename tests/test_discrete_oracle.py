import math

import numpy as np
import pytest

from radial_extremals import (DomainError, DomainViolation, ExpressionWeight,
                              PowerLaw, PowerLawCurve, Polyline,
                              StalledDescent, discrete_oracle, eval_v, eval_vq,
                              functional_value, gradient, minimize,
                              parse_weight, power_law_point)
from radial_extremals.expressions import parse_expression


def chord(a, b, segments):
    ts = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return Polyline(np.array([a]) * (1.0 - ts) + np.array([b]) * ts)


def closed_form_polyline(lam, n, psi_lo, psi_hi, count):
    c = PowerLawCurve(lam, n)
    pts = [power_law_point(c, float(s))
           for s in np.linspace(psi_lo, psi_hi, count)]
    return Polyline(np.array([(p.z * math.sin(p.phi), p.z * math.cos(p.phi))
                              for p in pts]))


def random_polyline(rng, count=9):
    base = np.array([rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)])
    steps = rng.uniform(-0.15, 0.15, size=(count - 1, 2)) + [0.12, 0.0]
    return Polyline(np.vstack([base, base + np.cumsum(steps, axis=0)]))


class TestFunctional:
    def test_unit_segment_constant_weight(self):
        pl = chord((0.0, 0.5), (1.0, 0.5), 1)
        assert functional_value(pl, PowerLaw(0.0)) == 1.0

    def test_midpoint_rule_exact_for_linear_weight_on_ray(self):
        pl = Polyline([(0.0, 1.0), (0.0, 2.0)])
        assert functional_value(pl, PowerLaw(1.0)) == 1.5

    def test_second_order_refinement(self):
        # generic smooth curve and curved weight (the error coefficient of
        # the midpoint rule vanishes for special pairs like v=z on its own
        # extremal, so this uses a mismatched pair)
        w = PowerLaw(2.0)
        values = [functional_value(
            closed_form_polyline(1.0, 1.0, -1.0, 1.0, segs + 1), w)
            for segs in (100, 200, 400)]
        d1 = abs(values[0] - values[1])
        d2 = abs(values[1] - values[2])
        assert 3.3 <= d1 / d2 <= 4.7

    def test_rotation_invariance(self):
        rng = np.random.default_rng(17)
        pl = random_polyline(rng)
        w = parse_weight("1/(1+z^2)")
        base = functional_value(pl, w)
        for beta in (0.3, 1.2, -2.0):
            rot = np.array([[math.cos(beta), -math.sin(beta)],
                            [math.sin(beta), math.cos(beta)]])
            turned = Polyline(pl.vertices @ rot.T)
            assert functional_value(turned, w) == pytest.approx(base,
                                                                rel=1e-12)

    def test_polyline_validation(self):
        with pytest.raises(DomainError):
            Polyline([(0.0, 1.0)])
        with pytest.raises(DomainError):
            Polyline([(0.0, 1.0), (0.0, 1.0), (1.0, 1.0)])


class TestGradient:
    def test_collinear_chord_constant_weight(self):
        pl = chord((0.0, 0.5), (1.0, 0.5), 8)
        assert np.abs(gradient(pl, PowerLaw(0.0))).max() == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        pool = [PowerLaw(0.0), PowerLaw(1.0), PowerLaw(2.0), PowerLaw(-1.0),
                parse_weight("1/(1+z^2)"), parse_weight("exp(-z) + 1")]
        for trial in range(100):
            w = pool[trial % len(pool)]
            pl = random_polyline(rng)
            grad = gradient(pl, w)
            h = 1e-6
            for i in range(1, len(pl.vertices) - 1):
                for axis in range(2):
                    plus = pl.vertices.copy()
                    minus = pl.vertices.copy()
                    plus[i, axis] += h
                    minus[i, axis] -= h
                    fd = (functional_value(Polyline(plus), w)
                          - functional_value(Polyline(minus), w)) / (2 * h)
                    got = grad[i - 1, axis]
                    assert abs(got - fd) <= 1e-6 * (1.0 + abs(got))

    def test_symmetric_vertex_has_no_tangential_component(self):
        pl = Polyline([(-0.8, 1.1), (0.0, 1.4), (0.8, 1.1)])
        grad = gradient(pl, PowerLaw(2.0))
        assert abs(grad[0, 0]) <= 1e-14
        assert abs(grad[0, 1]) > 1e-3


class TestHessian:
    def test_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(43)
        pool = [PowerLaw(0.0), PowerLaw(1.0), PowerLaw(2.0), PowerLaw(-1.0),
                parse_weight("1/(1+z^2)"), parse_weight("exp(-z) + 1")]
        h = 1e-7
        for trial in range(60):
            w = pool[trial % len(pool)]
            pl = random_polyline(rng)
            hess = discrete_oracle._hessian(pl.vertices, w)
            fd = np.empty_like(hess)
            for k in range(len(hess)):
                plus = pl.vertices.copy()
                minus = pl.vertices.copy()
                plus[1 + k // 2, k % 2] += h
                minus[1 + k // 2, k % 2] -= h
                fd[:, k] = (gradient(Polyline(plus), w)
                            - gradient(Polyline(minus), w)).ravel() / (2 * h)
            assert np.abs(hess - fd).max() <= 1e-6 * np.abs(hess).max()
            assert np.array_equal(hess, hess.T)


class TestMinimize:
    def test_zigzag_converges_to_chord(self):
        xs = np.linspace(0.0, 1.0, 66)
        ys = np.full(66, 0.5)
        ys[1:-1] += 0.01 * np.where(np.arange(1, 65) % 2 == 0, 1.0, -1.0)
        out = minimize(Polyline(np.column_stack([xs, ys])), PowerLaw(0.0),
                       50000, 1e-7)
        assert np.abs(out.vertices[:, 1] - 0.5).max() <= 1e-6

    def test_value_never_increases_with_budget(self):
        pl = chord((-0.6, 1.2), (0.6, 1.2), 24)
        w = PowerLaw(1.0)
        values = [functional_value(minimize(pl, w, iters, 1e-11), w)
                  for iters in (1, 3, 10, 30, 100)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] <= functional_value(pl, w)

    def test_rotation_equivariance(self):
        w = PowerLaw(1.0)
        pl = chord((-0.5, 1.2), (0.5, 1.2), 12)
        out = minimize(pl, w, 30000, 1e-7)
        beta = 0.7
        rot = np.array([[math.cos(beta), -math.sin(beta)],
                        [math.sin(beta), math.cos(beta)]])
        turned = minimize(Polyline(pl.vertices @ rot.T), w, 30000, 1e-7)
        assert np.abs(turned.vertices - out.vertices @ rot.T).max() <= 1e-6

    def test_newton_work_at_200_segments(self, monkeypatch):
        # criterion 06's configuration; gradient descent needed about 110k
        # gradient evaluations here
        calls = []

        def counting_eval_vq(w, z):
            calls.append(z)
            return eval_vq(w, z)

        monkeypatch.setattr(discrete_oracle, "eval_vq", counting_eval_vq)
        w = PowerLaw(1.0)
        pl = closed_form_polyline(1.0, 1.0, -1.0, 1.0, 2)
        a, b = pl.vertices
        out = minimize(chord(a, b, 200), w, 200_000, 3e-7)
        assert len(calls) <= 100
        assert np.abs(gradient(out, w)).max() <= 3e-7

    def test_initial_polyline_outside_domain(self):
        w = ExpressionWeight(parse_expression("z"), domain_min=1.0)
        with pytest.raises(DomainViolation):
            minimize(chord((-0.5, 0.8), (0.5, 0.8), 8), w, 100, 1e-8)

    def test_descent_leaving_domain_is_reported(self):
        # v = z on z > 1: the extremal through these endpoints dips below
        # z = 1, so descent must cross the domain boundary
        w = ExpressionWeight(parse_expression("z"), domain_min=1.0)
        pl = chord((-0.9, 1.3), (0.9, 1.3), 32)
        with pytest.raises(DomainViolation):
            minimize(pl, w, 200000, 1e-10)

    def test_stalled_descent_at_machine_floor(self):
        w = PowerLaw(1.0)
        out = minimize(chord((-0.4, 1.1), (0.4, 1.1), 8), w, 100000, 1e-7)
        with pytest.raises(StalledDescent):
            minimize(out, w, 100000, 0.0)

    def test_discrete_conservation_along_minimizer(self):
        # v*z*sin(alpha) at segment midpoints stays constant to 5/N^2
        w = PowerLaw(1.0)
        segments = 48
        out = minimize(chord((-0.65, 1.19), (0.65, 1.19), segments), w,
                       100000, 1e-7)
        verts = out.vertices
        mid = 0.5 * (verts[1:] + verts[:-1])
        seg = verts[1:] - verts[:-1]
        z_mid = np.hypot(mid[:, 0], mid[:, 1])
        sin_alpha = np.abs(mid[:, 0] * seg[:, 1] - mid[:, 1] * seg[:, 0]) \
            / (z_mid * np.hypot(seg[:, 0], seg[:, 1]))
        momentum = eval_v(w, z_mid) * z_mid * sin_alpha
        assert (momentum.max() - momentum.min()) / momentum.mean() \
            <= 5.0 / segments ** 2
