import math
import re

import numpy as np
import pytest

from radial_extremals import (CartesianPoint, DomainError, ExtremalSpec,
                              NonMonotoneAbscissa, PowerLaw, PowerLawCurve,
                              beltrami_residual, clairaut_constant,
                              el_residual, eval_q, eval_v,
                              lagrangian_partials_cartesian, parse_weight,
                              power_law_point)


def curve_xy(lam, n, psi_values, phi0=0.0):
    c = PowerLawCurve(lam, n, phi0)
    pts = [power_law_point(c, float(p)) for p in psi_values]
    return np.array([(p.z * math.sin(p.phi), p.z * math.cos(p.phi))
                     for p in pts])


class TestLagrangianPartials:
    def test_constant_weight_flat_slope(self):
        parts = lagrangian_partials_cartesian(CartesianPoint(0.3, 0.8), 0.0,
                                              PowerLaw(0.0))
        assert (parts.V, parts.M, parts.N, parts.P) == (1.0, 0.0, 0.0, 0.0)

    def test_linear_weight_on_axis(self):
        parts = lagrangian_partials_cartesian(CartesianPoint(0.0, 2.0),
                                              math.sqrt(3.0), PowerLaw(1.0))
        assert parts.V == pytest.approx(4.0, rel=1e-15)
        assert parts.P == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def _fd_partials(self, pt, p, w, h=1e-6):
        def V(x, y, slope):
            z = math.hypot(x, y)
            return eval_v(w, z) * math.sqrt(1.0 + slope * slope)
        return ((V(pt.x + h, pt.y, p) - V(pt.x - h, pt.y, p)) / (2 * h),
                (V(pt.x, pt.y + h, p) - V(pt.x, pt.y - h, p)) / (2 * h),
                (V(pt.x, pt.y, p + h) - V(pt.x, pt.y, p - h)) / (2 * h))

    def test_partials_match_finite_differences_example(self):
        pt, p, w = CartesianPoint(3.0, 4.0), 1.0, PowerLaw(2.0)
        parts = lagrangian_partials_cartesian(pt, p, w)
        fd_m, fd_n, fd_p = self._fd_partials(pt, p, w)
        assert parts.M == pytest.approx(fd_m, rel=1e-6)
        assert parts.N == pytest.approx(fd_n, rel=1e-6)
        assert parts.P == pytest.approx(fd_p, rel=1e-6)

    def test_partials_match_finite_differences_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lam = float(rng.uniform(-2.0, 3.0))
            w = PowerLaw(lam)
            pt = CartesianPoint(float(rng.uniform(0.3, 3.0)),
                                float(rng.uniform(0.3, 3.0)))
            p = float(rng.uniform(-3.0, 3.0))
            parts = lagrangian_partials_cartesian(pt, p, w)
            for got, fd in zip((parts.M, parts.N, parts.P),
                               self._fd_partials(pt, p, w)):
                assert abs(got - fd) <= 1e-6 * (1.0 + abs(got))

    def test_radial_structure_nx_equals_my(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            pt = CartesianPoint(float(rng.uniform(-2, 2)),
                                float(rng.uniform(0.5, 2)))
            parts = lagrangian_partials_cartesian(
                pt, float(rng.uniform(-2, 2)), PowerLaw(1.5))
            assert abs(parts.N * pt.x - parts.M * pt.y) \
                <= 1e-15 * (1.0 + abs(parts.N * pt.x))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _scalar_clairaut(r, p, w):
    """clairaut_constant's scalar arithmetic, for reference."""
    v = eval_v(w, r)
    if math.isinf(p):
        return math.copysign(v * r, p)
    rp = p * r
    return v * r * rp / math.hypot(1.0, rp)


def _scalar_partials(x, y, p, w):
    """(V, M, N, P) by the scalar formulas, for reference."""
    z = math.hypot(x, y)
    v, q = eval_v(w, z), eval_q(w, z)
    root = math.sqrt(1.0 + p * p)
    return v * root, q * x * root / z, q * y * root / z, v * p / root


def _loop_residuals(pts, w):
    """el_residual and beltrami_residual from per-sample scalar partials
    and the same difference stencils, for reference."""
    x, y = pts[:, 0], pts[:, 1]
    p = np.gradient(y, x, edge_order=2)
    V, M, N, P = np.array([_scalar_partials(a, b, s, w) for a, b, s in
                           zip(x.tolist(), y.tolist(), p.tolist())]).T
    dx = np.empty_like(x)
    dx[1:-1] = 0.5 * (x[2:] - x[:-2])
    dx[0], dx[-1] = x[1] - x[0], x[-1] - x[-2]
    return ((N - np.gradient(P, x, edge_order=2)) * dx,
            (M - np.gradient(V - P * p, x, edge_order=2)) * dx)


class TestClairautConstant:
    @pytest.mark.parametrize("w", [PowerLaw(1.3), parse_weight("1/(1+z^2)")])
    def test_arrays_equal_scalar_calls_bit_for_bit(self, w):
        rng = np.random.default_rng(11)
        r = rng.uniform(0.3, 4.0, 200)
        p = rng.uniform(-50.0, 50.0, 200)
        p[:4] = [math.inf, -math.inf, 0.0, -0.0]
        got = clairaut_constant(r, p, w)
        want = [_scalar_clairaut(a, b, w)
                for a, b in zip(r.tolist(), p.tolist())]
        assert (_bits(got) == _bits(want)).all()
        assert got[0] > 0.0 > got[1]
        for a, b in zip(r[:8].tolist(), p[:8].tolist()):
            one = clairaut_constant(a, b, w)
            assert type(one) is float
            assert _bits(one) == _bits(_scalar_clairaut(a, b, w))
        # a scalar slope paired with each radius
        assert (_bits(clairaut_constant(r, math.inf, w))
                == _bits(clairaut_constant(r, np.full(200, math.inf), w))
                ).all()

    def test_radial_tangent_gives_zero(self):
        assert clairaut_constant(1.7, 0.0, PowerLaw(2.0)) == 0.0

    def test_perpendicular_limit(self):
        assert clairaut_constant(2.0, math.inf, PowerLaw(0.0)) == 2.0

    def test_turning_radius_value(self):
        for lam, n in ((0.0, 2.0), (1.0, 4.0), (0.5, 1.3), (2.0, 0.7)):
            spec = ExtremalSpec(PowerLaw(lam), n)
            got = clairaut_constant(spec.z_turn, math.inf, spec.weight)
            assert abs(got - 1.0 / n) <= 1e-10

    def test_angle_representation_agrees(self):
        rng = np.random.default_rng(5)
        w = parse_weight("1/(1+z^2)")
        for _ in range(100):
            r = float(rng.uniform(0.3, 4.0))
            p = float(rng.uniform(-50.0, 50.0))
            alpha = math.atan2(p * r, 1.0)
            a = clairaut_constant(r, p, w)
            b = eval_v(w, r) * r * math.sin(alpha)
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


class TestResiduals:
    def test_straight_line_is_extremal(self):
        xs = np.linspace(0.0, 1.0, 101)
        pts = np.column_stack([xs, np.full_like(xs, 0.5)])
        assert np.abs(el_residual(pts, PowerLaw(0.0))).max() <= 1e-12
        assert np.abs(beltrami_residual(pts, PowerLaw(0.0))).max() <= 1e-12

    def test_second_order_convergence_on_closed_form(self):
        w = PowerLaw(1.0)
        coarse = curve_xy(1.0, 1.0, np.linspace(0.2, 1.0, 33))
        fine = curve_xy(1.0, 1.0, np.linspace(0.2, 1.0, 65))
        for residual in (el_residual, beltrami_residual):
            r1 = np.abs(residual(coarse, w)[1:-1]).max()
            r2 = np.abs(residual(fine, w)[1:-1]).max()
            assert r1 / r2 >= 3.5

    def test_circle_arc_is_not_extremal(self):
        phis = np.linspace(-0.5, 0.5, 51)
        pts = np.column_stack([1.5 * np.sin(phis), 1.5 * np.cos(phis)])
        assert np.abs(el_residual(pts, PowerLaw(1.0))[1:-1]).max() > 1e-3

    def test_beltrami_combination_identity(self):
        # V - P*p equals v/sqrt(1+p^2) pointwise
        rng = np.random.default_rng(8)
        for _ in range(50):
            pt = CartesianPoint(float(rng.uniform(0.2, 2)),
                                float(rng.uniform(0.2, 2)))
            p = float(rng.uniform(-4, 4))
            w = PowerLaw(float(rng.uniform(-1, 2)))
            parts = lagrangian_partials_cartesian(pt, p, w)
            v = eval_v(w, math.hypot(pt.x, pt.y))
            expect = v / math.sqrt(1.0 + p * p)
            assert parts.V - parts.P * p == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("w", [PowerLaw(1.3), parse_weight("2.5*z^1.3")])
    def test_one_partials_function_keeps_the_bits(self, w):
        pts = curve_xy(1.3, 1.1, np.linspace(0.1, 1.2, 97))
        want_el, want_bel = _loop_residuals(pts, w)
        assert (_bits(el_residual(pts, w)) == _bits(want_el)).all()
        assert (_bits(beltrami_residual(pts, w)) == _bits(want_bel)).all()
        for x, y in pts[::8].tolist():
            got = lagrangian_partials_cartesian(CartesianPoint(x, y), 0.7, w)
            assert all(type(f) is float for f in
                       (got.V, got.M, got.N, got.P))
            assert (_bits([got.V, got.M, got.N, got.P])
                    == _bits(_scalar_partials(x, y, 0.7, w))).all()

    @pytest.mark.parametrize("w", [PowerLaw(1.3), parse_weight("2.5*z^1.3")])
    def test_array_input_matches_point_list(self, w):
        pts = curve_xy(1.3, 1.1, np.linspace(-1.2, 1.2, 401))
        as_tuples = [tuple(p) for p in pts.tolist()]
        for residual in (el_residual, beltrami_residual):
            got = residual(pts, w)
            assert got.tobytes() == residual(as_tuples, w).tobytes()

    def test_requires_monotone_abscissa(self):
        pts = np.array([[0.0, 1.0], [0.5, 1.0], [0.4, 1.0],
                        [0.8, 1.0], [1.0, 1.0]])
        with pytest.raises(NonMonotoneAbscissa):
            el_residual(pts, PowerLaw(0.0))

    def test_requires_five_samples(self):
        pts = np.array([[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            el_residual(pts, PowerLaw(0.0))

    @pytest.mark.parametrize("samples", [
        np.linspace(0.0, 1.0, 10), np.ones((6, 3)), [], [[0.0]] * 6,
        np.ones((2, 6, 2))], ids=["flat", "three-columns", "empty",
                                  "one-column", "stacked"])
    def test_requires_xy_rows(self, samples):
        shape = re.escape(str(np.shape(samples)))
        for residual in (el_residual, beltrami_residual):
            with pytest.raises(DomainError, match="^samples must be "
                               f"\\(x, y\\) rows, got shape {shape}$"):
                residual(samples, PowerLaw(0.0))


class TestReductionIdentities:
    """The substitution chain behind the reduced equation, checked on a
    closed-form curve with finite differences in the parameter."""

    def setup_method(self):
        self.lam, self.n = 2.0, 1.2
        self.psi = np.linspace(0.25, 1.05, 401)
        self.curve = PowerLawCurve(self.lam, self.n)
        pts = [power_law_point(self.curve, float(p)) for p in self.psi]
        self.phi = np.array([p.phi for p in pts])
        self.z = np.array([p.z for p in pts])
        self.x = self.z * np.sin(self.phi)
        self.y = self.z * np.cos(self.phi)

    def test_angular_reduction_identity(self):
        # y dx - x dy = v z dp / (q (1 + p^2)) along the extremal
        dx = np.gradient(self.x, self.psi, edge_order=2)
        dy = np.gradient(self.y, self.psi, edge_order=2)
        p = dy / dx
        dp = np.gradient(p, self.psi, edge_order=2)
        w = PowerLaw(self.lam)
        v = eval_v(w, self.z)
        q = eval_q(w, self.z)
        lhs = (self.y * dx - self.x * dy)[3:-3]
        rhs = (v * self.z * dp / (q * (1.0 + p * p)))[3:-3]
        assert np.abs(lhs / rhs - 1.0).max() <= 1e-5

    def test_slope_angle_decomposition(self):
        # tan(omega) = p with omega = arctan(t) - phi, t = (dz/dphi)/z
        dz = np.gradient(self.z, self.phi, edge_order=2)
        dx = np.gradient(self.x, self.phi, edge_order=2)
        dy = np.gradient(self.y, self.phi, edge_order=2)
        p = dy / dx
        t = dz / self.z
        omega = np.arctan(t) - self.phi
        inner = slice(3, -3)
        assert np.abs((np.tan(omega) - p) / p)[inner].max() <= 1e-5
