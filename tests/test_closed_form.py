import math
import re

import numpy as np
import pytest

from radial_extremals import (DomainError, ExtremalSpec, PowerLaw,
                              PolarPoint, PowerLawCurve,
                              algebraic_relation_residual,
                              clairaut_constant, eval_v, integrate_phi,
                              log_spiral_point, power_law_point)

import closed_form_reference


def cartesian(pt):
    return np.array([pt.z * math.sin(pt.phi), pt.z * math.cos(pt.phi)])


class TestPowerLawPoint:
    def test_turning_point(self):
        pt = power_law_point(PowerLawCurve(0.0, 2.0), 0.0)
        assert (pt.phi, pt.z) == (0.0, 0.5)

    def test_line_case(self):
        pt = power_law_point(PowerLawCurve(0.0, 2.0), math.pi / 3)
        assert pt.phi == pytest.approx(math.pi / 3, rel=1e-15)
        assert pt.z == pytest.approx(1.0, rel=1e-15)
        assert pt.z * math.cos(pt.phi) == pytest.approx(0.5, rel=1e-14)

    def test_linear_weight_point_and_quadrature_cross_check(self):
        pt = power_law_point(PowerLawCurve(1.0, 1.0), math.pi / 3)
        assert pt.phi == pytest.approx(math.pi / 6, rel=1e-15)
        assert pt.z == pytest.approx(math.sqrt(2.0), rel=1e-15)
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        assert integrate_phi(spec, pt.z, 1e-12) == \
            pytest.approx(pt.phi, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            power_law_point(PowerLawCurve(1.0, 1.0), math.pi / 2)
        with pytest.raises(DomainError):
            PowerLawCurve(-1.0, 1.0)
        with pytest.raises(DomainError):
            PowerLawCurve(1.0, -2.0)

    def test_line_family_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = float(rng.uniform(0.5, 4.0))
            phi0 = float(rng.uniform(-1.0, 1.0))
            c = PowerLawCurve(0.0, n, phi0)
            for psi in np.linspace(-1.5, 1.5, 61):
                pt = power_law_point(c, float(psi))
                assert abs(pt.z * math.cos(pt.phi - phi0) - 1.0 / n) <= 1e-12

    def test_parameter_relation(self):
        # n^2 z^(2lam+2) = 1/cos(psi)^2 along every curve
        rng = np.random.default_rng(22)
        for lam in (0.0, 0.5, 1.0, 2.0, 3.0):
            n = float(rng.uniform(0.5, 4.0))
            c = PowerLawCurve(lam, n)
            for psi in np.linspace(-1.4, 1.4, 29):
                z = power_law_point(c, float(psi)).z
                lhs = n * n * z ** (2.0 * lam + 2.0) * math.cos(psi) ** 2
                assert abs(lhs - 1.0) <= 1e-12 * lhs + 1e-12

    def test_steep_decay_flips_to_maximum_radius(self):
        c = PowerLawCurve(-2.0, 1.5)
        assert c.z_turn == pytest.approx(1.5, rel=1e-15)
        z_in = power_law_point(c, 1.0).z
        assert z_in < c.z_turn
        assert closed_form_reference.psi(c, z_in) == \
            pytest.approx(1.0, rel=1e-12)
        for psi in np.linspace(-1.5, 1.5, 31):   # never outside z*
            assert power_law_point(c, float(psi)).z <= c.z_turn

    def test_clairaut_with_fd_tangents(self):
        # v*z*sin(alpha) = 1/n with alpha from Richardson-extrapolated
        # central-difference tangents
        rng = np.random.default_rng(23)
        h = 1e-4
        for lam in (0.0, 0.5, 1.0, 2.0, 3.0):
            n = float(rng.uniform(0.5, 4.0))
            c = PowerLawCurve(lam, n)
            w = PowerLaw(lam)
            for psi in np.linspace(-1.3, 1.3, 21):
                psi = float(psi)

                def tangent(step):
                    return (cartesian(power_law_point(c, psi + step))
                            - cartesian(power_law_point(c, psi - step))) \
                        / (2.0 * step)

                tan = (4.0 * tangent(h / 2) - tangent(h)) / 3.0
                pos = cartesian(power_law_point(c, psi))
                z = float(np.hypot(*pos))
                sin_alpha = abs(pos[0] * tan[1] - pos[1] * tan[0]) \
                    / (z * float(np.hypot(*tan)))
                got = eval_v(w, z) * z * sin_alpha
                assert abs(got - 1.0 / n) <= 1e-10


class TestLogSpiral:
    def test_circle_limit(self):
        for phi in (-2.0, 0.0, 1.0, 7.0):
            assert log_spiral_point(1.0, 2.0, phi).z == 2.0

    def test_growth_rate(self):
        pt = log_spiral_point(math.sqrt(2.0), 1.0, 1.0)
        assert pt.z == pytest.approx(math.e, rel=1e-14)

    def test_first_integral_along_spiral(self):
        n = math.sqrt(2.0)
        t = math.sqrt(n * n - 1.0)
        w = PowerLaw(-1.0)
        for phi in np.linspace(-1.0, 2.0, 31):
            pt = log_spiral_point(n, 1.0, float(phi))
            p = 1.0 / (t * pt.z)   # dtheta/dr on the spiral
            assert abs(clairaut_constant(pt.z, p, w) - 1.0 / n) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            log_spiral_point(0.9, 1.0, 0.0)
        with pytest.raises(DomainError):
            log_spiral_point(1.5, 0.0, 0.0)


class TestAlgebraicRelationResidual:
    def test_linear_weight_relation(self):
        c = PowerLawCurve(1.0, 1.3, phi0=0.2)
        for psi in np.linspace(-1.4, 1.4, 100):
            pt = power_law_point(c, float(psi))
            # z^2 cos(2(phi-phi0)) = 1/n restated via the residual
            assert abs(algebraic_relation_residual(c, pt)) <= 1e-10

    def test_half_integer_relation(self):
        c = PowerLawCurve(0.5, 0.8)
        for psi in np.linspace(-1.2, 1.2, 50):
            pt = power_law_point(c, float(psi))
            assert abs(algebraic_relation_residual(c, pt)) <= 1e-10


@pytest.mark.parametrize("make, args", [
    (PowerLawCurve, (math.nan, 1.0)), (PowerLawCurve, (math.inf, 1.0)),
    (PowerLawCurve, (1.0, math.nan)), (PowerLawCurve, (1.0, math.inf)),
    (PowerLawCurve, (1.0, 1.0, math.nan)),
    (PowerLawCurve, (1.0, 1.0, -math.inf)),
    (log_spiral_point, (math.nan, 1.0, 0.5)),
    (log_spiral_point, (math.inf, 1.0, 0.5)),
    (log_spiral_point, (2.0, math.inf, 0.5)),
    (log_spiral_point, (2.0, math.nan, 0.5)),
    (log_spiral_point, (2.0, 1.0, math.nan)),
    (log_spiral_point, (2.0, 1.0, math.inf))])
def test_non_finite_input_fails_fast(make, args):
    # before the check: a NaN lam gave PolarPoint(nan, nan), an infinite n
    # put the point on the pole, and log spirals returned z = nan or inf
    with pytest.raises(DomainError, match="must be finite"):
        make(*args)


@pytest.mark.parametrize("call, message", [
    (lambda: power_law_point(PowerLawCurve(-0.5, 1e-200), -1.0),
     "z at psi -1.0 = 5.4030230586813976e-201**-2.0 overflows a float"),
    (lambda: power_law_point(PowerLawCurve(1.0, 5e-324), 1.5),
     "z at psi 1.5 = 0.0**-0.5 overflows a float"),
    (lambda: PowerLawCurve(-1.5, 1e160).z_turn,
     "z_turn = 1e+160**2.0 overflows a float"),
    (lambda: algebraic_relation_residual(PowerLawCurve(1 / 3, 1e-300),
                                         PolarPoint(0.0, 1e300)),
     "z^(lam+1) = 1e+300**1.3333333333333333 overflows a float"),
    (lambda: log_spiral_point(800.0, 1.0, 1.0),
     "z0*exp(sqrt(n*n - 1)*phi) overflows a float at n 800.0, z0 1.0, "
     "phi 1.0"),
    (lambda: log_spiral_point(1e200, 1.0, 0.0),    # n*n overflows
     "z0*exp(sqrt(n*n - 1)*phi) overflows a float at n 1e+200, z0 1.0, "
     "phi 0.0"),
    (lambda: log_spiral_point(2.0, 1e300, 100.0),  # the product overflows
     "z0*exp(sqrt(n*n - 1)*phi) overflows a float at n 2.0, z0 1e+300, "
     "phi 100.0")])
def test_overflow_fails_fast(call, message):
    # each raised OverflowError or ZeroDivisionError, or returned inf or NaN
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_finite_results_near_overflow_keep_their_bits():
    curve = PowerLawCurve(-1.5, 1e150)
    assert curve.z_turn == 1e150 ** 2.0
    assert power_law_point(curve, 1.5).z == (1e150 * math.cos(1.5)) ** 2.0
    assert log_spiral_point(700.0, 1.0, 1.0).z == \
        math.exp(math.sqrt(700.0 * 700.0 - 1.0))
    assert log_spiral_point(1e200, 1.0, -1.0).z == 0.0
    c = PowerLawCurve(1.0, 1e-300)
    assert algebraic_relation_residual(c, PolarPoint(0.0, 1e154)) == \
        1e-300 * 1e154 ** 2.0 * math.cos(0.0) - 1.0
