import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_extremals import (DomainError, EvalError, ExtremalError,
                              ExtremalSpec, ForbiddenRegion, NoBracket,
                              PowerLaw,
                              PowerLawCurve, QuadratureFailure,
                              TangentialTurningPoint, dphi_dz,
                              eval_v, first_integral_deviation, integrate_phi,
                              parse_weight, psi_from_z, trace_extremal,
                              turning_radius)
from radial_extremals import reduced_ode
from radial_extremals.extremal_core import clairaut_constant
from radial_extremals.weights import RadialWeight

# independent 30-digit quadrature of dz/(z sqrt(n^2 z^{2l+2} - 1)) for
# lambda = 1/2, n = 1.3, from the turning radius to z = 2
_HALF_POWER_REFERENCE = 0.8635752013343474


class TestTurningRadius:
    def test_constant_weight(self):
        z = turning_radius(PowerLaw(0.0), 2.0, (0.1, 3.0))
        assert abs(2.0 * z - 1.0) <= 1e-13

    def test_linear_weight(self):
        z = turning_radius(PowerLaw(1.0), 4.0, (0.1, 3.0))
        assert abs(4.0 * z * z - 1.0) <= 1e-13

    def test_power_law_closed_form(self):
        for lam in (0.5, 2.0, 3.0):
            for n in (0.7, 1.9):
                z = turning_radius(PowerLaw(lam), n, (1e-3, 50.0))
                assert z == pytest.approx(n ** (-1.0 / (lam + 1.0)),
                                          rel=1e-12)
                assert abs(n * z ** (lam + 1.0) - 1.0) <= 1e-13

    def test_expression_weight(self):
        w = parse_weight("1/(1+z^2)")
        z = turning_radius(w, 3.0, (0.05, 0.9))
        assert abs(3.0 * eval_v(w, z) * z - 1.0) <= 1e-13

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            turning_radius(PowerLaw(1.0), 1.0, (2.0, 3.0))

    def test_decreasing_crossing_rejected(self):
        w = parse_weight("z^-2")  # n*v*z = n/z, decreasing
        with pytest.raises(DomainError):
            turning_radius(w, 1.0, (0.5, 2.0))


class TestExtremalSpec:
    def test_negative_n_normalized(self):
        spec = ExtremalSpec(PowerLaw(0.0), -2.0)
        assert spec.n == 2.0 and spec.orientation == -1

    def test_zero_n_rejected(self):
        with pytest.raises(DomainError):
            ExtremalSpec(PowerLaw(0.0), 0.0)

    def test_log_spiral_exponent_rejected(self):
        with pytest.raises(TangentialTurningPoint):
            ExtremalSpec(PowerLaw(-1.0), 1.5)

    def test_steep_decay_rejected(self):
        with pytest.raises(DomainError):
            ExtremalSpec(PowerLaw(-2.0), 1.5)

    def test_auto_bracket_for_expression(self):
        w = parse_weight("1/(1+z^2)")
        spec = ExtremalSpec(w, 3.0)
        assert abs(3.0 * eval_v(w, spec.z_turn) * spec.z_turn - 1.0) <= 1e-13

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_non_finite_n_rejected(self, n):
        with pytest.raises(DomainError, match="finite"):
            ExtremalSpec(parse_weight("1+z"), n)


def _scalar_scan(w, n):
    """Point-by-point form of the automatic bracket scan, for reference."""
    lo = max(w.domain_min, 0.0)
    prev = None
    for z in np.geomspace(max(lo * (1.0 + 1e-9), 1e-8), 1e8, 321):
        try:
            g = n * eval_v(w, float(z)) * float(z) - 1.0
        except ExtremalError:
            prev = None
            continue
        if prev is not None and prev[1] * g <= 0.0:
            return prev[0], float(z)
        prev = (float(z), g)
    return None


class TestAutoBracket:
    @pytest.mark.parametrize("text,n", [
        ("1/(1+z^2)", 3.0), ("log(z)", 1.0), ("z-1", 1.0),
        ("sqrt(z-1)", 0.5), ("2+sin(z)", 1.0), ("exp(z)", 1.0),
        ("1+z", 0.7), ("sqrt(1+z^3)", 1.2), ("z^2+1", 2.0)])
    def test_matches_scalar_scan(self, text, n):
        w = parse_weight(text)
        assert reduced_ode._auto_bracket(w, n) == _scalar_scan(w, n)

    @pytest.mark.parametrize("text", ["1/(z-2)", "exp(-z)"])
    def test_no_sign_change(self, text):
        w = parse_weight(text)
        assert _scalar_scan(w, 1.0) is None
        with pytest.raises(NoBracket):
            reduced_ode._auto_bracket(w, 1.0)


def _doubling_near_setup(spec):
    """The handoff as a point-by-point doubling scan, for reference."""
    w, n, zt = spec.weight, spec.n, spec.z_turn
    profile = reduced_ode._profile
    z_hi = z_prev = z_before = zt
    g_prev = 0.0
    step = max(1e-6 * zt, 1e-12)
    for _ in range(200):
        z_hi = zt + step
        g = profile(w, n, z_hi)
        if g >= reduced_ode._G_HANDOFF:
            break
        if g <= g_prev and z_prev > zt:
            if reduced_ode._profile_slope(w, n, z_prev) <= 0.0 \
                    and z_before > zt:
                z_prev = z_before
            z_hi = z_prev
            break
        if step > 1e7 * max(1.0, zt):
            break
        z_before, z_prev, g_prev = z_prev, z_hi, g
        step *= 2.0
    frac = np.linspace(0.0, 1.0, reduced_ode._TABLE_SIZE + 1) ** 2
    z_tab = zt + (z_hi - zt) * frac
    w_tab = np.sqrt(np.maximum(profile(w, n, z_tab), 0.0))
    w_tab[0] = 0.0
    rising = np.diff(w_tab) > 0.0
    if not rising.all():
        cut = int(np.argmin(rising)) + 1
        z_tab, w_tab = z_tab[:cut + 1], w_tab[:cut + 1]
        z_hi = float(z_tab[-1])
    return z_hi, float(w_tab[-1]), w_tab.tolist(), z_tab.tolist()


class _EdgeWeight(RadialWeight):
    """v = z up to z = edge, undefined beyond it."""

    def __init__(self, edge):
        self.edge = edge

    def _raw_v(self, z):
        return np.where(z <= self.edge, z, np.nan)

    def _raw_q(self, z):
        return np.ones_like(z)

    def text(self):
        return f"z up to {self.edge}"


class TestHandoffLadder:
    @pytest.mark.parametrize("weight,n", [
        (parse_weight("1/(1+z^2)"), 3.0),     # g peaks at the handoff value
        (parse_weight("1.4/z-1/(z*(1+z))"), 1.0),   # g rises to 0.4: cap
        (parse_weight("exp(z)"), 1.0),
        (parse_weight("2+sin(z)"), 1.0),
        (parse_weight("sqrt(1+z^3)"), 1.2),
        (PowerLaw(1.0), 1e12),                # z* = 1e-6
        (PowerLaw(0.0), 0.9e6),               # z* just above 1e-6
        (PowerLaw(1.0), 1e-12),               # z* = 1e6
        (PowerLaw(2.0), 1e-18)])              # z* = 1e6
    def test_matches_doubling_scan(self, weight, n):
        spec = ExtremalSpec(weight, n)
        z_hi, w_hi, w_tab, z_tab = spec._near_setup()
        assert (z_hi, w_hi, w_tab.tolist(), z_tab.tolist()) == \
            _doubling_near_setup(spec)

    def test_domain_edge_ends_the_ladder(self):
        # the scan steps past sqrt(2), where the weight is undefined; the
        # handoff is the last rung on which g still rises
        spec = ExtremalSpec(parse_weight("sqrt(2-z^2)"), 1.5)
        with pytest.raises(EvalError):
            _doubling_near_setup(spec)
        z_hi, w_hi, w_tab, z_tab = spec._near_setup()
        assert spec.z_turn < z_hi < 1.0     # g peaks at z = 1
        assert len(w_tab) == len(z_tab) == reduced_ode._TABLE_SIZE + 1
        assert (np.diff(w_tab) > 0.0).all() and w_hi == w_tab[-1]

    def test_invalid_first_rung_raises_the_weight_error(self):
        spec = ExtremalSpec(_EdgeWeight(1.0 + 1e-7), 1.0,
                            turn_bracket=(0.5, 1.0 + 5e-8))
        with pytest.raises(EvalError, match="not finite"):
            spec._near_setup()


class TestDphiDz:
    def test_constant_weight_value(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        assert dphi_dz(math.sqrt(2.0), spec) == \
            pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_linear_weight_value(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        assert dphi_dz(math.sqrt(2.0), spec) == \
            pytest.approx(1.0 / math.sqrt(6.0), rel=1e-14)

    def test_forbidden_just_inside(self):
        spec = ExtremalSpec(PowerLaw(0.5), 1.3)
        with pytest.raises(ForbiddenRegion):
            dphi_dz(spec.z_turn * (1.0 - 1e-9), spec)

    def test_error_flag_exactness(self):
        spec = ExtremalSpec(PowerLaw(0.5), 1.3)
        for z in np.linspace(0.2, 2.5, 197):
            z = float(z)
            inside = spec.n * eval_v(spec.weight, z) * z <= 1.0
            if inside:
                with pytest.raises(ForbiddenRegion):
                    dphi_dz(z, spec)
            else:
                assert dphi_dz(z, spec) > 0.0


class TestIntegratePhi:
    def test_constant_weight_arctan(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        got = integrate_phi(spec, 1.0, 2.0, 1e-12)
        assert got == pytest.approx(math.atan(math.sqrt(3.0)), abs=1e-12)

    def test_linear_weight_sixth_pi(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        got = integrate_phi(spec, 1.0, math.sqrt(2.0), 1e-12)
        assert got == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_half_power_against_reference(self):
        spec = ExtremalSpec(PowerLaw(0.5), 1.3)
        got = integrate_phi(spec, spec.z_turn, 2.0, 1e-12)
        assert got == pytest.approx(_HALF_POWER_REFERENCE, abs=1e-12)

    def test_empty_interval(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        assert integrate_phi(spec, 1.7, 1.7, 1e-12) == 0.0

    def test_signed_and_monotone_in_upper_limit(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        values = [integrate_phi(spec, 1.0, z, 1e-12)
                  for z in (1.0, 1.2, 1.7, 2.5, 4.0)]
        assert values[0] == 0.0
        assert all(b > a for a, b in zip(values, values[1:]))
        assert integrate_phi(spec, 2.5, 1.2, 1e-12) == \
            pytest.approx(values[1] - values[3], abs=1e-12)

    def test_forbidden_region(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        with pytest.raises(ForbiddenRegion):
            integrate_phi(spec, 0.5, 2.0, 1e-12)

    def test_tolerance_validated(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        with pytest.raises(DomainError, match="tol"):
            integrate_phi(spec, 1.0, 2.0, 1e-2)

    def test_agreement_with_closed_form_within_ten_tol(self):
        tol = 1e-12
        for lam, n in ((0.5, 0.7), (2.0, 1.9), (3.0, 2.5)):
            spec = ExtremalSpec(PowerLaw(lam), n)
            curve = PowerLawCurve(lam, n)
            for psi in (0.3, 0.9, 1.35):
                z = (n * math.cos(psi)) ** (-1.0 / (lam + 1.0))
                got = integrate_phi(spec, spec.z_turn, z, tol)
                assert abs(got - psi / (lam + 1.0)) <= 10.0 * tol
                assert psi_from_z(curve, z) == pytest.approx(psi, rel=1e-12)

    def test_profile_peaking_below_handoff_against_mpmath(self):
        # for 1/(1+z^2) at n = 3, g = n*v*z - 1 peaks at 0.5 at z = 1 and
        # never passes the near/far handoff value; the near region must
        # still end where g rises
        mpmath = pytest.importorskip("mpmath")
        spec = ExtremalSpec(parse_weight("1/(1+z^2)"), 3.0)

        def dphi(z):
            return 1 / (z * mpmath.sqrt((3 * z / (1 + z * z)) ** 2 - 1))

        with mpmath.workdps(30):
            z_turn = (3 - mpmath.sqrt(5)) / 2
            for z in (0.67, 0.77, 0.9):
                ref = mpmath.quad(dphi, [z_turn, z])
                got = integrate_phi(spec, spec.z_turn, z, 1e-12)
                assert abs(got - ref) <= 1e-10 * ref


class TestLuneburgLens:
    """v = sqrt(2 - z^2) at n = 1.5: the rays are ellipses centred on the
    pole, between z* = sqrt(1 - sqrt(5)/3) and z2 = sqrt(1 + sqrt(5)/3)."""

    @staticmethod
    def _spec():
        return ExtremalSpec(parse_weight("sqrt(2-z^2)"), 1.5)

    def test_trace_lies_on_a_centred_ellipse(self):
        tr = trace_extremal(self._spec(), 1.3, 50)
        m = np.column_stack((tr.x * tr.x, tr.x * tr.y, tr.y * tr.y))
        coef = np.linalg.lstsq(m, np.ones(len(tr.x)), rcond=None)[0]
        assert np.abs(m @ coef - 1.0).max() <= 1e-12

    def test_integrate_phi_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        spec = self._spec()

        def dphi(z):
            nvz = mpmath.mpf(3) / 2 * z * mpmath.sqrt(2 - z * z)
            return 1 / (z * mpmath.sqrt(nvz * nvz - 1))

        with mpmath.workdps(40):
            z_turn = mpmath.sqrt(1 - mpmath.sqrt(5) / 3)
            for z in (0.6, 0.8, 1.0, 1.2, 1.3):
                ref = mpmath.quad(dphi, [z_turn, mpmath.mpf(z)])
                got = integrate_phi(spec, spec.z_turn, z, 1e-12)
                assert abs(got - ref) <= 1e-12

    def test_past_the_apocentre_is_forbidden(self):
        with pytest.raises(ForbiddenRegion):
            trace_extremal(self._spec(), 1.4, 50)


class TestTrace:
    def test_straight_line_oracle(self):
        spec = ExtremalSpec(PowerLaw(0.0), 2.0)
        tr = trace_extremal(spec, 2.0, 200)
        assert np.abs(tr.y - 0.5).max() <= 1e-8

    def test_row_count_and_shared_turning_sample(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        tr = trace_extremal(spec, 3.0, 200)
        assert len(tr.phi) == len(tr.z) == 399
        assert tr.z[199] == tr.z_turn and tr.phi[199] == spec.phi0

    def test_mirror_symmetry(self):
        spec = ExtremalSpec(PowerLaw(2.0), 1.3, phi0=0.4)
        tr = trace_extremal(spec, 2.5, 101)
        left, right = slice(99, None, -1), slice(101, None)
        assert tr.z[left] == pytest.approx(tr.z[right], abs=1e-8)
        assert (tr.phi[right] - spec.phi0) == \
            pytest.approx(spec.phi0 - tr.phi[left], abs=1e-12)

    def test_phi_monotone_and_orientation_flip(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        tr = trace_extremal(spec, 2.0, 50)
        assert (np.diff(tr.phi) > 0.0).all()
        flipped = trace_extremal(ExtremalSpec(PowerLaw(1.0), 1.0,
                                              orientation=-1), 2.0, 50)
        assert (np.diff(flipped.phi) < 0.0).all()
        assert flipped.phi.tolist() == (-tr.phi).tolist()

    def test_clairaut_deviation_along_trace(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        tr = trace_extremal(spec, 3.0, 200)
        assert max(tr.clairaut_deviation) <= 1e-8

    def test_slope_consistency_with_first_integral(self):
        # t = (dz/dphi)/z from differences satisfies v*z = sqrt(1+t^2)/n;
        # the 1e-6 gate needs a dense grid for the second-order differences
        spec = ExtremalSpec(PowerLaw(2.0), 1.1)
        count = 2400
        tr = trace_extremal(spec, 1.6 * spec.z_turn, count)
        zs = tr.z[count - 1:]
        phis = tr.phi[count - 1:]
        t = np.gradient(zs, phis, edge_order=2) / zs
        lhs = eval_v(spec.weight, zs) * zs
        rhs = np.sqrt(1.0 + t * t) / spec.n
        keep = (zs > spec.z_turn * 1.15) & (zs < spec.z_turn * 1.55)
        assert np.abs((lhs - rhs) / lhs)[keep].max() <= 1e-6

    def test_uniform_phi_grid(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        tr = trace_extremal(spec, 3.0, 60, grid="uniform-phi")
        gaps = np.diff(tr.phi)
        assert gaps.max() - gaps.min() <= 1e-10
        assert max(tr.clairaut_deviation) <= 1e-8
        assert tr.z[0] == pytest.approx(3.0) and tr.z[-1] == \
            pytest.approx(3.0)

    def test_domain_validation(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        with pytest.raises(DomainError):
            trace_extremal(spec, 0.9, 50)
        with pytest.raises(DomainError):
            trace_extremal(spec, 2.0, 2)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_tolerance_validated_before_quadrature(self, tol, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")
        # tracing enters quadrature through the batched panels and the
        # adaptive core
        for name in ("integrate", "_integrate", "kronrod_panels"):
            monkeypatch.setattr(reduced_ode.quadrature, name, no_quadrature)
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        with pytest.raises(DomainError, match="tol"):
            trace_extremal(spec, 3.0, 50, tol=tol)

    def test_round_off_limited_tolerance_fails_fast(self, monkeypatch):
        # the long intervals of a 3-sample grid cannot meet tol 1e-14 / 2
        calls = []
        integrand = reduced_ode._far_integrand

        def counted(spec):
            f = integrand(spec)

            def g(z):
                calls.append(1)
                return f(z)
            return g

        monkeypatch.setattr(reduced_ode, "_far_integrand", counted)
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        with pytest.raises(QuadratureFailure, match="round-off"):
            trace_extremal(spec, 3.0, 3, tol=1e-14)
        assert 0 < len(calls) <= 10    # not the 10k-panel budget

    def test_deviation_helper_at_turning_radius(self):
        spec = ExtremalSpec(PowerLaw(1.0), 2.0)
        assert first_integral_deviation(spec.weight, spec.n,
                                        spec.z_turn) <= 1e-10


class TestTraceArrays:
    @settings(max_examples=60, deadline=None)
    @given(lam=st.integers(0, 30).map(lambda k: k / 10),
           n=st.floats(0.7, 2.2),
           stretch=st.floats(1.05, 2.0),
           count=st.integers(3, 40),
           phi0=st.floats(-1.0, 1.0))
    def test_samples_lie_on_the_closed_form(self, lam, n, stretch, count,
                                            phi0):
        spec = ExtremalSpec(PowerLaw(lam), n, phi0=phi0)
        tr = trace_extremal(spec, stretch * spec.z_turn, count)
        assert len(tr.phi) == len(tr.z) == len(tr.clairaut_deviation) \
            == 2 * count - 1
        phi, z = tr.phi.tolist(), tr.z.tolist()
        # psi_from_z is ill-conditioned at z* itself (sqrt of a rounding
        # error, ~1e-8), so the shared turning sample is checked exactly
        turn = count - 1
        assert z[turn] == spec.z_turn and phi[turn] == phi0
        curve = PowerLawCurve(lam, n)
        for k in range(len(z)):
            if k != turn:
                assert abs(abs(phi[k] - phi0) - psi_from_z(curve, z[k])
                           / (lam + 1.0)) <= 1e-10
        assert tr.x.tolist() == [r * math.sin(a) for a, r in zip(phi, z)]
        assert tr.y.tolist() == [r * math.cos(a) for a, r in zip(phi, z)]


def _one_increment(spec, z_a, z_b, tol):
    """_increments on the single interval [z_a, z_b]."""
    inc, _, _ = reduced_ode._increments(spec, np.array([z_a]),
                                        np.array([z_b]), tol)
    return float(inc[0])


def _scalar_cumulative_phi(spec, z_grid, tol):
    """The grid loop of one single-interval call per interval, for
    reference."""
    panel_tol = max(tol / max(len(z_grid) - 1, 1), 1e-16)
    phi = np.empty_like(z_grid)
    phi[0] = 0.0
    for k in range(len(z_grid) - 1):
        phi[k + 1] = phi[k] + _one_increment(
            spec, float(z_grid[k]), float(z_grid[k + 1]), panel_tol)
    return phi


def _scalar_uniform_radii(spec, z_max, count, tol):
    """Sample-by-sample Newton passes of the uniform-phi grid."""
    dense_z = reduced_ode._cosine_z_grid(spec, z_max, max(8 * count, 512) + 1)
    dense_phi = _scalar_cumulative_phi(spec, dense_z, tol)
    targets = np.linspace(0.0, dense_phi[-1], count)
    s_out = np.interp(targets, dense_phi, np.sqrt(dense_z - spec.z_turn))
    zs = spec.z_turn + s_out * s_out
    for j in range(1, count - 1):
        z = float(zs[j])
        i0 = max(int(np.searchsorted(dense_phi, targets[j])) - 1, 0)
        base_z, base_phi = float(dense_z[i0]), float(dense_phi[i0])
        for _ in range(2):
            local = (_one_increment(spec, base_z, z, 1e-15) if z >= base_z
                     else -_one_increment(spec, z, base_z, 1e-15))
            z -= (base_phi + local - targets[j]) / dphi_dz(z, spec)
            z = max(z, spec.z_turn * (1.0 + 1e-15))
        zs[j] = z
    zs[0] = spec.z_turn
    zs[-1] = z_max
    return zs


def _scalar_deviation(w, n, z):
    """first_integral_deviation through extremal_core.clairaut_constant."""
    wz = n * eval_v(w, z) * z
    rad = (wz - 1.0) * (wz + 1.0)
    p = math.inf if rad <= 0.0 else 1.0 / (z * math.sqrt(rad))
    return abs(n * clairaut_constant(z, p, w) - 1.0)


# (weight, n, z_max / z_turn or absolute z_max, samples, tol)
_BATCH_CASES = {
    "lambda 0": (PowerLaw(0.0), 1.7, ("rel", 3.0), 200, 1e-12),
    "lambda 1": (PowerLaw(1.0), 1.0, ("rel", 3.0), 400, 1e-12),
    "lambda 1.3": (PowerLaw(1.3), 0.9, ("rel", 2.5), 150, 1e-12),
    "2.5*z^1.3": (parse_weight("2.5*z^1.3"), 1.1, ("rel", 3.5), 120, 1e-12),
    "plateau handoff": (parse_weight("1/(1+z^2)"), 3.0, ("abs", 0.9), 100,
                        1e-12),
    "five samples": (parse_weight("1/(1+z^2)"), 3.0, ("abs", 0.9), 5,
                     1e-12),
    "five samples, wide": (PowerLaw(1.3), 0.9, ("rel", 10.0), 5, 1e-12),
}


class TestBatchedTracing:
    """The batched grid quadrature equals the interval-by-interval loop."""

    @staticmethod
    def _setup(case):
        w, n, (kind, zm), count, tol = _BATCH_CASES[case]
        spec = ExtremalSpec(w, n)
        z_max = zm * spec.z_turn if kind == "rel" else zm
        return spec, z_max, count, tol

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        core = reduced_ode.quadrature._refine

        def counting(*args):
            calls.append(args[1:3])
            return core(*args)
        monkeypatch.setattr(reduced_ode.quadrature, "_refine", counting)
        return calls

    @pytest.fixture
    def panel_log(self, monkeypatch):
        """(integrand, a, b) of every Kronrod panel evaluated."""
        log = []
        one, many = (reduced_ode.quadrature.kronrod_panel,
                     reduced_ode.quadrature.kronrod_panels)

        def panel(f, a, b):
            log.append((f, float(a), float(b)))
            return one(f, a, b)

        def panels(f, a, b):
            log.extend((f, x, y) for x, y in
                       zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
            return many(f, a, b)
        monkeypatch.setattr(reduced_ode.quadrature, "kronrod_panel", panel)
        monkeypatch.setattr(reduced_ode.quadrature, "kronrod_panels", panels)
        return log

    @pytest.mark.parametrize("case", _BATCH_CASES)
    def test_cumulative_phi_equals_scalar_loop(self, case):
        spec, z_max, count, tol = self._setup(case)
        zs = reduced_ode._cosine_z_grid(spec, z_max, count)
        phi, err, panels = reduced_ode._cumulative_phi(spec, zs, tol)
        assert phi.tolist() == _scalar_cumulative_phi(spec, zs, tol).tolist()
        assert panels >= count - 1
        assert 0.0 < err <= tol

    @pytest.mark.parametrize("case", _BATCH_CASES)
    def test_uniform_phi_radii_equal_scalar_loop(self, case):
        spec, z_max, count, tol = self._setup(case)
        count = min(count, 60)
        zs, _, _, _ = reduced_ode._uniform_phi_grid(spec, z_max, count, tol)
        assert zs.tolist() == \
            _scalar_uniform_radii(spec, z_max, count, tol).tolist()

    @pytest.mark.parametrize("case", _BATCH_CASES)
    def test_deviations_equal_scalar_formula(self, case):
        spec, z_max, count, tol = self._setup(case)
        tr = trace_extremal(spec, z_max, count, tol=tol)
        ref = [_scalar_deviation(spec.weight, spec.n, z)
               for z in tr.z.tolist()]
        assert tr.clairaut_deviation.tolist() == ref
        assert first_integral_deviation(spec.weight, spec.n, z_max) == \
            _scalar_deviation(spec.weight, spec.n, z_max)

    def test_cases_cover_fallback_and_straddle(self, fallbacks):
        straddles = 0
        for case in _BATCH_CASES:
            spec, z_max, count, tol = self._setup(case)
            zs = reduced_ode._cosine_z_grid(spec, z_max, count)
            z_split = spec._near_setup()[0]
            straddles += int(np.sum((zs[:-1] < z_split) & (zs[1:] > z_split)))
            reduced_ode._cumulative_phi(spec, zs, tol)
        assert straddles >= 1
        # each straddling interval makes two refinement calls; any others
        # are panels whose batched estimate missed the tolerance
        assert len(fallbacks) > 2 * straddles

    @pytest.mark.parametrize("case,integral_panels", [
        ("five samples, wide", 18), ("five samples", 12)])
    def test_no_panel_evaluated_twice(self, case, integral_panels,
                                      panel_log):
        # these grids have batched first panels that miss tol; refinement
        # starts from them instead of evaluating them again
        spec, z_max, count, tol = self._setup(case)
        zs = reduced_ode._cosine_z_grid(spec, z_max, count)
        reduced_ode._cumulative_phi(spec, zs, tol)
        assert len(panel_log) > count - 1
        assert len(set(panel_log)) == len(panel_log)
        panel_log.clear()
        integrate_phi(spec, spec.z_turn, z_max, 1e-13)
        assert len(set(panel_log)) == len(panel_log) == integral_panels

    def test_trace_reports_panels_and_estimate(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        tr = trace_extremal(spec, 3.0, 200, tol=1e-10)
        assert tr.panels >= 199
        assert 0.0 < tr.error_estimate <= 1e-10
        uni = trace_extremal(spec, 3.0, 60, tol=1e-10, grid="uniform-phi")
        assert uni.panels > 8 * 60
        assert uni.error_estimate > 0.0
