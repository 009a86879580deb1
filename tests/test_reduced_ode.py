import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radial_extremals import (DomainError, EvalError, ExtremalError,
                              ExtremalSpec, ForbiddenRegion, NoBracket,
                              PowerLaw,
                              PowerLawCurve, QuadratureFailure,
                              TangentialTurningPoint, dphi_dz, eval_q,
                              eval_v, first_integral_deviation, integrate_phi,
                              parse_weight, trace_extremal, turning_radius)
from radial_extremals import reduced_ode
from radial_extremals.extremal_core import clairaut_constant
from radial_extremals.quadrature import _NODES
from radial_extremals.weights import ExpressionWeight, RadialWeight

import closed_form_reference
import collocation_reference

# independent 30-digit quadrature of dz/(z sqrt(n^2 z^{2l+2} - 1)) for
# lambda = 1/2, n = 1.3, from the turning radius to z = 2
_HALF_POWER_REFERENCE = 0.8635752013343474


class TestTurningRadius:
    # an ExpressionWeight of a power law takes the root search, a PowerLaw
    # the closed form
    def test_constant_weight(self):
        z = turning_radius(ExpressionWeight("1"), 2.0)
        assert abs(2.0 * z - 1.0) <= 1e-13

    def test_linear_weight(self):
        z = turning_radius(ExpressionWeight("z"), 4.0)
        assert abs(4.0 * z * z - 1.0) <= 1e-13

    def test_power_law_closed_form(self):
        for lam in (0.5, 2.0, 3.0):
            for n in (0.7, 1.9):
                z = turning_radius(ExpressionWeight(f"z^{lam}"), n)
                assert z == pytest.approx(turning_radius(PowerLaw(lam), n),
                                          rel=1e-12)
                assert abs(n * z ** (lam + 1.0) - 1.0) <= 1e-13

    def test_expression_weight(self):
        w = parse_weight("1/(1+z^2)")
        z = turning_radius(w, 3.0)
        assert abs(3.0 * eval_v(w, z) * z - 1.0) <= 1e-13

    def test_no_bracket(self):
        # exp(-z)*z peaks at 1/e, so g < 0 on the whole scan grid
        with pytest.raises(NoBracket, match="^no sign change of n"):
            turning_radius(parse_weight("exp(-z)"), 1.0)

    def test_decreasing_crossing_rejected(self):
        w = ExpressionWeight("z^-2")  # n*v*z = n/z, decreasing
        with pytest.raises(DomainError, match="crosses 1 from above"):
            turning_radius(w, 1.0)

    def test_power_law_without_bracket_is_the_closed_form(self):
        for lam in (-0.5, 0.0, 0.5, 1.0, 1.3, 3.0):
            for n in (0.7, 1.9, 1e-20):
                assert turning_radius(PowerLaw(lam), n) == \
                    n ** (-1.0 / (lam + 1.0))

    @pytest.mark.parametrize("lam, error, message", [
        (-1.0, TangentialTurningPoint,
         "v = 1/z makes n*v*z constant (no transversal turning point); "
         "use closed_form.log_spiral_point"),
        (-2.0, DomainError,
         "for exponents below -1 the turning radius is a maximum radius; "
         "quadrature tracing covers increasing crossings only (closed_form "
         "handles these curves)")])
    def test_power_law_refusals(self, lam, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            turning_radius(PowerLaw(lam), 1.5)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ExtremalSpec(PowerLaw(lam), 1.5)

    @pytest.mark.parametrize("n", [-2.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("weight", [PowerLaw(1.0), parse_weight("1+z")])
    def test_n_must_be_finite_and_positive(self, weight, n):
        with pytest.raises(DomainError, match="needs a finite n > 0"):
            turning_radius(weight, n)

    def test_expression_weight_without_bracket_scans(self):
        w = parse_weight("1/(1+z^2)")
        lo, hi = reduced_ode._auto_bracket(w, 3.0)
        assert lo <= turning_radius(w, 3.0) <= hi

    @pytest.mark.parametrize("z_turn", [1e9, 1e10, 2.2e13])
    def test_transversality_is_scale_free(self, z_turn):
        # z*g'(z*) = lam + 1 = 2 for every power law, while g'(z*) = 2/z*
        # alone falls below 1e-8 far out
        n = z_turn ** -2.0
        spec = ExtremalSpec(PowerLaw(1.0), n)
        for psi in (0.3, 0.9, 1.35):
            z = (n * math.cos(psi)) ** -0.5
            got = integrate_phi(spec, z, 1e-12)
            assert abs(got - 0.5 * psi) <= 1e-12

    def test_tangential_crossing_rejected(self):
        w = parse_weight("(1+(z-1)^3)/z")   # g = (z-1)^3 at n = 1
        with pytest.raises(TangentialTurningPoint, match="near-zero slope"):
            turning_radius(w, 1.0)


class TestExtremalSpec:
    def test_negative_n_normalized(self):
        spec = ExtremalSpec(PowerLaw(0.0), -2.0)
        assert spec.n == 2.0 and spec.orientation == -1

    def test_zero_n_rejected(self):
        with pytest.raises(DomainError):
            ExtremalSpec(PowerLaw(0.0), 0.0)

    @pytest.mark.parametrize("n", [0.0, -0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("weight", [PowerLaw(1.0), parse_weight("1+z")])
    def test_n_checked_once_by_turning_radius(self, weight, n):
        with pytest.raises(DomainError, match="^the turning radius needs a "
                           "finite n > 0, got (0.0|nan|inf)$"):
            ExtremalSpec(weight, n)

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

    def test_overflowing_power_law_turning_radius_rejected(self):
        # n**(-1/(lam+1)) = 1e600 raised OverflowError
        with pytest.raises(DomainError, match=re.escape(
                "the turning radius n**(-1/(lam+1)) overflows a float at "
                "n 1e-300")):
            ExtremalSpec(PowerLaw(-0.5), 1e-300)

    def test_turning_slope_evaluated_once(self, monkeypatch):
        # the one scalar pass is the slope at z*; the near setup that
        # follows it passes the w table's radii as one array
        calls = []
        slope = reduced_ode._profile_and_slope

        def counted(*args):
            calls.append(args[2])
            return slope(*args)
        monkeypatch.setattr(reduced_ode, "_profile_and_slope", counted)
        spec = ExtremalSpec(parse_weight("1+z"), 1.0)
        assert [z for z in calls if np.ndim(z) == 0] == [spec.z_turn]
        assert calls[0] == spec.z_turn


def _scalar_scan(w, n):
    """Point-by-point form of the automatic bracket scan, for reference."""
    prev = None
    for z in np.geomspace(1e-8, 1e8, 321):
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

    @pytest.mark.parametrize("text", ["1/(z-2)", "1/(z-1)", "exp(-z)"])
    def test_no_sign_change(self, text):
        # past the domain edges of 1/(z-2) and 1/(z-1), g > 0 everywhere
        w = parse_weight(text)
        assert _scalar_scan(w, 1.0) is None
        with pytest.raises(NoBracket, match="^no sign change of n\\*v\\(z\\)"
                           "\\*z - 1 found on the scan grid$"):
            reduced_ode._auto_bracket(w, 1.0)

    @pytest.mark.parametrize("n", [8.7, 20.0, 50.0])
    def test_domain_edge_gap_is_bisected(self, n):
        # log(z)/z is invalid up to z = 1, and for n above about 8.69, g is
        # already positive at the first grid point past it, 1.122
        w = parse_weight("log(z)/z")
        assert _scalar_scan(w, n) is None
        lo, hi = reduced_ode._auto_bracket(w, n)
        assert 1.0 < lo < math.exp(1.0 / n) < hi <= 1.1220184543019653
        assert turning_radius(w, n) == pytest.approx(math.exp(1.0 / n),
                                                     rel=1e-15)

    @pytest.mark.parametrize("n", [0.001, 0.002])
    def test_right_domain_edge_gap_is_bisected(self, n):
        # 1/(2-z) is invalid from z = 2 on, and for n below about 0.0024, g
        # is still negative at the last grid point before it, 1.995
        w = parse_weight("1/(2-z)")
        assert _scalar_scan(w, n) is None
        lo, hi = reduced_ode._auto_bracket(w, n)
        assert 1.9952623149688828 <= lo < 2.0 / (1.0 + n) < hi < 2.0
        assert turning_radius(w, n) == pytest.approx(2.0 / (1.0 + n),
                                                     rel=1e-15)

    def test_scan_kept_on_the_weight(self, monkeypatch):
        # one raw pass over the grid per weight; each n's bracket is still
        # the scalar scan's
        w = parse_weight("1/(1+z^2)")
        passes = []
        raw = w._raw_v

        def counted(z):
            passes.append(np.shape(z))
            return raw(z)
        monkeypatch.setattr(w, "_raw_v", counted)
        for n in (3.0, 2.2, 5.0, 3.0):
            assert reduced_ode._auto_bracket(w, n) == _scalar_scan(w, n)
        assert passes.count((321,)) == 1
        assert parse_weight("1/(1+z^2)")._bracket_scan is None


def _doubling_near_setup(spec):
    """The handoff as a point-by-point doubling scan, for reference."""
    w, n, zt = spec.weight, spec.n, spec.z_turn
    profile = reduced_ode._profile
    z_hi = z_prev = z_before = zt
    g_prev = 0.0
    step = 1e-6 * zt
    for _ in range(200):
        z_hi = zt + step
        g = profile(w, n, z_hi)
        if g >= reduced_ode._G_HANDOFF:
            break
        if g <= g_prev and z_prev > zt:
            if reduced_ode._profile_and_slope(w, n, z_prev)[1] <= 0.0 \
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


class _GapWeight(RadialWeight):
    """v = z, undefined on the gap (lo, hi)."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def _raw_v(self, z):
        return np.where((z > self.lo) & (z < self.hi), np.nan, z)

    def _raw_q(self, z):
        return np.ones_like(z)

    def text(self):
        return f"z, undefined on ({self.lo}, {self.hi})"


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
        (PowerLaw(2.0), 1e-18),               # z* = 1e6
        (PowerLaw(1.0), 1e40)])               # z* = 1e-20
    def test_matches_doubling_scan(self, weight, n):
        spec = ExtremalSpec(weight, n)
        z_hi, w_hi, w_tab, z_tab = spec._near
        assert (z_hi, w_hi, w_tab.tolist(), z_tab.tolist()) == \
            _doubling_near_setup(spec)

    def test_domain_edge_ends_the_ladder(self):
        # the scan steps past sqrt(2), where the weight is undefined; the
        # handoff is the last rung on which g still rises
        spec = ExtremalSpec(parse_weight("sqrt(2-z^2)"), 1.5)
        with pytest.raises(EvalError):
            _doubling_near_setup(spec)
        z_hi, w_hi, w_tab, z_tab = spec._near
        assert spec.z_turn < z_hi < 1.0     # g peaks at z = 1
        assert len(w_tab) == len(z_tab) == reduced_ode._TABLE_SIZE + 1
        assert (np.diff(w_tab) > 0.0).all() and w_hi == w_tab[-1]

    def test_cut_table_ends_at_the_last_rising_row(self):
        # w stops rising inside this weight's table (g peaks before the
        # handoff value), so the table is cut: an angle past the cut may
        # fail, but never comes out wrong
        mpmath = pytest.importorskip("mpmath")
        n = 8.634916453297178
        spec = ExtremalSpec(parse_weight("1 + 0.3*sin(20*z)"), n)
        z_hi, w_hi, w_tab, z_tab = spec._near
        assert len(w_tab) < reduced_ode._TABLE_SIZE + 1
        assert (np.diff(w_tab) > 0.0).all()
        assert (z_hi, w_hi) == (z_tab[-1], w_tab[-1])
        got = {}
        for z in (0.128, 0.15, 0.16, 0.1645, 0.1666906108583988):
            try:
                got[z] = integrate_phi(spec, z, 1e-13)
            except ExtremalError:
                pass
        with mpmath.workdps(40):
            def g(x):
                return n * (1 + mpmath.mpf("0.3") * mpmath.sin(20 * x)) * x - 1
            zt = mpmath.findroot(g, spec.z_turn)
            for z, phi in got.items():
                ref = mpmath.quad(
                    lambda x: 1 / (x * mpmath.sqrt(g(x) * (g(x) + 2))),
                    [zt, z])
                assert abs(phi - ref) <= (1e-12 if z == 0.128 else 1e-10)
        assert 0.128 in got

    def test_invalid_first_rung_raises_the_weight_error(self):
        # z* = 1; the first rung, 1 + 1e-6, lies in the gap, and the spec
        # builds its handoff, so it raises the weight's error
        w = _GapWeight(1.0 + 1e-7, 1.05)
        assert turning_radius(w, 1.0) == 1.0
        with pytest.raises(EvalError, match="not finite"):
            ExtremalSpec(w, 1.0)


def _closed_form_angle(mpmath, lam, n, z):
    """arccos(1/(n*z^k))/k, k = lam + 1, at 40 digits."""
    with mpmath.workdps(40):
        k = mpmath.mpf(lam) + 1
        return float(mpmath.acos(1 / (mpmath.mpf(n) * mpmath.mpf(z) ** k))
                     / k)


class TestTinyTurningRadius:
    """The ladder's first rung is 1e-6*z* however small z* is: an absolute
    first step of 1e-12 once put the handoff decades past z*, where the w
    table cannot resolve the profile, and angles came out wrong."""

    @pytest.mark.parametrize("lam,n", [
        (0.5, 1e100), (0.5, 1e30), (1.0, 1e60), (0.0, 1e200), (2.0, 1e290),
        (-0.5, 1e100), (1.0, 1e-200)])
    def test_angles_match_the_closed_form(self, lam, n):
        mpmath = pytest.importorskip("mpmath")
        spec = ExtremalSpec(PowerLaw(lam), n)
        zt = spec.z_turn
        z = np.array([zt * r for r in (1.0001, 1.5, 10.0, 1e3)])
        got = integrate_phi(spec, z, 1e-13)
        for phi, zb in zip(got.tolist(), z.tolist()):
            assert abs(phi - _closed_form_angle(mpmath, lam, n, zb)) <= 1e-12

    @pytest.mark.parametrize("n,z_max", [("1e100", "1e-65"),
                                         ("1e30", "1e-19")])
    def test_trace_matches_the_closed_form(self, n, z_max, capsys):
        # the turning sample prints 0 at the float z*; the angle there is
        # as ill-conditioned as sqrt(g), so it is left out
        mpmath = pytest.importorskip("mpmath")
        from radial_extremals import cli
        assert cli.run(["trace", "--lambda", "1/2", "--n", n, "--zmax", z_max,
                        "--samples", "50"]) == 0
        rows = [[float(x) for x in line.split(",")]
                for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 99
        for i, (phi, z, *_) in enumerate(rows):
            if i != 49:
                want = _closed_form_angle(mpmath, 0.5, float(n), z)
                assert abs(phi - math.copysign(want, i - 49)) <= 1e-12


# weights whose g = n*v*z - 1 can rise, peak and fall while positive:
# text -> (v(x) in mpmath, range of n, upper radius)
_PEAKED = {
    "2+sin(3*z)": (lambda mp, x: 2 + mp.sin(3 * x), (0.5, 1.5), 1.0),
    "1+0.5*sin(5*z)": (lambda mp, x: 1 + mp.mpf("0.5") * mp.sin(5 * x),
                       (1.2, 4.0), 1.5),
    "exp(-z)+0.2": (lambda mp, x: mp.exp(-x) + mp.mpf("0.2"), (0.9, 3.0),
                    2.0),
    "1/(1+z^2)": (lambda mp, x: 1 / (1 + x * x), (2.05, 4.0), 1.5),
}


def _mpmath_angle(text, n, z_turn, z_b):
    """The angle from z* to z_b by mpmath at 30 digits, z* refined from
    z_turn; None where g dips to 0 on the way (a complex integral).

    The range is split at every extremum of g: where g dips close to 0 the
    integrand has a narrow peak, and one tanh-sinh rule over the whole
    range misses it (by 1.4e-9 for 1+0.5*sin(5*z) at n = 2.184375, whose
    g falls to 0.0049 at z = 0.896).

    The integral is taken in t with z = z* + t^2, whose integrand
    2 / (z sqrt((g/t^2) (g+2))) is regular at t = 0.  Where z* + t^2 rounds
    onto z* at 30 digits, g/t^2 would be 0/0 (exp(-z)+0.2 at n =
    1.4924059468161475 met a node there), so below t^2 = 1e-20*z* it is
    g'(z*), off by about g''*t^2/2."""
    mp = pytest.importorskip("mpmath")
    v = _PEAKED[text][0]
    with mp.workdps(30):
        def g(x):
            return n * v(mp, x) * x - 1

        def gp(x):
            return mp.diff(g, x)
        zt = mp.findroot(g, z_turn)
        grid = mp.linspace(zt, z_b, 65)
        slopes = [gp(x) for x in grid]
        cuts = [mp.findroot(gp, (a, b), solver="anderson")
                for a, b, sa, sb in zip(grid, grid[1:], slopes, slopes[1:])
                if sa * sb < 0]
        slope = gp(zt)

        def integrand(t):
            s = t * t
            z = zt + s
            h = slope if s < 1e-20 * zt else g(z) / s
            return 2 / (z * mp.sqrt(h * (g(z) + 2)))
        ref = mp.quad(integrand, [mp.sqrt(c - zt)
                                  for c in [zt, *cuts, mp.mpf(z_b)]])
    return None if isinstance(ref, mp.mpc) else float(ref)


class TestCatenary:
    """log(z)/z, a weight that is not a power law, against its exact
    angles arccosh(n*log(z))/n and turning radius e^(1/n) at 40 digits.
    Above n = 8.69, z* lies between the domain edge z = 1 and the first
    grid point of the bracket scan past it."""

    FACTORS = (1.0001, 1.01, 1.5, 3.0, 10.0, 1e3)

    @settings(max_examples=40, deadline=None)
    @given(n=st.floats(0.3, 50.0))
    @example(n=0.3)
    @example(n=8.7)
    @example(n=50.0)
    def test_angles_trace_and_turning_radius(self, n):
        mpmath = pytest.importorskip("mpmath")
        spec = ExtremalSpec(parse_weight("log(z)/z"), n)
        radii = spec.z_turn * np.array(self.FACTORS)
        angles = integrate_phi(spec, radii, 1e-12)
        trace = trace_extremal(spec, 4.0 * spec.z_turn, 200)
        turn = int(np.argmin(trace.z))
        assert trace.z[turn] == spec.z_turn and trace.phi[turn] == 0.0
        samples = np.delete(np.arange(trace.z.size), turn)
        with mpmath.workdps(40):
            ref = closed_form_reference.catenary_turn(mpmath, n)
            turn_err = float(abs(spec.z_turn / ref - 1))
            turn_ulps = float(abs(spec.z_turn - ref)) / math.ulp(spec.z_turn)
            angle_err = max(
                float(abs(phi - closed_form_reference.catenary_phi(
                    mpmath, n, z)))
                for z, phi in zip(radii.tolist(), angles.tolist()))
            trace_err = max(
                float(abs(abs(trace.phi[k]) - closed_form_reference
                          .catenary_phi(mpmath, n, trace.z[k])))
                for k in samples.tolist())
        print(f"n = {n!r}: angle {angle_err:.2e}, trace {trace_err:.2e}, "
              f"z* {turn_err:.2e} ({turn_ulps:.2f} ulps)")
        assert angle_err <= 1e-12
        assert trace_err <= 1e-12
        # find_root drives the computed |g| to 4 eps, over the slope
        # z*g'(z*) = n; the rounding of g and of z* itself adds about an
        # eps (4 eps/n alone fails: 1.8e-16 at n = 6.625).  An ulp of z
        # moves g by about n eps, so past n = 8 find_root can stop first on
        # its four-ulp bracket, at the end with less |g|, up to two ulps
        # from z*: 7 of 3388 n in (8, 50] exceed the first bound (1.55 ulps
        # at n = 43.89), and no n in [0.3, 8] came within 0.73 of it
        if n <= 8.0:
            assert turn_err <= (4.0 / n + 1.0) * np.finfo(float).eps
        else:
            assert turn_ulps <= 2.0


# text of u -> (k, range of n) for the power-map references
_POWER_MAPS = {"1/(1+z^2)": (2.0, (2.05, 10.0)),
               "2+sin(3*z)": (0.5, (0.3, 5.0)),
               "exp(-z)+0.2": (3.0, (2.0, 50.0))}


def _power_map(text, k):
    """v_k(z) = k*z^(k-1)*u(z^k), built from the text of u by writing (z^k)
    for each z."""
    inner = text.replace("z", f"(z^{k!r})")
    return parse_weight(f"{k!r}*z^({k - 1.0!r})*({inner})")


def _angle_or_error(call):
    """call()'s value, or the class of the ExtremalError it raised."""
    try:
        return call()
    except ExtremalError as exc:
        return type(exc)


class TestPowerMap:
    """With Z = z^k, (n/k)*v_k(z)*z = n*u(Z)*Z and dz/z = dZ/(k*Z): the
    extremal of v_k with constant n/k turns at z*_u^(1/k) and sweeps
    phi_u(z^k)/k.  So every weight u without a closed form gives a
    reference for v_k, and the two quadratures share no piece."""

    FACTORS = (1.0001, 1.01, 1.5, 3.0)

    @pytest.mark.parametrize("text", sorted(_POWER_MAPS))
    @settings(max_examples=20, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_angles_and_turning_radius(self, text, u):
        k, (lo, hi) = _POWER_MAPS[text]
        n = lo + (hi - lo) * u
        base = _angle_or_error(lambda: ExtremalSpec(parse_weight(text), n))
        mapped = _angle_or_error(lambda: ExtremalSpec(_power_map(text, k),
                                                      n / k))
        if isinstance(base, type) or isinstance(mapped, type):
            assert base is mapped
            return
        turn_err = abs(mapped.z_turn / base.z_turn ** (1.0 / k) - 1.0)
        angle_err = 0.0
        for f in self.FACTORS:
            z = base.z_turn * f
            want = _angle_or_error(lambda: integrate_phi(base, z, 1e-12))
            got = _angle_or_error(lambda: integrate_phi(
                mapped, z ** (1.0 / k), 1e-12))
            if isinstance(want, type) or isinstance(got, type):
                assert got is want
            else:
                angle_err = max(angle_err, abs(got - want / k))
        print(f"{text}, n = {n!r}: angle {angle_err:.2e}, z* {turn_err:.2e}")
        assert angle_err <= (1.0 + 1.0 / k) * 1e-12
        assert turn_err <= 1e-14


class TestPeakedProfiles:
    """The near/far handoff never lies past a peak of g: the near region
    inverts w = sqrt(g) on the rising side only."""

    def test_handoff_below_a_peak_between_table_rows(self):
        # g peaks at z ~ 0.8985, between the rows 0.8893 and 0.9037 of the
        # table the ladder's handoff would give; that handoff's slope is
        # -0.035, and the angle came out as 1.12747 with no error
        spec = ExtremalSpec(parse_weight("2+sin(3*z)"), 0.75)
        z_split = spec._near[0]
        assert spec.z_turn < z_split < 0.8985
        assert reduced_ode._profile_and_slope(spec.weight, spec.n,
                                              z_split)[1] > 0.0
        got = integrate_phi(spec, 1.0, 1e-13)
        assert abs(got - 1.1393311408606654) <= 1e-10

    @pytest.mark.parametrize("text", sorted(_PEAKED))
    @settings(max_examples=12, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    # for 1/(1+z^2), handoffs next to the peak of g: angles off by 1.27e-9,
    # 1.34e-10 and 1.73e-10 with no error before the table's slope floor
    @example(u=0.24977300850675915)
    @example(u=0.06692500000000019)
    @example(u=0.24982500000000016)
    # for exp(-z)+0.2, a quadrature node of the reference on z*
    @example(u=0.2820980699124512)
    def test_angles_match_mpmath_or_raise(self, text, u):
        _, (lo, hi), z_b = _PEAKED[text]
        n = lo + (hi - lo) * u
        try:
            spec = ExtremalSpec(parse_weight(text), n)
            got = integrate_phi(spec, z_b, 1e-13)
        except ExtremalError:
            return
        ref = _mpmath_angle(text, n, spec.z_turn, z_b)
        assert ref is not None and abs(got - ref) <= 1e-10

    def test_handoffs_next_to_the_peak_of_g(self):
        # g = n*z/(1+z^2) - 1 peaks at z = 1, below _G_HANDOFF for n < 3,
        # and the angle to 1.5 exists for n > 13/6.  Where the ladder's
        # last rung below the peak lies next to it, z*g' is near 0 there
        # and the near integrand 2/(g'*z*sqrt(w^2+2)) is nearly singular
        # just past the table: n = 2.53708 gave an angle off by 7.4e-10
        # with no error, and n = 2.18042 raised QuadratureFailure.
        ns = 13 / 6 + (3 - 13 / 6) * np.arange(2000) / 2000
        zt = (ns - np.sqrt(ns * ns - 4.0)) / 2.0
        rungs = zt[:, None] \
            + np.maximum(1e-6 * zt, 1e-12)[:, None] * reduced_ode._LADDER
        below = np.where(rungs < 1.0, rungs, 0.0).max(axis=1)
        slopes = ns * below * (1.0 - below ** 2) / (1.0 + below ** 2) ** 2
        for n in ns[np.argsort(slopes)[:10]].tolist():
            spec = ExtremalSpec(parse_weight("1/(1+z^2)"), n)
            got = integrate_phi(spec, 1.5, 1e-13)
            ref = _mpmath_angle("1/(1+z^2)", n, spec.z_turn, 1.5)
            assert abs(got - ref) <= 1e-10


def _five_step_inversion(spec, w_nodes):
    """The near-region inversion as five full Newton steps, g and g' from
    separate eval_v and eval_q calls, then g' once more at the final z."""
    w, n = spec.weight, spec.n
    z_hi, _, w_tab, z_tab = spec._near
    zeta = np.interp(w_nodes, w_tab, z_tab)
    target = w_nodes * w_nodes
    lo, hi = spec.z_turn, z_hi + (z_hi - spec.z_turn)
    for _ in range(5):
        g = n * eval_v(w, zeta) * zeta - 1.0
        gp = n * (eval_q(w, zeta) * zeta + eval_v(w, zeta))
        zeta = np.clip(zeta - (g - target) / gp, lo, hi)
    return zeta, n * (eval_q(w, zeta) * zeta + eval_v(w, zeta))


class TestInvertProfile:
    @pytest.mark.parametrize("weight,n,panels,passes", [
        (PowerLaw(1.3), 1.1, 8, 5),     # 26 nodes in 2-cycles at step 5
        (PowerLaw(2.0817992419720928), 1.66, 1, 4),   # fixed at step 4
        (PowerLaw(0.0), 2.0, 2, 2),
        (parse_weight("1.0*z^2.0817992419720928"), 1.66, 2, 4),
        (parse_weight("1/(1+z^2)"), 3.0, 2, 6),   # all five steps, then g'
        (parse_weight("sqrt(2-z^2)"), 1.5, 8, 6),
        (PowerLaw(1.0), 1e12, 1, 4),
        (PowerLaw(1.0), 1e-12, 2, 4),
        (PowerLaw(0.0), 1.1, 2, 3),     # 6 nodes in 2-cycles, 24 fixed
        (PowerLaw(1.0), 5.0, 4, 5)])    # 14 nodes in 2-cycles, 46 fixed
    def test_equals_five_newton_steps(self, monkeypatch, weight, n, panels,
                                      passes):
        spec = ExtremalSpec(weight, n)
        w_split = spec._near[1]
        edges = np.linspace(0.0, w_split, panels + 1)
        nodes = (0.5 * (edges[:-1] + edges[1:]))[:, None] \
            + (0.5 * np.diff(edges))[:, None] * _NODES
        want = _five_step_inversion(spec, nodes)
        calls = []
        pass_ = reduced_ode._profile_and_slope

        def counted(*args):
            calls.append(args[2])
            return pass_(*args)
        monkeypatch.setattr(reduced_ode, "_profile_and_slope", counted)
        zeta, gp = spec._invert_profile(nodes)
        assert zeta.tobytes() == want[0].tobytes()
        assert gp.tobytes() == want[1].tobytes()
        assert len(calls) == passes


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
        got = integrate_phi(spec, 2.0, 1e-12)
        assert got == pytest.approx(math.atan(math.sqrt(3.0)), abs=1e-12)

    def test_linear_weight_sixth_pi(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        got = integrate_phi(spec, math.sqrt(2.0), 1e-12)
        assert got == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_half_power_against_reference(self):
        spec = ExtremalSpec(PowerLaw(0.5), 1.3)
        got = integrate_phi(spec, 2.0, 1e-12)
        assert got == pytest.approx(_HALF_POWER_REFERENCE, abs=1e-12)

    @pytest.mark.parametrize("r", [1e-14, 1e-13, 9.9e-13])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    def test_angle_just_outside_the_turn(self, lam, r):
        # up to 1.4e-6 rad within 1e-12 relative of z*, not 0; the error is
        # that of sqrt(g) with g rounded next to its root
        mpmath = pytest.importorskip("mpmath")
        spec = ExtremalSpec(PowerLaw(lam), 1.3)
        z = spec.z_turn * (1.0 + r)
        got = integrate_phi(spec, z, 1e-12)
        with mpmath.workdps(40):
            k = mpmath.mpf(lam) + 1
            ref = float(mpmath.acos(1 / (mpmath.mpf(1.3) * mpmath.mpf(z) ** k))
                        / k)
        assert got != 0.0 and abs(got - ref) <= 1e-9
        assert reduced_ode._increments(spec, np.array([z]),
                                       np.array([spec.z_turn]),
                                       1e-12)[0].tolist() == [-got]

    def test_empty_interval(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        assert integrate_phi(spec, spec.z_turn, 1e-12) == 0.0
        assert reduced_ode._increments(spec, np.array([1.7]), np.array([1.7]),
                                       1e-12)[0].tolist() == [0.0]

    def test_signed_and_monotone_in_upper_limit(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        values = [integrate_phi(spec, z, 1e-12)
                  for z in (1.0, 1.2, 1.7, 2.5, 4.0)]
        assert values[0] == 0.0
        assert all(b > a for a, b in zip(values, values[1:]))
        back = reduced_ode._increments(spec, np.array([2.5]),
                                       np.array([1.2]), 1e-12)[0][0]
        assert back == pytest.approx(values[1] - values[3], abs=1e-12)

    def test_forbidden_region(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        with pytest.raises(ForbiddenRegion):
            integrate_phi(spec, 0.5, 1e-12)

    @pytest.mark.parametrize("weight, n, z_top", [
        (PowerLaw(1.3), 0.9, 3.0), (parse_weight("1/(1+z^2)"), 3.0, 0.9)])
    def test_arrays_equal_scalar_calls(self, weight, n, z_top):
        spec = ExtremalSpec(weight, n)
        zt, z_split = spec.z_turn, spec._near[0]
        z_b = [zt, 1.1 * zt, 0.5 * (zt + z_split), z_split, z_top, zt,
               z_top, zt * (1.0 - 1e-13)]
        got = integrate_phi(spec, z_b, 1e-13)
        assert isinstance(got, np.ndarray) and got.shape == (8,)
        want = [integrate_phi(spec, z, 1e-13) for z in z_b]
        assert all(type(x) is float for x in want)
        assert np.array(want).tobytes() == got.tobytes()
        assert integrate_phi(spec, np.array(z_b), 1e-13).tobytes() == \
            got.tobytes()
        assert integrate_phi(spec, [], 1e-13).shape == (0,)
        assert type(integrate_phi(spec, np.float64(z_top), 1e-13)) is float
        assert type(integrate_phi(spec, np.array(z_top), 1e-13)) is float

    def test_pairs_equal_single_intervals(self):
        # _increments, the builder of traced grids and Newton steps, takes
        # intervals in either order and equal radii, batched
        spec = ExtremalSpec(PowerLaw(1.3), 0.9)
        zt, z_split = spec.z_turn, spec._near[0]
        z_to = np.array([zt, 1.1 * zt, 0.5 * (zt + z_split), z_split, 3.0])
        z_from = np.array([3.0, zt, z_split, 1.05 * zt, 3.0])
        got = []
        for a, b in ((z_from, z_to), (z_to, z_from)):
            got.append(reduced_ode._increments(spec, a, b, 1e-13)[0].tolist())
            assert got[-1] == [
                reduced_ode._increments(spec, a[k:k + 1], b[k:k + 1],
                                        1e-13)[0][0] for k in range(5)]
        assert got[1] == [-x for x in got[0]]
        assert got[0][0] < 0.0 < got[0][1] and got[0][4] == 0.0

    @pytest.mark.parametrize("radius", [0.0, 1e-13, 1e-12])
    def test_radius_just_inside_the_turn_gives_plus_zero(self, radius):
        spec = ExtremalSpec(PowerLaw(1.0), 1.3)
        z = spec.z_turn * (1.0 - radius)
        got = integrate_phi(spec, z, 1e-12)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        assert integrate_phi(spec, [z, 2.0], 1e-12)[0].tobytes() == \
            np.float64(0.0).tobytes()

    def test_array_checks_keep_the_scalar_order(self):
        # tol, then the shape, then every non-finite radius, then every
        # radius inside z*, each naming the first bad entry
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        bad = [(1e-2, [0.5, math.nan], DomainError, "^tol must lie"),
               (1e-12, [[1.5, 2.0]], DomainError,
                r"^z must be a scalar or a 1-d array, got shape \(1, 2\)$"),
               (1e-12, [0.5, 2.0, math.nan, -math.inf], DomainError,
                "^z must be finite, got nan$"),
               (1e-12, [2.0, 0.25, 0.5, math.inf], DomainError,
                "^z must be finite, got inf$"),
               (1e-12, [2.0, 0.25, 0.5], ForbiddenRegion,
                r"^z = 0.25 lies inside the turning radius z\* = 1.0 "
                r"at n = 1.0$"),
               (1e-12, -1.0, ForbiddenRegion, "^z = -1.0 lies inside")]
        for tol, z, error, message in bad:
            with pytest.raises(error, match=message):
                integrate_phi(spec, z, tol)

    def test_tolerance_validated(self):
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        with pytest.raises(DomainError, match="tol"):
            integrate_phi(spec, 2.0, 1e-2)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, z):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        with pytest.raises(DomainError, match="z must be finite"):
            integrate_phi(spec, z, 1e-12)
        for grid in ("cosine", "uniform-phi"):
            with pytest.raises(DomainError, match="z_max must be finite"):
                trace_extremal(spec, z, 5, grid=grid)

    @pytest.mark.parametrize("weight", [PowerLaw(1.0), parse_weight("1+z")])
    def test_nan_limit_reaches_the_weight(self, weight):
        spec = ExtremalSpec(weight, 1.0)
        z_split = spec._near[0]
        for z_a, z_b in [(spec.z_turn, math.nan), (2.0 * z_split, math.nan),
                         (math.nan, spec.z_turn), (math.nan, 2.0 * z_split)]:
            with pytest.raises(DomainError, match="domain minimum"):
                reduced_ode._increments(spec, np.array([z_a]),
                                        np.array([z_b]), 1e-12)

    def test_agreement_with_closed_form_within_ten_tol(self):
        tol = 1e-12
        for lam, n in ((0.5, 0.7), (2.0, 1.9), (3.0, 2.5)):
            spec = ExtremalSpec(PowerLaw(lam), n)
            curve = PowerLawCurve(lam, n)
            for psi in (0.3, 0.9, 1.35):
                z = (n * math.cos(psi)) ** (-1.0 / (lam + 1.0))
                got = integrate_phi(spec, z, tol)
                assert abs(got - psi / (lam + 1.0)) <= 10.0 * tol
                assert closed_form_reference.psi(curve, z) == \
                    pytest.approx(psi, rel=1e-12)

    @pytest.mark.parametrize("weight, lam, c", [
        *[(PowerLaw(lam), lam, 1.0) for lam in (0.0, 0.5, 1.0, 2.0, 3.0)],
        (parse_weight("2.5*z^1.3"), 1.3, 2.5)])
    def test_long_far_pieces_match_the_closed_form(self, weight, lam, c):
        # one z-panel over [z_split, z_b] missed the mass next to z_split,
        # its estimate too: pi/4 came out as 0.446 at lambda 1, z_b = 1e10
        spec = ExtremalSpec(weight, 1.0)
        k = lam + 1.0
        z_b = 10.0 ** np.arange(1, 31)
        got = integrate_phi(spec, z_b, 1e-12)
        want = [math.acos(1.0 / (c * z ** k)) / k for z in z_b.tolist()]
        assert np.abs(got - want).max() <= 1e-10
        assert got.tolist() == [integrate_phi(spec, z, 1e-12)
                                for z in z_b.tolist()]

    def test_long_far_pieces_only_change_past_the_ratio(self, monkeypatch):
        # a far piece up to _LONG_FAR times its lower radius keeps the
        # z-space bits of the parent's single far run
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        z_split = spec._near[0]
        z_b = z_split * np.array([4.0, 99.0, 100.0])
        z_a = np.full(3, z_split)
        got = reduced_ode._increments(spec, z_a, z_b, 1e-12)[0]
        monkeypatch.setattr(reduced_ode, "_LONG_FAR", math.inf)
        assert got.tolist() == \
            reduced_ode._increments(spec, z_a, z_b, 1e-12)[0].tolist()

    def test_radicand_overflow_fails_fast(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        with pytest.raises(DomainError, match=r"\(n\*v\(z\)\*z\)\^2 overflows"):
            integrate_phi(spec, 1e300, 1e-12)
        with pytest.raises(DomainError, match="overflows"):
            trace_extremal(spec, 1e300, 3)
        # just past the overflow radius only z itself overflows, not the
        # far integrand's nodes below it
        for check in (lambda z: first_integral_deviation(spec.weight, 1.0, z),
                      lambda z: dphi_dz(z, spec)):
            with pytest.raises(DomainError,
                               match="overflows at z = 1.1586e"):
                check(np.array([2.0, 1.1586e77]))

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
                got = integrate_phi(spec, z, 1e-12)
                assert abs(got - ref) <= 1e-10 * ref


@pytest.fixture
def entries(monkeypatch):
    """(split flag, pieces) of every quadrature call made by _increments
    or by integrate_phi."""
    calls = []

    def entry(runs, lo, hi, tol, split=False,
              _f=reduced_ode.quadrature.integrate):
        if sys._getframe(1).f_code.co_name in ("_increments",
                                               "integrate_phi"):
            calls.append((split, len(lo)))
        return _f(runs, lo, hi, tol, split=split)
    monkeypatch.setattr(reduced_ode.quadrature, "integrate", entry)
    return calls


class TestAnglesFromTurn:
    """integrate_phi, the angles from z*, gives the bits of _increments
    from z*, and the split first calls of either change no bit of the
    increments, their summed estimate or the panel count."""

    @pytest.mark.parametrize("weight, n", [
        (PowerLaw(0.0), 2.0), (PowerLaw(1.3), 1.1), (PowerLaw(2.08), 0.9),
        (parse_weight("2.5*z^1.3"), 1.1), (parse_weight("1/(1+z^2)"), 3.0),
        (parse_weight("sqrt(2-z^2)"), 1.5)])
    def test_equals_plain(self, weight, n, monkeypatch, entries):
        spec = ExtremalSpec(weight, n)
        zt, z_split = spec.z_turn, spec._near[0]
        z_top = 1.3 if weight.text() == "sqrt(2-z^2)" else 3.0 * z_split
        # span-like pieces from z*, pieces inside one region, and a piece
        # across the handoff radius
        z_a = np.array([zt, zt, zt, zt, zt * (1.0 + 1e-3), z_split, zt])
        z_b = np.array([zt * (1.0 + 1e-6), 0.5 * (zt + z_split), z_split,
                        z_top, 0.9 * z_split + 0.1 * zt, z_top,
                        0.5 * (z_split + z_top)])
        from_turn = z_a == zt
        refines = []
        core = reduced_ode.quadrature._refine

        def counted(*args):
            refines.append(args[1:3])
            return core(*args)
        monkeypatch.setattr(reduced_ode.quadrature, "_refine", counted)
        for tol in (1e-10, 1e-12, 1e-13):
            for keep in (np.ones(len(z_a), bool), from_turn):
                got = _outcome(lambda: reduced_ode._increments(
                    spec, z_a[keep], z_b[keep], tol))
                for split in (False, True):
                    assert got == _outcome(lambda: _two_call_increments(
                        spec, z_a[keep], z_b[keep], tol, split))
            # integrate_phi gives the increments from z* bit for bit
            assert _outcome(lambda: [integrate_phi(
                spec, z_b[from_turn], tol)]) == got[:1]
        # seven intervals in nine pieces, the five from z* in seven, and
        # integrate_phi's six: three inside the handoff, one near piece
        # shared by the two beyond it, and their far pieces
        assert entries == [(False, 9), (False, 7), (True, 6)] * 3
        assert refines

    def test_one_split_call_per_angle_batch(self, entries):
        # radii in either order: _increments never splits, and each
        # integrate_phi call, scalar or batched, is one split call
        spec = ExtremalSpec(parse_weight("sqrt(1+z^3)"), 1.2)
        zt = spec.z_turn
        cases = [([zt, 2.0, zt, 0.75], [0.75, zt, 2.0, zt]),
                 ([zt, 2.0, 0.75], [0.75, zt, 2.0])]
        for z_from, z_to in cases:
            z_from, z_to = np.array(z_from), np.array(z_to)
            got = _outcome(lambda: reduced_ode._increments(
                spec, z_from, z_to, 1e-13))
            for mode in (False, True):
                assert got == _outcome(lambda: _two_call_increments(
                    spec, z_from, z_to, 1e-13, mode))
        assert entries == [(False, 6), (False, 5)]
        entries.clear()
        integrate_phi(spec, [0.75, 2.0], 1e-13)
        integrate_phi(spec, 2.0, 1e-13)
        integrate_phi(spec, 0.75, 1e-13)
        # a radius at z*: its near piece has equal limits, and the driver
        # skips it
        integrate_phi(spec, [zt, 2.0], 1e-13)
        assert entries == [(True, 3), (True, 2), (True, 1), (True, 3)]


# (weight from (lam, c), n range): power laws over (-1, 3], the
# benchmark's expression spellings, a weight whose g peaks (radii past its
# second root fail in the far integrand) and one whose value turns NaN
# past sqrt(2) inside a far piece
_LEAN_WEIGHTS = {
    "power law": (lambda lam, c: PowerLaw(lam), (0.03, 30.0)),
    "c*z^p": (lambda lam, c: parse_weight(f"{c!r}*z^{abs(lam)!r}"),
              (0.03, 30.0)),
    "z^p*c": (lambda lam, c: parse_weight(f"z^{abs(lam)!r}*{c!r}"),
              (0.03, 30.0)),
    "exp(p*log(z))": (lambda lam, c: parse_weight(f"exp({lam!r}*log(z))"),
                      (0.03, 30.0)),
    "z*sqrt(z)": (lambda lam, c: parse_weight("z*sqrt(z)"), (0.03, 30.0)),
    "c*z*z": (lambda lam, c: parse_weight(f"{c!r}*z*z"), (0.03, 30.0)),
    "1/(1+z^2)": (lambda lam, c: parse_weight("1/(1+z^2)"), (2.05, 10.0)),
    "sqrt(2-z^2)": (lambda lam, c: parse_weight("sqrt(2-z^2)"),
                    (1.05, 5.0)),
}


def _radius(spec, kind, u):
    """A radius of one kind for integrate_phi: at z*, just inside it
    (allowed, 1e-13, or refused, 1e-9), inside the handoff, beyond it, or
    past _LONG_FAR*z_split, where math.log would move bits."""
    zt, z_split = spec.z_turn, spec._near[0]
    return {"turn": zt, "inside turn": zt * (1.0 - 1e-13),
            "inside turn, refused": zt * (1.0 - 1e-9),
            "near": zt + (z_split - zt) * max(u, 1e-9),
            "far": z_split * (1.0 + (reduced_ode._LONG_FAR - 1.0) * u),
            "long": z_split * reduced_ode._LONG_FAR * (1.0 + 1e3 * u)}[kind]


def _outcome_and_warnings(call):
    """(call()'s bytes, or its error's class and message; the messages of
    the RuntimeWarnings it gave)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            got = np.asarray(call()).tobytes()
        except ExtremalError as exc:
            got = (type(exc), str(exc))
    return got, [str(w.message) for w in seen
                 if issubclass(w.category, RuntimeWarning)]


class TestLeanPassEquivalence:
    """integrate_phi equals _increments from z* bit for bit and fails as it
    does: same error, message and RuntimeWarnings.  The one difference is
    the sign of a zero: a radius within 1e-12 inside z* gives +0.0, where
    _increments gives -0.0 for the reversed interval; a radius further
    inside is refused before any quadrature."""

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(sorted(_LEAN_WEIGHTS)),
           lam=st.floats(-0.99, 3.0), c=st.floats(0.5, 3.0),
           u_n=st.floats(0.0, 1.0),
           radii=st.lists(st.tuples(
               st.sampled_from(["turn", "inside turn", "inside turn, "
                                "refused", "near", "far", "long"]),
               st.floats(0.0, 1.0)), min_size=1, max_size=5),
           repeat=st.booleans(),
           tol=st.sampled_from([1e-14, 1e-13, 1e-12, 1e-10, 1e-6]))
    def test_equals_increments_from_the_turn(self, family, lam, c, u_n,
                                             radii, repeat, tol):
        make, (n_lo, n_hi) = _LEAN_WEIGHTS[family]
        n = n_lo * (n_hi / n_lo) ** u_n
        try:
            spec = ExtremalSpec(make(lam, c), n)
            z_b = np.array([_radius(spec, k, u) for k, u in radii])
        except ExtremalError:
            return
        if repeat:
            z_b = np.append(z_b, z_b[0])
        got = _outcome_and_warnings(lambda: integrate_phi(spec, z_b, tol))
        refused = z_b[z_b < spec.z_turn * (1.0 - 1e-12)].tolist()
        if refused:
            assert got == ((ForbiddenRegion, f"z = {refused[0]} lies inside "
                            f"the turning radius z* = {spec.z_turn} at n = "
                            f"{spec.n}"), [])
            return
        # adding +0.0 turns -0.0 into +0.0 and leaves every other bit
        assert got == _outcome_and_warnings(lambda: reduced_ode._increments(
            spec, np.full(len(z_b), spec.z_turn), z_b, tol)[0] + 0.0)


def _region_pieces(spec, z_a, z_b, tol):
    """The near pieces (in w) and far pieces (in z) of _increments, each as
    (integrand, lo, hi, tol), with the near and far masks."""
    z_split, w_split, _, _ = spec._near
    moving = z_a != z_b
    near = moving & ~(z_a >= z_split)
    far = moving & ~(z_b <= z_split)
    piece_tol = np.where(near & far, 0.5 * tol, tol)
    w_b = np.full(len(z_b), w_split)
    w_b[near & ~far] = reduced_ode._w_of(spec, z_b[near & ~far])
    return ((reduced_ode._near_integrand(spec),
             reduced_ode._w_of(spec, z_a[near]), w_b[near], piece_tol[near]),
            (reduced_ode._far_integrand(spec),
             np.where(near, z_split, z_a)[far], z_b[far], piece_tol[far]),
            near, far)


def _two_call_increments(spec, z_from, z_to, tol, split):
    """_increments from a near quadrature call and then a far one, each
    interval from its lower radius and negated where z_to < z_from, by
    integrate with or without split, for reference."""
    flip = z_to < z_from
    z_a, z_b = np.where(flip, z_to, z_from), np.where(flip, z_from, z_to)
    near_piece, far_piece, near, far = _region_pieces(spec, z_a, z_b, tol)
    (near_val, near_err, near_panels), (far_val, far_err, far_panels) = (
        reduced_ode.quadrature.integrate([(f, len(lo))], lo, hi, t,
                                         split=split)
        for f, lo, hi, t in (near_piece, far_piece))
    inc = np.zeros(len(z_a))
    inc[near] = near_val
    inc[far] += far_val
    return (np.where(flip, -inc, inc),
            math.fsum(near_err.tolist() + far_err.tolist()),
            int(near_panels.sum() + far_panels.sum()))


def _outcome(call):
    """call()'s arrays as int64 bit patterns, or its error's class and
    message."""
    try:
        return [np.asarray(x, dtype=float).view(np.int64).tolist()
                for x in call()]
    except ExtremalError as exc:
        return type(exc), str(exc)


class TestOneQuadratureCall:
    """Both regions of _increments share one quadrature call, whose results
    and failures are those of a near call followed by a far call."""

    WEIGHTS = {"lambda 1.3": (PowerLaw(1.3), 0.9),
               "2.5*z^1.3": (parse_weight("2.5*z^1.3"), 1.1)}

    @staticmethod
    def radii(spec, case):
        zt, z_split = spec.z_turn, spec._near[0]
        grid = reduced_ode._cosine_z_grid(spec, 3.0 * z_split, 40)
        near_grid = reduced_ode._cosine_z_grid(spec, 0.9 * z_split, 12)
        far_grid = np.linspace(z_split, 4.0 * z_split, 12)
        return {
            "traced grid": (grid[:-1], grid[1:]),
            "bvp span": ([zt, zt], [1.7 * zt, 4.0 * z_split]),
            "equal radii": ([zt, 2.0 * zt, z_split, zt],
                            [zt, 2.0 * zt, z_split, 3.0 * z_split]),
            "only near": (near_grid[:-1], near_grid[1:]),
            "only far": (far_grid[:-1], far_grid[1:]),
            "nan near": ([zt, np.nan], [3.0 * z_split, 0.5 * z_split]),
            "nan far": ([zt, zt], [3.0 * z_split, np.nan]),
        }[case]

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("case", ["traced grid", "bvp span",
                                      "equal radii", "only near",
                                      "only far", "nan near", "nan far"])
    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_equals_near_then_far_call(self, weight, case, split):
        spec = ExtremalSpec(*self.WEIGHTS[weight])
        z_a, z_b = (np.asarray(x, dtype=float)
                    for x in self.radii(spec, case))
        quad = reduced_ode.quadrature
        for tol in (1e-10, 1e-13):
            got = _outcome(lambda: reduced_ode._increments(
                spec, z_a, z_b, tol))
            assert got == _outcome(lambda: _two_call_increments(
                spec, z_a, z_b, tol, split))
            if not case.startswith("nan"):
                # piece by piece: values, estimates and panel counts, with
                # reversed and equal limits added to both regions
                pieces = [(f, np.concatenate((lo, hi[:1], lo[:1])),
                           np.concatenate((hi, lo[:1], lo[:1])),
                           np.concatenate((t, t[:1], t[:1])))
                          for f, lo, hi, t in
                          _region_pieces(spec, z_a, z_b, tol)[:2]]
                runs = [(f, len(lo)) for f, lo, _, _ in pieces]
                merged = quad.integrate(
                    runs, *(np.concatenate(x) for x in
                            zip(*(p[1:] for p in pieces))), split=split)
                per_region = [quad.integrate(*p) for p in pieces]
                for m, w in zip(merged, zip(*per_region)):
                    w = np.concatenate(w)
                    assert m.dtype == w.dtype
                    assert (m.view(np.int64) == w.view(np.int64)).all()
        assert isinstance(got, list) != case.startswith("nan")

    @pytest.mark.parametrize("split", [False, True])
    def test_signed_increments_reversed(self, split):
        spec = ExtremalSpec(*self.WEIGHTS["2.5*z^1.3"])
        z_split = spec._near[0]
        z_from = np.array([3.0 * z_split, spec.z_turn, 0.5 * z_split])
        z_to = np.array([spec.z_turn, 2.0 * z_split, 0.5 * z_split])
        got = reduced_ode._increments(spec, z_from, z_to, 1e-13)
        assert _outcome(lambda: got) == _outcome(
            lambda: _two_call_increments(spec, z_from, z_to, 1e-13, split))
        assert got[0][0] < 0.0 < got[0][1] and got[0][2] == 0.0
        # each angle is minus that of its interval taken upwards
        up = reduced_ode._increments(spec, np.minimum(z_from, z_to),
                                     np.maximum(z_from, z_to), 1e-13)[0]
        assert got[0].tolist() == [-up[0], up[1], up[2]]

    @pytest.mark.parametrize("from_turn", [False, True])
    def test_near_refinement_failure_wins_over_far_error(self, from_turn,
                                                         monkeypatch):
        # the far integrand raises; a near piece fails only on refinement
        # (tol below its round-off floor: near pieces of about 0.84 at
        # tol/2 = 5e-15): the near failure is raised, as by a near call
        # made before the far one
        far_calls = []

        def raising_far(spec):
            def f(z):
                far_calls.append(np.shape(z))
                raise ForbiddenRegion("far integrand")
            return f
        spec = ExtremalSpec(PowerLaw(0.0), 1.0)
        z_split = spec._near[0]
        # integrate_phi's split first call raises, so the driver makes the
        # near and far calls itself
        z_a = np.array([spec.z_turn * (1.0 if from_turn else 1.0 + 1e-6)])
        z_b = np.array([3.0 * z_split])

        def angles(tol):
            if from_turn:
                return integrate_phi(spec, z_b, tol)
            return reduced_ode._increments(spec, z_a, z_b, tol)
        with pytest.raises(QuadratureFailure, match="round-off") as want:
            _two_call_increments(spec, z_a, z_b, 1e-14, from_turn)
        monkeypatch.setattr(reduced_ode, "_far_integrand", raising_far)
        with pytest.raises(QuadratureFailure,
                           match=f"^{re.escape(str(want.value))}$"):
            angles(1e-14)
        # the shared first call only
        assert len(far_calls) == 1
        # with a near piece that meets tol, the far error is raised
        with pytest.raises(ForbiddenRegion, match="far integrand"):
            angles(1e-10)


@pytest.mark.parametrize("text", sorted(collocation_reference.CASES))
def test_collocation_reference_matches_integrate_phi(text):
    # an Euler-Lagrange solve with no first integral, turning radius or
    # quadrature, for weights that are not power laws: Clairaut's constant
    # holds at every node, and each node's angle is integrate_phi's
    spec, sol = collocation_reference.case(text)
    clairaut, angle = collocation_reference.gaps(spec, sol)
    assert clairaut <= 1e-12
    assert angle <= 1e-12
    assert sol.tail <= 1e-12   # the Chebyshev series is resolved at N


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
                got = integrate_phi(spec, z, 1e-12)
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
        flipped = trace_extremal(ExtremalSpec(PowerLaw(1.0), -1.0), 2.0,
                                 50)
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
        with pytest.raises(DomainError, match="^unknown grid 'log'$"):
            trace_extremal(spec, 2.0, 50, grid="log")
        # a count numpy refuses to size fails as bad input, not ValueError
        for grid in ("cosine", "uniform-phi"):
            with pytest.raises(DomainError, match="at most 100000000 "):
                trace_extremal(spec, 2.0, 10 ** 20, grid=grid)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
    def test_tolerance_validated_before_quadrature(self, tol, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")
        # tracing enters quadrature through the batched panels and the
        # adaptive core
        for name in ("integrate", "kronrod_panels"):
            monkeypatch.setattr(reduced_ode.quadrature, name, no_quadrature)
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        with pytest.raises(DomainError, match="tol"):
            trace_extremal(spec, 3.0, 50, tol=tol)

    def test_round_off_limited_tolerance_fails_fast(self, monkeypatch):
        # the long intervals of a 3-sample grid cannot meet tol 1e-14 / 2
        calls = []

        def counted(integrand):
            def make(spec):
                f = integrand(spec)

                def g(z):
                    calls.append(1)
                    return f(z)
                return g
            return make

        for name in ("_near_integrand", "_far_integrand"):
            monkeypatch.setattr(reduced_ode, name,
                                counted(getattr(reduced_ode, name)))
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
        # the closed-form psi is ill-conditioned at z* itself (sqrt of a
        # rounding error, ~1e-8), so the shared turning sample is checked
        # exactly
        turn = count - 1
        assert z[turn] == spec.z_turn and phi[turn] == phi0
        curve = PowerLawCurve(lam, n)
        for k in range(len(z)):
            if k != turn:
                psi = closed_form_reference.psi(curve, z[k])
                assert abs(abs(phi[k] - phi0) - psi / (lam + 1.0)) <= 1e-10
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
        many = reduced_ode.quadrature.kronrod_panels

        def panels(f, a, b):
            log.extend((f, x, y) for x, y in
                       zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
            return many(f, a, b)
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

    @pytest.mark.parametrize("z", [2e299, [1e200, 1e220, 2e299, 1e300]])
    def test_deviation_overflow_names_the_first_radius(self, z):
        # v*z = z^(4/3) overflows from z ~ 1.6e231 on; the deviation read
        # NaN there, and a trace printed it
        with pytest.raises(DomainError, match=re.escape(
                "the first-integral deviation is not finite at z = 2e+299: "
                "v(z)*z overflows")):
            first_integral_deviation(PowerLaw(1 / 3), 1e-300, z)

    def test_cases_cover_fallback_and_straddle(self, fallbacks):
        straddles = 0
        for case in _BATCH_CASES:
            spec, z_max, count, tol = self._setup(case)
            zs = reduced_ode._cosine_z_grid(spec, z_max, count)
            z_split = spec._near[0]
            straddles += int(np.sum((zs[:-1] < z_split) & (zs[1:] > z_split)))
            reduced_ode._cumulative_phi(spec, zs, tol)
        # straddling intervals, and first panels that miss the tolerance
        assert straddles >= 1
        assert len(fallbacks) >= 1

    @pytest.mark.parametrize("case,integral_panels", [
        ("five samples, wide", 18), ("five samples", 14)])
    def test_no_panel_evaluated_twice(self, case, integral_panels,
                                      panel_log):
        # these grids have batched first panels that miss tol; refinement
        # starts from them instead of evaluating them again.  integrate_phi
        # from z* also evaluates each first bisection with the first
        # panels, which costs the near/far pair of "five samples" 2 panels
        # that its plain refinement would not evaluate
        spec, z_max, count, tol = self._setup(case)
        zs = reduced_ode._cosine_z_grid(spec, z_max, count)
        reduced_ode._cumulative_phi(spec, zs, tol)
        assert len(panel_log) > count - 1
        assert len(set(panel_log)) == len(panel_log)
        panel_log.clear()
        integrate_phi(spec, z_max, 1e-13)
        assert len(set(panel_log)) == len(panel_log) == integral_panels

    def test_trace_reports_panels_and_estimate(self):
        spec = ExtremalSpec(PowerLaw(1.0), 1.0)
        tr = trace_extremal(spec, 3.0, 200, tol=1e-10)
        assert tr.panels >= 199
        assert 0.0 < tr.error_estimate <= 1e-10
        uni = trace_extremal(spec, 3.0, 60, tol=1e-10, grid="uniform-phi")
        assert uni.panels > 8 * 60
        assert uni.error_estimate > 0.0
