import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radial_extremals import (DomainError, DomainViolation, EvalError,
                              OracleResult, PowerLaw,
                              PowerLawCurve, Polyline, StalledDescent, cli,
                              discrete_oracle, eval_v, eval_vq,
                              functional_value, gradient, minimize,
                              parse_weight, power_law_point)
from radial_extremals.weights import eval_vq2

import job_manifest


def chord(a, b, segments):
    ts = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return Polyline(np.array([a]) * (1.0 - ts) + np.array([b]) * ts)


def closed_form_polyline(lam, n, psi_lo, psi_hi, count):
    c = PowerLawCurve(lam, n)
    pts = [power_law_point(c, float(s))
           for s in np.linspace(psi_lo, psi_hi, count)]
    return Polyline(np.array([(p.z * math.sin(p.phi), p.z * math.cos(p.phi))
                              for p in pts]))


def dense(diag, upper):
    """The (2m)^2 matrix of a block-tridiagonal Hessian, its blocks added
    into zeros, which turns a coupling entry of -0.0 into +0.0."""
    m = len(diag)
    full = np.zeros((m, 2, m, 2))
    i = np.arange(m)
    full[i, :, i, :] += diag
    full[i[:-1], :, i[1:], :] += upper
    full[i[1:], :, i[:-1], :] += upper.transpose(0, 2, 1)
    return full.reshape(2 * m, 2 * m)


def hessian(pl, w):
    seg = discrete_oracle._segment_data(pl.vertices)
    return dense(*discrete_oracle._hessian(seg, *eval_vq2(w, seg[3])))


def random_polyline(rng, count=9):
    base = np.array([rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)])
    steps = rng.uniform(-0.15, 0.15, size=(count - 1, 2)) + [0.12, 0.0]
    return Polyline(np.vstack([base, base + np.cumsum(steps, axis=0)]))


def zigzag_in_y():
    """The chord (0, 0.5)-(1, 0.5) with its interior vertices 0.01 up and
    down in turn: near x = 1 the rays through them are out of angular
    order, and the minimizer on those rays folds (value 1.142 against the
    chord's 1.0)."""
    xs = np.linspace(0.0, 1.0, 66)
    ys = np.full(66, 0.5)
    ys[1:-1] += 0.01 * np.where(np.arange(1, 65) % 2 == 0, 1.0, -1.0)
    return np.column_stack([xs, ys])


class TestPolyline:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_vertex_raises(self, bad, column):
        verts = np.array([(-1.0, 1.0), (0.0, 1.5), (1.0, 1.0)])
        verts[1, column] = bad
        want = [0.0, 1.5]
        want[column] = bad
        with pytest.raises(DomainError, match=re.escape(
                f"vertex 1 is not finite: {want}")):
            Polyline(verts)

    @pytest.mark.parametrize("verts", [
        [("0", "1"), ("1", "1")], [(0.0, 1.0), (1.0, 1j)],
        [(0.0, 1.0), (1.0, None)], [(True, False), (False, True)]])
    def test_vertex_that_is_not_a_real_number_raises(self, verts):
        # np.array(..., dtype=float) parsed the strings, took True for 1.0
        # and None for NaN, and raised TypeError for the complex number
        with pytest.raises(DomainError, match="^polyline vertices must be "
                                              "real numbers$"):
            Polyline(verts)

    def test_real_numbers_of_any_type_build(self):
        # a Fraction and an int beyond int64 make an object array
        pl = Polyline([(Fraction(1, 2), 1), (2**70, np.float32(0.5))])
        assert pl.vertices.tolist() == [[0.5, 1.0], [2.0**70, 0.5]]

    def test_the_first_non_finite_vertex_is_named(self):
        # before the distinctness check, which two equal infs would fail
        with pytest.raises(DomainError, match=r"^vertex 2 is not finite: "
                                              r"\[inf, 1.0\]$"):
            Polyline([(0.0, 1.0), (1.0, 1.0), (math.inf, 1.0),
                      (math.inf, 1.0), (math.nan, 2.0)])


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
        with pytest.raises(DomainError):
            Polyline([0.0, 1.0])
        with pytest.raises(DomainError):
            Polyline(np.ones((3, 3)))

    def test_polyline_copies_its_array(self):
        verts = np.array([[0.0, 1.0], [0.5, 1.2], [1.0, 1.0]])
        pl = Polyline(verts)
        verts[1] = verts[0]
        assert pl.vertices.tolist() == [[0.0, 1.0], [0.5, 1.2], [1.0, 1.0]]


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
            hess = hessian(pl, w)
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


    def test_non_finite_blocks_raise(self):
        # v'' = 0.75*z^-2.5 overflows at radii near 1e-130, where v and q
        # are finite
        pl = chord((-1e-130, 1e-130), (1e-130, 1e-130), 4)
        w = PowerLaw(-0.5)
        assert np.isinf(eval_vq2(w, np.array([1.25e-130]))[2]).all()
        with pytest.raises(EvalError, match="Hessian is not finite at the "
                           r"midpoint radius z = 1\.2500000000000001e-130"):
            hessian(pl, w)
        with pytest.raises(DomainViolation, match="current polyline left"):
            minimize(pl, w, 5, 0.0)


@st.composite
def tridiagonal_systems(draw):
    """Diagonal (m,) and off-diagonal (m-1,) of L L' for a random lower
    bidiagonal L, its diagonal in [0.1, 2], and a right-hand side (m,)."""
    m = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = np.diag(rng.uniform(0.1, 2.0, m)) \
        + np.diag(rng.uniform(-1.0, 1.0, m - 1), -1)
    full = low @ low.T
    return np.diag(full).copy(), np.diag(full, 1).copy(), \
        rng.uniform(-1.0, 1.0, m)


def tridiagonal(diag, upper):
    return np.diag(diag) + np.diag(upper, 1) + np.diag(upper, -1)


class TestTridiagonalSolve:
    @settings(max_examples=200, deadline=None)
    @given(system=tridiagonal_systems(),
           shift=st.sampled_from([0.0, 1e-8, 1e-3, 1.0, 1e3]))
    def test_matches_dense_solve(self, system, shift):
        diag, upper, rhs = system
        mat = tridiagonal(diag, upper) + shift * np.eye(len(diag))
        got = discrete_oracle._tridiagonal_solve(diag, upper, shift, rhs)
        want = np.linalg.solve(mat, rhs)
        cond = np.linalg.cond(mat)
        assert got.shape == rhs.shape
        assert np.linalg.norm(mat @ got - rhs) \
            <= 1e-13 * cond * np.linalg.norm(rhs)
        assert np.linalg.norm(got - want) \
            <= 1e-13 * cond * np.linalg.norm(want)

    @pytest.mark.parametrize("index", [0, 3, 6])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan])
    def test_a_pivot_that_is_not_positive_gives_none(self, index, value):
        # a unit diagonal and small couplings, one diagonal entry replaced:
        # T is not positive definite, as numpy's Cholesky finds
        diag = np.ones(7)
        diag[index] = value
        upper = np.full(6, 0.1)
        if not math.isnan(value):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(tridiagonal(diag, upper))
        assert discrete_oracle._tridiagonal_solve(diag, upper, 0.0,
                                                  np.ones(7)) is None

    def test_shift_is_added_to_the_diagonal(self):
        # T = -I is indefinite; T + 2I = I solves to the right-hand side
        diag, upper, rhs = -np.ones(3), np.zeros(2), np.arange(3.0)
        assert discrete_oracle._tridiagonal_solve(diag, upper, 0.0,
                                                  rhs) is None
        got = discrete_oracle._tridiagonal_solve(diag, upper, 2.0, rhs)
        assert np.array_equal(got, rhs)


class TestMinimize:
    def test_zigzag_converges_to_chord(self):
        # the chord's radii, every other one 2% out and the rest 2% in
        verts = chord((0.0, 0.5), (1.0, 0.5), 65).vertices
        verts[1:-1] *= 1.0 + 0.02 * np.where(np.arange(1, 65) % 2, -1.0,
                                             1.0)[:, None]
        out = minimize(Polyline(verts), PowerLaw(0.0), 50000, 1e-7).polyline
        assert np.abs(out.vertices[:, 1] - 0.5).max() <= 1e-6

    @pytest.mark.parametrize("verts, message", [
        (zigzag_in_y(), "turn both ways about the pole"),
        ([(-1.0, 0.2), (0.0, 0.0), (1.0, 0.2)],
         "interior vertex 1 lies at the pole"),
    ])
    def test_polyline_without_one_way_rays_raises(self, verts, message):
        with pytest.raises(DomainError, match=message):
            minimize(Polyline(verts), PowerLaw(2.0), 20000, 1e-8)

    def test_value_never_increases_with_budget(self):
        pl = chord((-0.6, 1.2), (0.6, 1.2), 24)
        w = PowerLaw(1.0)
        values = [functional_value(minimize(pl, w, iters, 1e-11).polyline, w)
                  for iters in (1, 3, 10, 30, 100)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] <= functional_value(pl, w)

    def test_rotation_equivariance(self):
        w = PowerLaw(1.0)
        pl = chord((-0.5, 1.2), (0.5, 1.2), 12)
        out = minimize(pl, w, 30000, 1e-7).polyline
        beta = 0.7
        rot = np.array([[math.cos(beta), -math.sin(beta)],
                        [math.sin(beta), math.cos(beta)]])
        turned = minimize(Polyline(pl.vertices @ rot.T), w, 30000,
                          1e-7).polyline
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
        out = minimize(chord(a, b, 200), w, 200_000, 3e-7).polyline
        assert len(calls) <= 100
        assert np.abs(gradient(out, w)).max() <= 3e-7

    def test_initial_polyline_outside_domain(self):
        # the caller's own polyline raises the weight's error, as
        # functional_value does, not the DomainViolation of a step
        w = parse_weight("1+sqrt(z-1)")   # undefined below z = 1
        pl = chord((-0.5, 0.8), (0.5, 0.8), 8)
        match = r"^weight value is not finite for ExpressionWeight\('1\+"
        with pytest.raises(EvalError, match=match):
            functional_value(pl, w)
        with pytest.raises(EvalError, match=match):
            minimize(pl, w, 100, 1e-8)

    def test_initial_derivative_fault_is_the_weights(self):
        # v = z^-1/2 is finite at the midpoints 5e-211 but q overflows
        pl = chord((-1e-210, 0.0), (1e-210, 0.0), 2)
        with pytest.raises(EvalError, match=r"^weight derivative is not "
                           r"finite for PowerLaw\('z\^-0.5'\)$"):
            minimize(pl, PowerLaw(-0.5), 100, 1e-8)

    def test_descent_leaving_domain_is_reported(self):
        # v = 1 + sqrt(z - 1) on z > 1: the extremal through these
        # endpoints dips below z = 1, so descent must cross the domain
        # boundary
        w = parse_weight("1+sqrt(z-1)")
        pl = chord((-0.9, 1.3), (0.9, 1.3), 32)
        with pytest.raises(DomainViolation):
            minimize(pl, w, 200000, 1e-10)

    def test_stalled_descent_at_machine_floor(self):
        w = PowerLaw(1.0)
        out = minimize(chord((-0.4, 1.1), (0.4, 1.1), 8), w, 100000,
                       1e-7).polyline
        with pytest.raises(StalledDescent):
            minimize(out, w, 100000, 0.0)

    def test_trial_with_a_vanishing_segment_is_rejected(self, monkeypatch):
        # the first interior vertex lies on the ray through the first end
        # and slides along it into that end until a trial lands on it
        # exactly: that trial's 0/0 gradient must not be computed
        lengths = []
        seg_data = discrete_oracle._segment_data

        def recorded(verts):
            seg = seg_data(verts)
            lengths.append(seg[1].min())
            return seg
        monkeypatch.setattr(discrete_oracle, "_segment_data", recorded)
        with pytest.raises(StalledDescent, match="no decrease after 50"):
            minimize(Polyline([(0.0, 1.0), (0.0, 1.2), (0.5, 1.0),
                               (1.0, 1.0)]), PowerLaw(0.5), 200_000, 3e-7)
        assert 0.0 in lengths

    def test_ray_trial_through_the_pole_is_rejected(self):
        # no z^3 extremal joins ends 1.0 rad apart (its span is below pi/4);
        # radii taken below 0 put midpoints at the pole, where v = 0, and
        # "converged" to 0.0187 from 2.52
        with pytest.raises(StalledDescent, match="no decrease after 50"):
            minimize(chord((-0.65, 1.19), (0.65, 1.19), 6), PowerLaw(3.0),
                     20000, 1e-8)

    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    def test_chord_through_the_pole_needs_no_step(self, lam):
        # its middle vertex lies at the pole, where no ray runs, but the
        # chord is stationary, so no ray is needed
        pl = chord((-1.0, 0.0), (1.0, 0.0), 8)
        out = minimize(pl, PowerLaw(lam), 20000, 1e-8)
        assert (out.iterations, out.rejected, out.converged) == (0, 0, True)
        assert np.array_equal(out.polyline.vertices, pl.vertices)

    @pytest.mark.parametrize("a, b, segments, want", [
        # all rays coincide: a radial chord, and one from the pole, whose
        # first segment can never shrink to the pole
        ((0.0, 1.0), (0.0, 2.0), 8, (2, 0, 1.2190439198443042)),
        ((0.0, 0.0), (1.0, 1.0), 8, (5, 11, 1.1231400530581255)),
        # rounding turns these rays by up to 1.5 ulps of 1 either way
        ((0.3, 0.7), (3.0, 7.0), 8, (3, 0, 13.576975728281838)),
    ])
    def test_radial_chords(self, a, b, segments, want):
        out = minimize(chord(a, b, segments), PowerLaw(0.5), 20000, 1e-8)
        assert (out.iterations, out.rejected, out.value) == want
        assert out.converged

    @pytest.mark.parametrize("x, segments", [(1e200, 4), (1e155, 4),
                                             (2e154, 1_000)])
    def test_non_finite_functional_raises(self, x, segments):
        # v*|segment| overflows, or the finite terms' sum does
        pl = chord((x, 1.0), (-x, 1.0), segments)
        with pytest.raises(EvalError, match="weighted length inf is not"):
            functional_value(pl, PowerLaw(1.0))
        with pytest.raises(EvalError, match="^the weighted length inf is "
                                            "not finite$"):
            minimize(pl, PowerLaw(1.0), 10, 1e-7)

    def test_discrete_conservation_along_minimizer(self):
        # v*z*sin(alpha) at segment midpoints stays constant to 5/N^2
        w = PowerLaw(1.0)
        segments = 48
        out = minimize(chord((-0.65, 1.19), (0.65, 1.19), segments), w,
                       100000, 1e-7).polyline
        verts = out.vertices
        mid = 0.5 * (verts[1:] + verts[:-1])
        seg = verts[1:] - verts[:-1]
        z_mid = np.hypot(mid[:, 0], mid[:, 1])
        sin_alpha = np.abs(mid[:, 0] * seg[:, 1] - mid[:, 1] * seg[:, 0]) \
            / (z_mid * np.hypot(seg[:, 0], seg[:, 1]))
        momentum = eval_v(w, z_mid) * z_mid * sin_alpha
        assert (momentum.max() - momentum.min()) / momentum.mean() \
            <= 5.0 / segments ** 2


class TestNegativeExponents:
    # W = (y + ix)^k with k = lam + 1 carries z^lam*ds to |dW|/k, so the
    # extremal is the W-plane segment [W_a, W_b] and its action is
    # S = |W_b - W_a|/k.  For -1 < lam < 0 the midpoint rule's minimizer is
    # strict and second order, so N^2 times its errors settles whatever
    # path the descent takes.
    @pytest.mark.parametrize("a, b, lam", [
        *(((-0.65, 1.19), (0.65, 1.19), lam) for lam in (-0.9, -0.5, -0.1)),
        ((-1.0, 0.5), (0.8, 1.5), -0.1),
    ])
    def test_value_and_distance_converge_at_second_order(self, a, b, lam):
        k = lam + 1.0

        def w_plane(p):
            return (p[..., 1] + 1j * p[..., 0]) ** k
        w_a, w_b = w_plane(np.array(a)), w_plane(np.array(b))
        action = abs(w_b - w_a) / k
        excess, distance = [], []
        for segments in (16, 32, 64):
            out = minimize(chord(a, b, segments), PowerLaw(lam), 20000, 1e-12)
            assert out.converged
            verts = out.polyline.vertices
            # each vertex's W-plane distance to the segment, over |dW/dz|
            along = np.clip(((w_plane(verts) - w_a) * np.conj(w_b - w_a)).real
                            / abs(w_b - w_a) ** 2, 0.0, 1.0)
            dist = np.abs(w_plane(verts) - (w_a + along * (w_b - w_a))) \
                / (k * np.hypot(verts[:, 0], verts[:, 1]) ** lam)
            excess.append(segments ** 2 * (out.value - action))
            distance.append(segments ** 2 * dist.max())
        # three digits: at lam -0.5 the spread is 3.7e-4 and 1.4e-3
        for scaled in (excess, distance):
            assert 0.0 < min(scaled) and max(scaled) <= 1.002 * min(scaled)


class TestLambdaSweep:
    # chords between the points +-psi of the closed-form extremal at n 1.3
    # and phi0 0: free to leave their rays, 38 of these 108 inputs and the
    # README chord at lam 0.5, 0.9 and 1.5 stalled once the gradient along
    # the rays had met grad_tol
    @pytest.mark.parametrize("lam", [-0.9, -0.5, -0.1, 0.0, 0.5, 1.0, 1.5,
                                     2.0, 3.0])
    def test_every_input_converges(self, lam):
        for psi in (0.6, 1.0, 1.2):
            a, b = closed_form_polyline(lam, 1.3, -psi, psi, 2).vertices
            for segments in (6, 16, 24, 48):
                out = minimize(chord(a, b, segments), PowerLaw(lam), 20000,
                               1e-9)
                assert out.converged, (psi, segments)
                # at lam 0 and 1 the minimizer on the rays is a free one
                met = out.max_gradient if lam in (0.0, 1.0) \
                    else out.max_ray_gradient
                assert met <= 1e-9, (psi, segments)

    @pytest.mark.parametrize("lam", [0.5, 0.9, 1.5])
    def test_readme_chord_converges_on_its_rays(self, lam):
        out = minimize(chord((-0.65, 1.19), (0.65, 1.19), 16), PowerLaw(lam),
                       20000, 1e-8)
        # the free gradient does not vanish there: the one rejected trial
        # ends the descent at the minimizer on the rays
        assert (out.converged, out.rejected) == (True, 1)
        assert out.max_ray_gradient <= 1e-8 < out.max_gradient
        assert out.iterations == {0.5: 4, 0.9: 6, 1.5: 7}[lam]


# The dense evaluation that minimize's one-pass evaluation replaced: value,
# gradient and Hessian each build their own segment data and make their own
# weight pass, and the Hessian takes the exact v'' from its pass, then
# scatters its 2x2 blocks into a matrix over all vertices and slices it.

def reference_segment_data(verts):
    delta = verts[1:] - verts[:-1]
    length = np.hypot(delta[:, 0], delta[:, 1])
    mid = 0.5 * (verts[1:] + verts[:-1])
    z_mid = np.hypot(mid[:, 0], mid[:, 1])
    return delta, length, mid, z_mid


def reference_value(verts, w):
    _, length, _, z_mid = reference_segment_data(verts)
    return math.fsum(eval_v(w, z_mid) * length)


def reference_gradient(verts, w):
    delta, length, mid, z_mid = reference_segment_data(verts)
    v, q = eval_vq(w, z_mid)
    unit = delta / length[:, None]
    w_part = (0.5 * q * length / z_mid)[:, None] * mid
    v_unit = v[:, None] * unit
    return (w_part[:-1] + v_unit[:-1]) + (w_part[1:] - v_unit[1:])


def reference_hessian(verts, w):
    delta, length, mid, z_mid = reference_segment_data(verts)
    v, q, v2 = eval_vq2(w, z_mid)
    m_hat = mid / z_mid[:, None]
    e_hat = delta / length[:, None]
    eye = np.eye(2)
    mm = m_hat[:, :, None] * m_hat[:, None, :]
    h_mm = (v2 * length)[:, None, None] * mm \
        + (q * length / z_mid)[:, None, None] * (eye - mm)
    h_me = q[:, None, None] * m_hat[:, :, None] * e_hat[:, None, :]
    h_ee = (v / length)[:, None, None] \
        * (eye - e_hat[:, :, None] * e_hat[:, None, :])
    sym = 0.5 * (h_me + h_me.transpose(0, 2, 1))
    h_aa = 0.25 * h_mm - sym + h_ee
    h_bb = 0.25 * h_mm + sym + h_ee
    h_ab = 0.25 * h_mm + 0.5 * (h_me - h_me.transpose(0, 2, 1)) - h_ee
    k = len(verts)
    full = np.zeros((k, 2, k, 2))
    j = np.arange(k - 1)
    full[j, :, j, :] += h_aa
    full[j + 1, :, j + 1, :] += h_bb
    full[j, :, j + 1, :] += h_ab
    full[j + 1, :, j, :] += h_ab.transpose(0, 2, 1)
    return full.reshape(2 * k, 2 * k)[2:-2, 2:-2]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# lam = 0 and the constant expression "3" have q = 0 (the latter's v, q and
# v'' come back broadcast); sqrt(z-0.5) is undefined below z = 0.5
BIT_WEIGHTS = [
    PowerLaw(0.0), PowerLaw(0.5), PowerLaw(1.0), PowerLaw(2.0),
    parse_weight("1/(1+z^2)"), parse_weight("exp(-z) + 1"),
    parse_weight("3"),
    parse_weight("sqrt(z-0.5)"),
]


@st.composite
def polylines(draw):
    """1 to 64 segments at radii 0.8 to 2.5, turning by 1e-3 to 0.1 rad
    each, so every midpoint lies beyond z = 0.79."""
    k = draw(st.integers(2, 65))
    radii = draw(arrays(float, k, elements=st.floats(0.8, 2.5)))
    turns = draw(arrays(float, k - 1, elements=st.floats(1e-3, 0.1)))
    phi = draw(st.floats(-math.pi, math.pi)) \
        + np.concatenate([[0.0], np.cumsum(turns)])
    return Polyline(np.column_stack([radii * np.sin(phi),
                                     radii * np.cos(phi)]))


class TestOnePassEvaluation:
    @pytest.mark.parametrize("w", BIT_WEIGHTS, ids=repr)
    @settings(max_examples=40, deadline=None)
    @given(pl=polylines())
    def test_matches_dense_reference_bit_for_bit(self, w, pl):
        verts = pl.vertices
        seg = discrete_oracle._segment_data(verts)
        v, q, v2 = eval_vq2(w, seg[3])
        value = discrete_oracle._functional(seg, v)
        grad = discrete_oracle._gradient(seg, v, q)
        hess = dense(*discrete_oracle._hessian(seg, v, q, v2))
        assert bits(value) == bits(reference_value(verts, w))
        want = reference_gradient(verts, w)
        assert grad.shape == want.shape
        assert np.array_equal(bits(grad), bits(want))
        want = reference_hessian(verts, w)
        assert hess.shape == want.shape
        assert np.array_equal(bits(hess), bits(want))
        assert np.array_equal(bits(gradient(pl, w)), bits(grad))
        assert bits(functional_value(pl, w)) == bits(value)

    @pytest.mark.parametrize("text, verts", [
        ("2 - z^2", [(0.2, 1.2), (0.0, 1.0), (0.0, 0.6), (0.2, 0.5)]),
        ("2 - z^2", [(1.2, 0.2), (1.0, 0.0), (0.6, 0.0), (0.5, 0.2)]),
        ("1/(1+z^2)", [(0.1, 0.55), (0.0, 0.5), (0.0, 0.3), (0.1, 0.25)]),
    ])
    def test_signed_zeros_of_a_radial_segment(self, text, verts):
        # with q < 0 and v'' < 0, a segment along an axis towards the pole
        # has an off-diagonal coupling entry of -0.0, which the scatter
        # into zeros turns into +0.0, as the blocks added into zeros do
        pl, w = Polyline(verts), parse_weight(text)
        got = hessian(pl, w)
        assert (got == 0.0).any()
        assert np.array_equal(bits(got),
                              bits(reference_hessian(pl.vertices, w)))

    @pytest.mark.parametrize("text", ["z - 1", "1 + sqrt(z - 1)"])
    def test_hessian_next_to_the_domain_edge_is_finite(self, text):
        # the first midpoint, z = 1.000004, is 4e-6 inside the domain: a
        # central difference of q over z +- 1e-5*z left it and raised, the
        # exact v'' needs no point but the midpoint
        pl = Polyline([(0.0, 1.000002), (0.0, 1.000006), (0.5, 1.5)])
        w = parse_weight(text)
        got = hessian(pl, w)
        assert np.isfinite(got).all()
        assert np.array_equal(bits(got),
                              bits(reference_hessian(pl.vertices, w)))

    # the golden chord stalls short of 1e-8 for z^2 (no minimizer near the
    # extremal), so only the others run to convergence
    @pytest.mark.parametrize("w, iters", [
        *((w, iters) for w in BIT_WEIGHTS for iters in (0, 1, 2, 5)),
        *((w, 20000) for w in BIT_WEIGHTS[:3] + BIT_WEIGHTS[4:])],
        ids=repr)
    def test_result_matches_its_polyline(self, w, iters):
        pl = chord((-0.65, 1.19), (0.65, 1.19), 8)
        out = minimize(pl, w, iters, 1e-8)
        assert isinstance(out, OracleResult)
        assert bits(out.initial_value) == bits(functional_value(pl, w))
        assert bits(out.value) == bits(functional_value(out.polyline, w))
        grad = gradient(out.polyline, w)
        gmax = np.abs(grad).max()
        assert bits(out.max_gradient) == bits(gmax)
        # the rays through the chord's vertices, built for a first step
        inner = pl.vertices[1:-1]
        rays = inner / np.hypot(inner[:, 0], inner[:, 1])[:, None]
        stepped = iters > 0 and np.abs(gradient(pl, w)).max() > 1e-8
        along = np.abs((grad * rays).sum(axis=1)).max() if stepped else gmax
        assert bits(out.max_ray_gradient) == bits(along)
        assert out.converged is bool(min(gmax, along) <= 1e-8)
        assert 0 <= out.iterations <= iters

    def test_iteration_budget(self):
        pl = chord((-0.65, 1.19), (0.65, 1.19), 8)
        w = PowerLaw(1.0)
        out = minimize(pl, w, 0, 1e-8)
        assert (out.iterations, out.rejected, out.converged) == (0, 0, False)
        assert np.array_equal(out.polyline.vertices, pl.vertices)
        for iters in (1, 2, 3):
            assert minimize(pl, w, iters, 1e-8).iterations == iters
        # 5 Hessians and 5 factorizations, as test_work_on_golden_problem
        # counts: none is rejected, and the free gradient meets grad_tol
        full = minimize(pl, w, 20000, 1e-8)
        assert (full.iterations, full.rejected, full.converged) == (5, 0, True)
        assert full.max_gradient <= 1e-8

    def test_no_interior_vertices(self):
        pl = chord((-0.5, 1.0), (0.5, 1.0), 1)
        out = minimize(pl, PowerLaw(1.0), 100, 0.0)
        assert np.array_equal(out.polyline.vertices, pl.vertices)
        assert out.polyline is not pl
        assert (out.initial_value, out.value, out.max_gradient) == (1.0, 1.0,
                                                                    0.0)
        assert (out.iterations, out.rejected, out.converged) == (0, 0, True)

    @pytest.mark.parametrize("grad_tol", [-1.0, -1e-300, math.nan, "1e-7",
                                          None])
    @pytest.mark.parametrize("segments", [1, 8])
    def test_grad_tol_below_zero_or_nan_raises(self, segments, grad_tol):
        # -1 once gave 0/0 damping, a RuntimeWarning and StalledDescent after
        # 50 trials; NaN ran every iteration; a str or None raised TypeError.
        # The weight is undefined on the polyline, so any evaluation would
        # raise EvalError first
        pl = chord((0.0, 1.0), (1.0, 1.0), segments)
        with pytest.raises(DomainError, match="^grad_tol must be >= 0, got "):
            minimize(pl, parse_weight("1+sqrt(z-2)"), 10, grad_tol)

    def test_numpy_scalar_grad_tol_minimizes(self):
        pl = chord((-0.65, 1.19), (0.65, 1.19), 8)
        want = minimize(pl, PowerLaw(1.0), 20, 1e-8)
        for grad_tol in (np.float64(1e-8), np.float32(1e-8)):
            got = minimize(pl, PowerLaw(1.0), 20, grad_tol)
            assert got.value == want.value and got.converged
        assert minimize(pl, PowerLaw(1.0), 20, np.int64(1)).converged

    @pytest.mark.parametrize("max_iters", [-1, 2.5])
    @pytest.mark.parametrize("segments", [1, 8])
    def test_max_iters_not_an_integer_at_least_zero_raises(self, segments,
                                                            max_iters):
        # the weight is undefined on the polyline, so any evaluation would
        # raise EvalError first
        pl = chord((0.0, 1.0), (1.0, 1.0), segments)
        with pytest.raises(DomainError, match=re.escape(
                f"max_iters must be an integer >= 0, got {max_iters}")):
            minimize(pl, parse_weight("1+sqrt(z-2)"), max_iters, 1e-8)

    def test_work_on_golden_problem(self, monkeypatch, capsys):
        # the oracle-lam1 golden run: five steps, each factorization and
        # each trial accepted
        log = []

        def counted(owner, name, entry):
            def wrapper(*args, _f=getattr(owner, name)):
                log.append(entry(args))
                return _f(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(discrete_oracle, "_segment_data", lambda a: "seg")
        counted(discrete_oracle, "_hessian", lambda a: "hess")
        for name in ("eval_v", "eval_vq", "eval_vq2"):
            counted(discrete_oracle, name, lambda a, _n=name: (_n, a[1].size))
        def solved(*args, _solve=discrete_oracle._tridiagonal_solve):
            log.append("chol")
            step = _solve(*args)
            log.append("step")
            return step
        monkeypatch.setattr(discrete_oracle, "_tridiagonal_solve", solved)
        segments = 8
        assert cli.main(["oracle", "--lambda", "1",
                         "--endpoints=-0.65,1.19,0.65,1.19",
                         "--segments", str(segments)]) == 0
        capsys.readouterr()
        hessians, chols, trials = (log.count(e)
                                   for e in ("hess", "chol", "step"))
        assert (hessians, chols, trials) == (5, 5, 5)
        # one segment-data pass per vertex set minimize evaluates: the
        # initial one, whose value the CLI prints, and each trial
        assert log.count("seg") == 1 + trials
        # each followed by its one (v, q, v'') pass at the midpoints, which
        # gives its value and its Hessian's v'' too
        after = [log[i + 1] for i, e in enumerate(log) if e == "seg"]
        assert after == [("eval_vq2", segments)] * (1 + trials)
        # no weight pass inside a Hessian: the factorization comes next
        after = [log[i + 1] for i, e in enumerate(log) if e == "hess"]
        assert after == ["chol"] * hessians
        assert set(log) == {"seg", "hess", "chol", "step",
                            ("eval_vq2", segments)}

    def test_weight_passes_over_the_benchmark_jobs(self, monkeypatch):
        # the benchmark's 70 oracle jobs of seed 1: one weight pass per
        # vertex set, over its midpoints (710 passes and 29,605 points while
        # each Hessian made a second pass over z +- 1e-5*z)
        passes, sets = [], []
        for name in ("eval_v", "eval_vq", "eval_vq2"):
            def counted(w, z, _f=getattr(discrete_oracle, name)):
                passes.append(z.size)
                return _f(w, z)
            monkeypatch.setattr(discrete_oracle, name, counted)

        def segments(verts, _f=discrete_oracle._segment_data):
            sets.append(len(verts) - 1)
            return _f(verts)
        monkeypatch.setattr(discrete_oracle, "_segment_data", segments)
        for workload, _, argv in job_manifest.jobs():
            if workload == "oracle":
                assert job_manifest.run_job(argv)[0] == 0
        assert (len(passes), sum(passes)) == (390, 11207)
        assert passes == sets
