import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radial_extremals import (DomainError, DomainViolation, EvalError,
                              NonPositiveWeight, OracleResult, PowerLaw,
                              PowerLawCurve, Polyline, StalledDescent, cli,
                              discrete_oracle, eval_v, eval_vq,
                              functional_value, gradient, minimize,
                              parse_weight, power_law_point)


def chord(a, b, segments):
    ts = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return Polyline(np.array([a]) * (1.0 - ts) + np.array([b]) * ts)


def closed_form_polyline(lam, n, psi_lo, psi_hi, count):
    c = PowerLawCurve(lam, n)
    pts = [power_law_point(c, float(s))
           for s in np.linspace(psi_lo, psi_hi, count)]
    return Polyline(np.array([(p.z * math.sin(p.phi), p.z * math.cos(p.phi))
                              for p in pts]))


def hessian(pl, w):
    seg = discrete_oracle._segment_data(pl.vertices)
    return discrete_oracle._hessian(seg, *eval_vq(w, seg[3]), w)


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


class TestMinimize:
    def test_zigzag_converges_to_chord(self):
        xs = np.linspace(0.0, 1.0, 66)
        ys = np.full(66, 0.5)
        ys[1:-1] += 0.01 * np.where(np.arange(1, 65) % 2 == 0, 1.0, -1.0)
        out = minimize(Polyline(np.column_stack([xs, ys])), PowerLaw(0.0),
                       50000, 1e-7).polyline
        assert np.abs(out.vertices[:, 1] - 0.5).max() <= 1e-6

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
        w = parse_weight("1+sqrt(z-1)")   # undefined below z = 1
        with pytest.raises(DomainViolation):
            minimize(chord((-0.5, 0.8), (0.5, 0.8), 8), w, 100, 1e-8)

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
        # the end segments shrink until a trial makes one exactly 0: its
        # value ties and its 0/0 gradient must not be computed
        lengths = []
        seg_data = discrete_oracle._segment_data

        def recorded(verts):
            seg = seg_data(verts)
            lengths.append(seg[1].min())
            return seg
        monkeypatch.setattr(discrete_oracle, "_segment_data", recorded)
        with pytest.raises(StalledDescent, match="no decrease after 50"):
            minimize(chord((-0.65, 1.19), (0.65, 1.19), 8), PowerLaw(2.0),
                     200_000, 3e-7)
        assert 0.0 in lengths

    @pytest.mark.parametrize("x, segments", [(1e200, 4), (1e155, 4),
                                             (2e154, 1_000)])
    def test_non_finite_functional_raises(self, x, segments):
        # v*|segment| overflows, or the finite terms' sum does
        pl = chord((x, 1.0), (-x, 1.0), segments)
        with pytest.raises(EvalError, match="weighted length inf is not"):
            functional_value(pl, PowerLaw(1.0))
        with pytest.raises(DomainViolation, match="weighted length inf"):
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


# The dense evaluation that minimize's one-pass evaluation replaced: value,
# gradient and Hessian each build their own segment data, and the Hessian
# evaluates the weight over z_mid and both offsets in one pass, then
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
    h = 1e-5 * z_mid
    v, q = eval_vq(w, np.concatenate([z_mid, z_mid + h, z_mid - h]))
    v = v[:len(z_mid)]
    q, q_up, q_down = q.reshape(3, -1)
    v2 = (q_up - q_down) / (2.0 * h)
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


# lam = 0 and the constant expression "3" have q = 0 (the latter's v and q
# come back broadcast); sqrt(z-0.5) checks the Hessian's offsets next to
# a weight that is undefined below z = 0.5
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
        v, q = eval_vq(w, seg[3])
        value = discrete_oracle._functional(seg, w)
        grad = discrete_oracle._gradient(seg, v, q)
        hess = discrete_oracle._hessian(seg, v, q, w)
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
        # into zeros turns into +0.0
        pl, w = Polyline(verts), parse_weight(text)
        got = hessian(pl, w)
        assert (got == 0.0).any()
        assert np.array_equal(bits(got),
                              bits(reference_hessian(pl.vertices, w)))

    @pytest.mark.parametrize("text, error", [
        ("z - 1", NonPositiveWeight), ("1 + sqrt(z - 1)", EvalError)])
    def test_offsets_raise_what_the_dense_pass_raises(self, text, error):
        # the first midpoint, z = 1.000004, passes, but z - h < 1 does not
        pl = Polyline([(0.0, 1.000002), (0.0, 1.000006), (0.5, 1.5)])
        w = parse_weight(text)
        with pytest.raises(error):
            reference_hessian(pl.vertices, w)
        with pytest.raises(error):
            hessian(pl, w)

    # the golden chord stalls short of 1e-8 for z^0.5, z^2 and sqrt(z-0.5),
    # so only the others run to convergence
    @pytest.mark.parametrize("w, iters", [
        *((w, iters) for w in BIT_WEIGHTS for iters in (0, 1, 2, 5)),
        *((w, 20000) for w in BIT_WEIGHTS[2:3] + BIT_WEIGHTS[4:7])],
        ids=repr)
    def test_result_matches_its_polyline(self, w, iters):
        out = minimize(chord((-0.65, 1.19), (0.65, 1.19), 8), w, iters, 1e-8)
        assert isinstance(out, OracleResult)
        assert bits(out.value) == bits(functional_value(out.polyline, w))
        gmax = np.abs(gradient(out.polyline, w)).max()
        assert bits(out.max_gradient) == bits(gmax)
        assert out.converged is (out.max_gradient <= 1e-8)
        assert 0 <= out.iterations <= iters

    def test_iteration_budget(self):
        pl = chord((-0.65, 1.19), (0.65, 1.19), 8)
        w = PowerLaw(1.0)
        out = minimize(pl, w, 0, 1e-8)
        assert (out.iterations, out.rejected, out.converged) == (0, 0, False)
        assert np.array_equal(out.polyline.vertices, pl.vertices)
        for iters in (1, 2, 3):
            assert minimize(pl, w, iters, 1e-8).iterations == iters
        # 7 Hessians and 9 factorizations, as test_work_on_golden_problem
        # counts: two factorizations failed and no trial was rejected
        full = minimize(pl, w, 20000, 1e-8)
        assert (full.iterations, full.rejected, full.converged) == (7, 2, True)

    def test_no_interior_vertices(self):
        pl = chord((-0.5, 1.0), (0.5, 1.0), 1)
        out = minimize(pl, PowerLaw(1.0), 100, 0.0)
        assert np.array_equal(out.polyline.vertices, pl.vertices)
        assert out.polyline is not pl
        assert (out.value, out.max_gradient) == (1.0, 0.0)
        assert (out.iterations, out.rejected, out.converged) == (0, 0, True)

    def test_work_on_golden_problem(self, monkeypatch, capsys):
        # the oracle-lam1 golden run; the Newton path (Hessians,
        # factorizations, solves) is the dense evaluation's, measured on it
        log = []

        def counted(owner, name, entry):
            def wrapper(*args, _f=getattr(owner, name)):
                log.append(entry(args))
                return _f(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(discrete_oracle, "_segment_data", lambda a: "seg")
        counted(discrete_oracle, "_hessian", lambda a: "hess")
        counted(discrete_oracle, "eval_v", lambda a: ("v", a[1].size))
        counted(discrete_oracle, "eval_vq", lambda a: ("vq", a[1].size))
        counted(np.linalg, "cholesky", lambda a: "chol")
        counted(np.linalg, "solve", lambda a: "solve")
        segments = 8
        assert cli.main(["oracle", "--lambda", "1",
                         "--endpoints=-0.65,1.19,0.65,1.19",
                         "--segments", str(segments)]) == 0
        capsys.readouterr()
        hessians, chols, solves = (log.count(e)
                                   for e in ("hess", "chol", "solve"))
        assert (hessians, chols, solves) == (7, 9, 14)
        # one segment-data pass for the CLI's initial value, then one per
        # vertex set minimize evaluates: the initial one and each trial
        trials = solves // 2
        assert log.count("seg") == 2 + trials
        assert log.count(("v", segments)) == 2 + trials
        # each Hessian's weight pass covers the offsets only
        after = [log[i + 1] for i, e in enumerate(log) if e == "hess"]
        assert after == [("vq", 2 * segments)] * hessians
        # the gradient of the initial polyline and of each accepted trial,
        # each evaluated right after the value it waits for
        assert log.count(("vq", segments)) == 1 + hessians
        assert all(log[i - 1] == ("v", segments)
                   for i, e in enumerate(log) if e == ("vq", segments))
        assert set(log) == {"seg", "hess", "chol", "solve", ("v", segments),
                            ("vq", segments), ("vq", 2 * segments)}
