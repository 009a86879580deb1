"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite targets well under two minutes.
"""

import functools
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import radial_extremals as rx
from radial_extremals.cli import main as cli_main


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {label}")
                raise
            print(f"[criterion {num:02d}] PASS  {label}")
            return out
        return wrapper
    return deco


def cartesian(pt):
    return np.array([pt.z * math.sin(pt.phi), pt.z * math.cos(pt.phi)])


def curve_xy(lam, n, psi_values, phi0=0.0):
    c = rx.PowerLawCurve(lam, n, phi0)
    return np.array([cartesian(rx.power_law_point(c, float(s)))
                     for s in psi_values])


def distance_to_polyline(pts, poly):
    a = poly[:-1][None, :, :]
    b = poly[1:][None, :, :]
    d = b - a
    t = np.clip(((pts[:, None, :] - a) * d).sum(-1) / (d * d).sum(-1),
                0.0, 1.0)
    proj = a + t[..., None] * d
    return np.sqrt(((pts[:, None, :] - proj) ** 2).sum(-1)).min(axis=1)


@criterion(1, "first integral conserved along traces (<= 1e-8)")
def test_criterion_01_first_integral_suite():
    for lam in (0.0, 0.5, 1.0, 2.0):
        for n in (0.7, 1.0, 2.5):
            spec = rx.ExtremalSpec(rx.PowerLaw(lam), n)
            tr = rx.trace_extremal(spec, 4.0 * spec.z_turn, 400)
            assert max(tr.clairaut_deviation) <= 1e-8


@criterion(2, "quadrature agrees with the closed form (<= 1e-10)")
def test_criterion_02_two_solutions_agree():
    tol = 1e-12
    for lam in (0.0, 0.5, 1.0, 2.0, 3.0):
        for n in (0.7, 1.0, 2.5):
            spec = rx.ExtremalSpec(rx.PowerLaw(lam), n)
            for psi in np.linspace(0.0, 1.4, 15):
                psi = float(psi)
                z = (n * math.cos(psi)) ** (-1.0 / (lam + 1.0))
                got = rx.integrate_phi(spec, z, tol)
                assert abs(got - psi / (lam + 1.0)) <= 1e-10


@criterion(3, "constant weight degenerates to a straight line (<= 1e-10)")
def test_criterion_03_straight_line():
    spec = rx.ExtremalSpec(rx.PowerLaw(0.0), 2.0)
    tr = rx.trace_extremal(spec, 2.0, 400)
    assert np.abs(tr.y - 0.5).max() <= 1e-10


@criterion(4, "linear weight satisfies z^2 cos 2(phi-phi0) = 1/n (<= 1e-10)")
def test_criterion_04_algebraic_relation():
    n, phi0 = 1.3, 0.3
    spec = rx.ExtremalSpec(rx.PowerLaw(1.0), n, phi0=phi0)
    tr = rx.trace_extremal(spec, 3.0 * spec.z_turn, 51)
    assert len(tr.phi) >= 100
    relation = tr.z ** 2 * np.cos(2.0 * (tr.phi - phi0))
    assert np.abs(relation - 1.0 / n).max() <= 1e-10


@criterion(5, "stationarity residuals converge at second order (>= 3.5)")
def test_criterion_05_el_residual_convergence():
    w = rx.PowerLaw(1.0)
    coarse = curve_xy(1.0, 1.0, np.linspace(0.2, 1.0, 33))
    fine = curve_xy(1.0, 1.0, np.linspace(0.2, 1.0, 65))
    for residual in (rx.el_residual, rx.beltrami_residual):
        r1 = np.abs(residual(coarse, w)[1:-1]).max()
        r2 = np.abs(residual(fine, w)[1:-1]).max()
        assert r1 / r2 >= 3.5


@criterion(6, "discrete minimizer reproduces the analytic extremal")
def test_criterion_06_oracle_equivalence():
    lam, n, segments = 1.0, 1.0, 200
    curve = rx.PowerLawCurve(lam, n)
    a = cartesian(rx.power_law_point(curve, -1.0))
    b = cartesian(rx.power_law_point(curve, 1.0))
    w = rx.PowerLaw(lam)
    ts = np.linspace(0.0, 1.0, segments + 1)[:, None]
    chord = rx.Polyline(a[None, :] * (1.0 - ts) + b[None, :] * ts)

    out = rx.minimize(chord, w, 200_000, 3e-7).polyline
    dense = curve_xy(lam, n, np.linspace(-1.01, 1.01, 4001))
    analytic_value = rx.functional_value(rx.Polyline(
        curve_xy(lam, n, np.linspace(-1.0, 1.0, 4001))), w)
    value = rx.functional_value(out, w)
    assert abs(value - analytic_value) / analytic_value <= 1e-4
    assert distance_to_polyline(out.vertices, dense).max() <= 2e-4

    # discrete conservation: v*z*sin(alpha) at segment midpoints varies by
    # no more than 5/N^2 across the converged polyline
    verts = out.vertices
    mid = 0.5 * (verts[1:] + verts[:-1])
    seg = verts[1:] - verts[:-1]
    z_mid = np.hypot(mid[:, 0], mid[:, 1])
    sin_alpha = np.abs(mid[:, 0] * seg[:, 1] - mid[:, 1] * seg[:, 0]) \
        / (z_mid * np.hypot(seg[:, 0], seg[:, 1]))
    momentum = rx.eval_v(w, z_mid) * z_mid * sin_alpha
    assert (momentum.max() - momentum.min()) / momentum.mean() \
        <= 5.0 / segments ** 2

    rng = np.random.default_rng(19)
    interior = len(out.vertices) - 2
    t = np.linspace(0.0, 1.0, interior)
    for _ in range(50):
        bump = np.zeros((interior, 2))
        for m in range(1, 5):
            bump += np.outer(np.sin(m * math.pi * t),
                             rng.uniform(-1.0, 1.0, 2))
        bump *= 1e-3 / np.abs(bump).max()
        poked = out.vertices.copy()
        poked[1:-1] += bump
        assert rx.functional_value(rx.Polyline(poked), w) > value


@criterion(7, "boundary-value solver recovers n (<= 1e-7 relative, 50 draws)")
def test_criterion_07_bvp_round_trip():
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
        c = rx.PowerLawCurve(lam, n_true, phi0)
        a = rx.power_law_point(c, psi_a)
        b = rx.power_law_point(c, psi_b)
        prob = rx.BvpProblem(a, b, rx.PowerLaw(lam), same_branch=same_branch)
        sol = rx.solve_n(prob, (0.85 * n_true, 1.6 * n_true), 1e-12)
        assert abs(sol.n - n_true) <= 1e-7 * n_true


@criterion(8, "derivative oracles: q, discrete gradient, M/N/P (<= 1e-6)")
def test_criterion_08_derivative_oracles():
    rng = np.random.default_rng(29)

    weights = [rx.PowerLaw(lam) for lam in (-1.5, -1.0, 0.5, 1.0, 2.0)]
    weights += [rx.parse_weight(t) for t in
                ("1/(1+z^2)", "exp(-z)", "sqrt(z)", "2 + sin(z)/4",
                 "log(1+z)+1")]
    for draw in range(100):
        w = weights[draw % len(weights)]
        z = float(rng.uniform(0.2, 5.0))
        h = 1e-6 * max(1.0, z)
        fd = (rx.eval_v(w, z + h) - rx.eval_v(w, z - h)) / (2.0 * h)
        q = rx.eval_q(w, z)
        assert abs(q - fd) <= 1e-6 * (1.0 + abs(q))

    for draw in range(100):
        w = weights[draw % len(weights)]
        base = np.array([rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.0)])
        steps = rng.uniform(-0.1, 0.1, size=(6, 2)) + [0.15, 0.0]
        pl = rx.Polyline(np.vstack([base, base + np.cumsum(steps, axis=0)]))
        grad = rx.gradient(pl, w)
        i = int(rng.integers(1, len(pl.vertices) - 1))
        for axis in (0, 1):
            plus = pl.vertices.copy()
            minus = pl.vertices.copy()
            plus[i, axis] += 1e-6
            minus[i, axis] -= 1e-6
            fd = (rx.functional_value(rx.Polyline(plus), w)
                  - rx.functional_value(rx.Polyline(minus), w)) / 2e-6
            assert abs(grad[i - 1, axis] - fd) <= \
                1e-6 * (1.0 + abs(grad[i - 1, axis]))

    for draw in range(100):
        lam = float(rng.uniform(-2.0, 3.0))
        w = rx.PowerLaw(lam)
        pt = rx.CartesianPoint(float(rng.uniform(0.3, 3.0)),
                               float(rng.uniform(0.3, 3.0)))
        p = float(rng.uniform(-3.0, 3.0))
        parts = rx.lagrangian_partials_cartesian(pt, p, w)

        def V(x, y, slope):
            return rx.eval_v(w, math.hypot(x, y)) \
                * math.sqrt(1.0 + slope * slope)

        h = 1e-6
        fds = ((V(pt.x + h, pt.y, p) - V(pt.x - h, pt.y, p)) / (2 * h),
               (V(pt.x, pt.y + h, p) - V(pt.x, pt.y - h, p)) / (2 * h),
               (V(pt.x, pt.y, p + h) - V(pt.x, pt.y, p - h)) / (2 * h))
        for got, fd in zip((parts.M, parts.N, parts.P), fds):
            assert abs(got - fd) <= 1e-6 * (1.0 + abs(got))


@criterion(9, "logarithmic spiral: first integral and growth law")
def test_criterion_09_log_spiral():
    n = math.sqrt(2.0)
    t = math.sqrt(n * n - 1.0)
    w = rx.PowerLaw(-1.0)
    for phi in np.linspace(-1.5, 2.5, 81):
        pt = rx.log_spiral_point(n, 1.0, float(phi))
        p = 1.0 / (t * pt.z)
        got = rx.clairaut_constant(pt.z, p, w)
        assert abs(got - 1.0 / n) <= 1e-10
    for phi in (-1.0, 0.0, 0.7, 2.0):
        za = rx.log_spiral_point(n, 1.0, phi).z
        zb = rx.log_spiral_point(n, 1.0, phi + 1.0).z
        assert abs(zb / za - math.exp(1.0)) <= 1e-12


@criterion(10, "CLI determinism, formats, and error surfaces")
def test_criterion_10_cli(tmp_path, capsys):
    argv = ["trace", "--lambda", "1", "--n", "1", "--zmax", "3",
            "--samples", "200", "--format", "csv"]
    outs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        assert cli_main(argv + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]

    text = outs[0].decode()
    lines = text.splitlines()
    assert lines[1] == "phi,z,x,y,clairaut_dev"
    assert len(lines) == 2 + 399
    for line in lines[2:]:
        fields = line.split(",")
        assert len(fields) == 5
        float(fields[0])

    assert cli_main(["trace", "--lambda", "1", "--n", "1", "--zmax", "3",
                     "--samples", "50", "--format", "json",
                     "--out", str(tmp_path / "t.json")]) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    assert set(doc) == {"spec", "samples", "diagnostics"}
    assert set(doc["diagnostics"]) == {"z_turn", "max_clairaut_dev",
                                       "max_el_residual", "panels",
                                       "error_estimate"}
    assert len(doc["samples"]) == 99

    assert cli_main(["trace", "--lambda", "1", "--n", "1", "--zmax", "3",
                     "--samples", "50", "--format", "svg",
                     "--out", str(tmp_path / "t.svg")]) == 0
    root = ET.fromstring((tmp_path / "t.svg").read_text())
    tags = [child.tag.split("}")[-1] for child in root]
    assert tags.count("path") == 2 and tags.count("circle") == 2

    code = cli_main(["trace", "--weight", "z +", "--n", "1", "--zmax", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "offset 3" in err
