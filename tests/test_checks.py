import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial_extremals import (DomainError, ExtremalSpec, PowerLaw, checks,
                              el_residual, integrate_phi, parse_weight)
from radial_extremals import quadrature
from radial_extremals.reduced_ode import trace_extremal


def _passes(row):
    _, value, limit, cmp = row
    return value <= limit if cmp == "<=" else value >= limit


def _failed(rows):
    return {row[0] for row in rows if not _passes(row)}


def _perturb(monkeypatch, amplitude):
    """Make gates trace curves whose phi is off by amplitude*sin(3*phi)."""
    def perturbed(spec, z_max, count, tol=1e-12):
        tr = trace_extremal(spec, z_max, count, tol=tol)
        return dataclasses.replace(
            tr, phi=tr.phi + amplitude * np.sin(3.0 * tr.phi))
    monkeypatch.setattr(checks, "trace_extremal", perturbed)


@pytest.mark.parametrize("weight, n, z_max, names", [
    (PowerLaw(1.3), 1.1, 3.0, 5),
    (parse_weight("2.5*z^1.3"), 1.1, 2.0, 3),
    (PowerLaw(0.0), 1.0, 3.0, 5),        # straight line: machine-level gate
    (PowerLaw(-1.0), 1.5, 3.0, 1),       # logarithmic spiral, no trace
    # the closed-form gate's angles reach 70 rad, 63.5 of them past the
    # handoff at 1.524*z*: more than the 45 rad whose round-off floor
    # fits in half of its tol 1e-12
    (PowerLaw(-0.98), 1.0, 3.0, 5),
])
def test_clean_trace_passes_every_gate(weight, n, z_max, names):
    rows = checks.gates(weight, n, z_max, 200, 1e-12)
    assert len(rows) == names
    assert _failed(rows) == set()


@pytest.mark.parametrize("weight, n, z_max", [
    (PowerLaw(1.0), 1.0, 3.0), (parse_weight("2.5*z^1.3"), 1.1, 2.0),
    (parse_weight("1/(1+z^2)"), 3.0, 0.9), (PowerLaw(-1.0), 1.5, 3.0)])
def test_negative_n_gives_the_mirrored_curve_s_rows(weight, n, z_max):
    # the gates used the signed n: the closed-form gate raised TypeError
    # on a complex radius, and the slope identity read -2 and passed; the
    # spiral gate refused any negative n as below 1
    rows = checks.gates(weight, n, z_max, 200, 1e-12)
    assert checks.gates(weight, -n, z_max, 200, 1e-12) == rows
    assert _failed(rows) == set()


def test_spiral_gates_below_n_one_raise_domain_error():
    # sqrt(n^2 - 1) used to run first and raise ValueError
    with pytest.raises(DomainError,
                       match="^log-spiral extremals require n >= 1$"):
        checks.gates(PowerLaw(-1.0), 0.5, 2.0, 200, 1e-12)


def test_sample_count_not_an_integer_raises_domain_error():
    # it used to reach np.linspace and raise TypeError
    with pytest.raises(DomainError, match="^num_samples must be an integer"):
        checks.gates(PowerLaw(1.0), 1.0, 3.0, 5.5, 1e-12)


def test_spiral_gates_at_n_one_take_the_perpendicular_marker():
    # t = 0: the circle z = 1, every tangent perpendicular to the radius
    rows = checks.gates(PowerLaw(-1.0), 1.0, 2.0, 200, 1e-12)
    assert [row[1] for row in rows] == [0.0]


def test_perturbed_phi_fails_slope_and_stationarity(monkeypatch):
    _perturb(monkeypatch, 1e-3)
    rows = checks.gates(parse_weight("2.5*z^1.3"), 1.1, 2.0, 200, 1e-12)
    assert _failed(rows) == {"slope identity vs finite differences",
                             "stationarity residual convergence factor"}


@pytest.mark.parametrize("weight, z_max, amplitude, gate", [
    (parse_weight("2.5*z^1.3"), 2.0, 1e-4,
     "stationarity residual convergence factor"),
    (PowerLaw(1.3), 3.0, 1e-5, "algebraic relation residual"),
])
def test_smaller_perturbations_are_caught(monkeypatch, weight, z_max,
                                          amplitude, gate):
    _perturb(monkeypatch, amplitude)
    assert gate in _failed(checks.gates(weight, 1.1, z_max, 200, 1e-12))


def test_max_el_residual_needs_a_five_sample_run():
    x = np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])
    y = 1.0 + 0.1 * x * x
    assert checks.max_el_residual(x, y, PowerLaw(1.0)) is None
    x5 = np.append(x[:4], 4.0)
    assert checks.max_el_residual(x5, 1.0 + 0.1 * x5 * x5,
                                  PowerLaw(1.0)) is not None


@pytest.mark.parametrize("weight", [PowerLaw(1.3), parse_weight("2.5*z^1.3")])
def test_max_el_residual_matches_point_lists(weight):
    tr = trace_extremal(ExtremalSpec(weight, 1.1), 2.0, 200)
    worst = None
    for a, b in checks._monotone_runs(tr.x):
        pts = list(zip(tr.x[a:b + 1].tolist(), tr.y[a:b + 1].tolist()))
        if pts[0][0] > pts[-1][0]:
            pts.reverse()
        peak = float(np.abs(el_residual(pts, weight)[1:-1]).max())
        worst = peak if worst is None else max(worst, peak)
    assert checks.max_el_residual(tr.x, tr.y, weight) == worst


@pytest.mark.parametrize("weight", [PowerLaw(1.3), parse_weight("1.0*z^1.3")])
def test_closed_form_row_is_one_call_per_angle(weight, monkeypatch):
    n, k = 1.1, 2.3
    spec = ExtremalSpec(weight, n)
    psis = np.linspace(0.0, 1.4, 15)[1:].tolist()
    zs = [(n * math.cos(psi)) ** (-1.0 / k) for psi in psis]
    separate = [integrate_phi(spec, z, 1e-12) for z in zs]
    batched = integrate_phi(spec, zs, 1e-12)
    assert batched.tolist() == separate
    # integrate_phi takes each first bisection from its split first call;
    # the plain path (taken where that call fails) gives every bit of them
    pieces = []

    def plain(runs, lo, hi, tol, split=False, _f=quadrature.integrate):
        pieces.append((split, len(lo)))
        return _f(runs, lo, hi, tol)
    monkeypatch.setattr(quadrature, "integrate", plain)
    assert integrate_phi(spec, zs, 1e-12).tobytes() == batched.tobytes()
    # nine radii inside the handoff, one near piece shared by the five
    # beyond it, and their five far pieces (19 pieces when each radius
    # beyond the handoff had its own near piece)
    assert pieces == [(True, 15)]
    monkeypatch.undo()
    worst = 0.0
    for psi, got in zip(psis, separate):
        worst = max(worst, abs(got - psi / k))
    if isinstance(weight, PowerLaw):
        rows = dict((row[0], row[1])
                    for row in checks.gates(weight, n, 3.0, 50, 1e-12))
        assert rows["quadrature vs closed form"] == worst


def _reference_runs(x):
    """Maximal strictly monotone runs of at least 5 samples, step by step."""
    runs, start, direction = [], 0, 0
    for i in range(1, len(x)):
        d = 1 if x[i] > x[i - 1] else (-1 if x[i] < x[i - 1] else 0)
        if d == 0 or (direction and d != direction):
            runs.append((start, i - 1, direction))
            start, direction = (i - 1 if d else i), d
        else:
            direction = d
    runs.append((start, len(x) - 1, direction))
    return [(a, b) for a, b, d in runs if d and b - a + 1 >= 5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
def test_monotone_runs_match_stepwise_scan(steps):
    x = np.cumsum(np.array(steps, dtype=float))
    assert checks._monotone_runs(x) == _reference_runs(x)
