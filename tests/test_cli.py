import dataclasses
import json
import math
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from radial_extremals import cli, discrete_oracle
from radial_extremals.cli import main
from radial_extremals.errors import ExtremalError
from radial_extremals.reduced_ode import ExtremalSpec, trace_extremal
from radial_extremals.weights import PowerLaw


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTraceCsv:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                           "--zmax", "3", "--samples", "200",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#") and "pi/2 - phi" in lines[0]
        assert lines[1] == "phi,z,x,y,clairaut_dev"
        assert len(lines) == 2 + 399
        row = lines[2].split(",")
        assert len(row) == 5
        phi, z, x, y, dev = map(float, row)
        assert x == pytest.approx(z * math.sin(phi), rel=1e-15)
        assert dev <= 1e-8

    def test_determinism(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run(capsys, "trace", "--lambda", "2", "--n", "1.3",
                             "--zmax", "2.5", "--samples", "50",
                             "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run(capsys, "trace", "--lambda", "0", "--n", "3",
                           "--zmax", "1", "--samples", "5")
        assert code == 0
        z_turn = 1.0 / 3.0
        zs = [float(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert min(zs) == z_turn   # exact binary round trip through text

    def test_psi_range_closed_form(self, capsys):
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                           "--psi-range=-1:1", "--samples", "41")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 + 41
        mid = lines[2 + 20].split(",")
        assert float(mid[1]) == pytest.approx(1.0, rel=1e-12)  # z* at psi=0

    # a function of a constant and an operator on two constants take their
    # own branches of the slope walk
    @pytest.mark.parametrize("text, literal, n, z_max", [
        ("sqrt(2)*z", "1.4142135623730951*z", "1.1", "3"),
        ("z*(1+2)", "z*3", "0.5", "2"),
        ("exp(0)+z", "1+z", "0.8", "3"),
        ("(2-1)*z^2", "1*z^2", "1.3", "3")])
    def test_constant_subexpression_matches_its_literal(self, capsys, text,
                                                        literal, n, z_max):
        got, want = (run(capsys, "trace", "--weight", w, "--n", n,
                         "--zmax", z_max, "--samples", "50")
                     for w in (text, literal))
        assert want[0] == 0 and got == want

    def test_uniform_phi_grid(self, capsys):
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                           "--zmax", "2", "--samples", "20",
                           "--grid", "uniform-phi")
        assert code == 0
        phis = [float(line.split(",")[0]) for line in out.splitlines()[2:]]
        gaps = [b - a for a, b in zip(phis, phis[1:])]
        assert max(gaps) - min(gaps) <= 1e-9

    @pytest.mark.parametrize("samples", ["3", "200"])
    def test_uniform_phi_radii_settle_far_out(self, capsys, samples):
        # z_max = 1e4*z*: two Newton steps left the samples 7.75e-8 (3
        # samples) and 5.07e-11 (200) off the closed form
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run(capsys, "trace", "--lambda", "3", "--n", "1.3",
                           "--zmax", "9365", "--samples", samples,
                           "--grid", "uniform-phi")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert len(rows) == 2 * int(samples) - 1
        with mpmath.workdps(40):
            for phi, z in (map(float, row[:2]) for row in rows):
                if phi != 0.0:   # the turn, where the closed form is flat
                    want = mpmath.acos(1 / (mpmath.mpf(1.3)
                                            * mpmath.mpf(z) ** 4)) / 4
                    assert abs(abs(phi) - float(want)) <= 1e-12, z


class TestTraceJsonSvg:
    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                           "--zmax", "3", "--samples", "50",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"spec", "samples", "diagnostics"}
        assert set(doc["spec"]) == {"weight", "n", "phi0", "orientation"}
        assert len(doc["samples"]) == 99
        assert set(doc["samples"][0]) == {"phi", "z", "x", "y",
                                          "clairaut_dev"}
        diag = doc["diagnostics"]
        assert set(diag) == {"z_turn", "max_clairaut_dev", "max_el_residual",
                             "panels", "error_estimate"}
        assert diag["z_turn"] == pytest.approx(1.0, rel=1e-12)
        assert diag["max_clairaut_dev"] <= 1e-8
        assert diag["max_el_residual"] is not None
        # 49 grid intervals, one of which is split at the near/far handoff
        assert diag["panels"] >= 50
        assert 0.0 < diag["error_estimate"] <= 1e-12

    @pytest.mark.parametrize("n, orientation", [("1", 1), ("-1", -1)])
    def test_json_orientation_is_the_walk_direction(self, capsys, n,
                                                    orientation):
        # the sign of n sets the orientation; phi advances with it
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", n,
                           "--zmax", "2", "--samples", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"]["orientation"] == orientation
        assert doc["spec"]["n"] == float(n)
        phis = [sample["phi"] for sample in doc["samples"]]
        assert np.sign(np.diff(phis)).tolist() == [orientation] * 4
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                           "--psi-range=-1:1", "--samples", "3",
                           "--format", "json")
        assert json.loads(out)["spec"]["orientation"] == 1

    def test_closed_form_json_has_no_quadrature(self, capsys):
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                           "--psi-range=-1:1", "--samples", "30",
                           "--format", "json")
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert diag["panels"] is None and diag["error_estimate"] is None
        assert diag["max_clairaut_dev"] <= 1e-8

    def test_svg_well_formed(self, capsys):
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                           "--zmax", "3", "--samples", "50",
                           "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        kinds = [child.tag.split("}")[-1] for child in root]
        assert kinds.count("path") == 2      # one per branch
        assert kinds.count("circle") == 2    # pole marker + turning circle
        assert "viewBox" in root.attrib

    def test_expression_weight_trace(self, capsys):
        code, out, _ = run(capsys, "trace", "--weight", "1/(1+z^2)",
                           "--n", "3", "--zmax", "0.6", "--samples", "20",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["max_clairaut_dev"] <= 1e-8

    def test_long_flat_sum_traces(self, capsys):
        # the tree walk loops over a chain: 3000 terms do not recurse
        code, out, _ = run(capsys, "trace", "--weight",
                           "+".join(["z"] * 3000), "--n", "1", "--zmax", "3",
                           "--samples", "7")
        assert code == 0 and out.splitlines()[-1].split(",")[1] == "3"


class TestErrors:
    def test_malformed_weight_exits_2(self, capsys):
        code, _, err = run(capsys, "trace", "--weight", "z +", "--n", "1",
                           "--zmax", "2")
        assert code == 2
        assert "offset 3" in err

    def test_weight_source_required_and_exclusive(self, capsys):
        code, _, _ = run(capsys, "trace", "--n", "1", "--zmax", "2")
        assert code == 2
        code, _, _ = run(capsys, "trace", "--lambda", "1", "--weight", "z^2",
                         "--n", "1", "--zmax", "2")
        assert code == 2

    def test_numerical_failure_exits_1(self, capsys):
        # lambda = -1 has no transversal turning point
        code, _, err = run(capsys, "trace", "--lambda", "-1", "--n", "1.5",
                           "--zmax", "2")
        assert code == 1
        assert "TangentialTurningPoint" in err

    @pytest.mark.parametrize("grid", ["cosine", "uniform-phi"])
    def test_profile_dipping_below_one_is_forbidden(self, capsys, grid):
        # n*v*z for 1/(1+z^2) at n = 2.2 falls back below 1 at z ~ 1.56,
        # inside the traced range
        code, out, err = run(capsys, "trace", "--weight", "1/(1+z^2)",
                             "--n", "2.2", "--zmax", "2", "--grid", grid)
        assert code == 1
        assert out == ""
        assert err.startswith("ForbiddenRegion:")

    @pytest.mark.parametrize("grid", ["cosine", "uniform-phi"])
    def test_past_the_luneburg_apocentre_is_forbidden(self, capsys, grid):
        # n*v*z for sqrt(2-z^2) at n = 1.5 falls back to 1 at z2 ~ 1.3211
        code, out, err = run(capsys, "trace", "--weight", "sqrt(2-z^2)",
                             "--n", "1.5", "--zmax", "1.4", "--grid", grid)
        assert code == 1
        assert out == ""
        assert err.startswith("ForbiddenRegion:")

    def test_psi_range_needs_power_law(self, capsys):
        code, _, err = run(capsys, "trace", "--weight", "z^2+1", "--n", "1",
                           "--psi-range", "0.1:1")
        assert code == 2

    def test_psi_range_accepts_a_parsed_power_law(self, capsys):
        argv = ("--n", "1.2", "--psi-range=-1:1")
        code, parsed, err = run(capsys, "trace", "--weight", "z^1.3", *argv)
        assert code == 0 and err == ""
        assert run(capsys, "trace", "--lambda", "13/10", *argv) == \
            (0, parsed, "")

    def test_too_few_samples(self, capsys):
        code, _, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                         "--zmax", "2", "--samples", "2")
        assert code == 2


class TestCheck:
    def test_power_law_check_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--lambda", "0", "--n", "2",
                           "--zmax", "2")
        assert code == 0
        assert "PASS max first-integral deviation" in out
        assert "PASS quadrature vs closed form" in out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_expression_weight_check(self, capsys):
        code, out, _ = run(capsys, "check", "--weight", "1/(1+z^2)",
                           "--n", "3", "--zmax", "0.6")
        assert code == 0
        assert "all checks passed" in out

    def test_luneburg_check_passes(self, capsys):
        # the handoff scan of this weight meets its domain edge at sqrt(2)
        code, out, _ = run(capsys, "check", "--weight", "sqrt(2-z^2)",
                           "--n", "1.5", "--zmax", "1.2")
        assert code == 0
        rows = out.splitlines()[:-1]
        assert rows and all(row.startswith("PASS ") for row in rows)
        assert out.splitlines()[-1] == "all checks passed"

    def test_log_spiral_check(self, capsys):
        code, out, _ = run(capsys, "check", "--lambda", "-1", "--n", "1.5",
                           "--zmax", "2")
        assert code == 0
        assert "spiral" in out

    def test_log_spiral_check_with_negative_n(self, capsys):
        # a negative n flips the orientation, as for every other weight;
        # the spiral check exited 1 with "require n >= 1"
        code, out, _ = run(capsys, "check", "--lambda", "-1", "--n=-1.5",
                           "--zmax", "3")
        assert code == 0
        assert out == run(capsys, "check", "--lambda", "-1", "--n", "1.5",
                          "--zmax", "3")[1]
        assert out.splitlines() == [
            "PASS first-integral deviation (spiral): 2.220e-16 (<= 1.0e-10)",
            "all checks passed"]

    @pytest.mark.parametrize("weight, n, z_max, failed", [
        (["--lambda", "1"], "1", "3", [
            "FAIL slope identity vs finite differences: 1.786e-03 "
            "(<= 1.0e-03)",
            "FAIL algebraic relation residual: 1.458e-02 (<= 1.0e-10)",
            "FAIL stationarity residual convergence factor: 2.003e+00 "
            "(>= 3.5e+00)"]),
        (["--weight", "2.5*z^1.3"], "1.1", "2", [
            "FAIL slope identity vs finite differences: 1.198e-03 "
            "(<= 1.0e-03)",
            "FAIL stationarity residual convergence factor: 2.001e+00 "
            "(>= 3.5e+00)"]),
    ])
    def test_perturbed_trace_fails_and_exits_1(self, capsys, monkeypatch,
                                               weight, n, z_max, failed):
        # the gates trace curves whose phi is off by 1e-3*sin(3*phi)
        from radial_extremals import checks

        def perturbed(spec, z_max, count, tol=1e-12):
            tr = trace_extremal(spec, z_max, count, tol=tol)
            return dataclasses.replace(
                tr, phi=tr.phi + 1e-3 * np.sin(3.0 * tr.phi))
        monkeypatch.setattr(checks, "trace_extremal", perturbed)
        code, out, err = run(capsys, "check", *weight, "--n", n,
                             "--zmax", z_max)
        lines = out.splitlines()
        assert (code, err) == (1, "")
        assert [row for row in lines if row.startswith("FAIL")] == failed
        assert lines[-1] == f"{len(failed)} check(s) failed"


class TestOracle:
    def test_line_case_csv(self, capsys):
        code, out, _ = run(capsys, "oracle", "--lambda", "0",
                           "--endpoints", "0,0.5,1,0.5", "--segments", "16",
                           "--iters", "2000", "--grad-tol", "1e-7")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "x,y"
        assert len(lines) == 2 + 17
        ys = [float(line.split(",")[1]) for line in lines[2:]]
        assert max(abs(y - 0.5) for y in ys) <= 1e-6

    def test_json_diagnostics(self, capsys):
        code, out, _ = run(capsys, "oracle", "--lambda", "1",
                           "--endpoints=-0.4,1.1,0.4,1.1",
                           "--segments", "24", "--iters", "20000",
                           "--grad-tol", "1e-7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["diagnostics"]["functional"] <= \
            doc["diagnostics"]["initial_functional"]
        assert doc["diagnostics"]["max_grad_component"] <= 1e-7
        assert doc["diagnostics"]["converged"] is True
        assert len(doc["vertices"]) == 25
        # the Newton work, as OracleResult counts it
        ts = np.linspace(0.0, 1.0, 25)[:, None]
        pl = discrete_oracle.Polyline(np.array([[-0.4, 1.1]]) * (1.0 - ts)
                                      + np.array([[0.4, 1.1]]) * ts)
        result = discrete_oracle.minimize(pl, PowerLaw(1.0), 20000, 1e-7)
        diag = doc["diagnostics"]
        assert (diag["max_ray_grad_component"], diag["iterations"],
                diag["rejected"]) == (result.max_ray_gradient,
                                      result.iterations, result.rejected)
        assert result.iterations > 1
        # a run cut short by --iters still exits 0 but says so
        code, out, _ = run(capsys, "oracle", "--lambda", "1",
                           "--endpoints=-0.4,1.1,0.4,1.1",
                           "--segments", "24", "--iters", "1",
                           "--grad-tol", "1e-7", "--format", "json")
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert min(diag["max_grad_component"],
                   diag["max_ray_grad_component"]) > 1e-7
        assert diag["iterations"] == 1
        assert diag["converged"] is False

    def test_one_segment_returns_the_chord(self, capsys):
        # no interior vertices: nothing to minimize, and nothing to raise
        argv = ("oracle", "--lambda", "1", "--endpoints=-0.5,1,0.5,1",
                "--segments", "1")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["x,y", "-0.5,1", "0.5,1"]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["vertices"] == [[-0.5, 1.0], [0.5, 1.0]]
        assert doc["diagnostics"] == {
            "initial_functional": 1.0, "functional": 1.0,
            "max_grad_component": 0.0, "max_ray_grad_component": 0.0,
            "iterations": 0, "rejected": 0, "converged": True}


_FLOAT_OPTION_CASES = {   # option: (value template, rest of the command)
    "--n": ("{}", ["trace", "--lambda", "1", "--zmax", "3"]),
    "--zmax": ("{}", ["trace", "--lambda", "1", "--n", "1"]),
    "--tol": ("{}", ["trace", "--lambda", "1", "--n", "1", "--zmax", "3"]),
    "--grad-tol": ("{}", ["oracle", "--lambda", "1",
                          "--endpoints=-0.5,1,0.5,1"]),
    "--n-bracket": ("0.9:{}", ["bvp", "--lambda", "1",
                               "--endpoints=-0.5,1.3,0.5,1.3"]),
    "--endpoints": ("-0.5,{},0.5,1.3", ["bvp", "--lambda", "1",
                                         "--n-bracket", "0.9:2.2"]),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", sorted(_FLOAT_OPTION_CASES))
def test_non_finite_float_option_exits_2(capsys, option, value):
    template, rest = _FLOAT_OPTION_CASES[option]
    code, _, err = run(capsys, *rest, f"{option}={template.format(value)}")
    assert code == 2
    assert f"argument {option}: not a finite number" in err


_WEIGHT_OPTION_RUNS = {   # each subcommand's arguments besides --lambda
    "trace": ["--n", "1", "--zmax", "3"],
    "check": ["--n", "1", "--zmax", "3"],
    "oracle": ["--endpoints=-0.5,1,0.5,1"],
    "bvp": ["--endpoints=-0.5,1.3,0.5,1.3", "--n-bracket", "0.9:2.2"],
}


# 1e100000000 is refused before Fraction builds its 10^8-digit numerator,
# which would take many minutes
@pytest.mark.parametrize("lam", ["1e400", "-1e400", "1" * 400 + "/3",
                                 "1e100000000", "inf", "nan"])
@pytest.mark.parametrize("subcommand", sorted(_WEIGHT_OPTION_RUNS))
def test_overflowing_exponent_exits_2(capsys, subcommand, lam):
    # float(Fraction(lam)) raised OverflowError out of every handler
    code, out, err = run(capsys, subcommand, f"--lambda={lam}",
                         *_WEIGHT_OPTION_RUNS[subcommand])
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument --lambda: not a finite number: {lam!r}\n")


# both are 0.0 as floats, but Fraction would build 10^100000000 for either
@pytest.mark.parametrize("lam", ["1e-100000000", "0e100000000"])
def test_decimal_exponent_never_takes_the_exact_parse(capsys, monkeypatch,
                                                      lam):
    argv = ["trace", "--n", "1", "--zmax", "3", "--samples", "3"]
    expected = run(capsys, *argv, "--lambda", "0")

    def refuse(text):
        raise AssertionError(f"exact parse of {text!r}")
    monkeypatch.setattr(cli, "Fraction", refuse)
    assert run(capsys, *argv, "--lambda", lam) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("argv, message", [
    (["trace", "--lambda", "1/0", "--n", "1", "--zmax", "3"],
     "argument --lambda: not a rational number: '1/0'"),
    (["trace", "--lambda", "abc", "--n", "1", "--zmax", "3"],
     "argument --lambda: not a rational number: 'abc'"),
    (["oracle", "--lambda", "1", "--endpoints=1,2,3"],
     "argument --endpoints: expected 4 ','-separated numbers, got '1,2,3'"),
    (["bvp", "--lambda", "0", "--endpoints=-1,1,1,1", "--n-bracket",
      "1:2:3"],
     "argument --n-bracket: expected 2 ':'-separated numbers, got '1:2:3'")])
def test_malformed_option_value_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


class TestBvp:
    def test_bracket_end_outside_endpoint_radius(self, capsys):
        code, _, err = run(capsys, "bvp", "--lambda", "13/10",
                           "--endpoints=-0.5,1.3,0.5,1.3",
                           "--n-bracket", "0.5:3")
        assert code == 1
        assert err.startswith("NoBracket: invalid bracket end")
        assert "at n = 0.5" in err

    def test_line_problem_json(self, capsys):
        code, out, _ = run(capsys, "bvp", "--lambda", "0",
                           "--endpoints=-1.0471975511965976,1,"
                           "1.0471975511965976,1",
                           "--n-bracket", "1.2:3.5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["n"] == pytest.approx(2.0, abs=1e-7)
        assert doc["solution"]["phi0"] == pytest.approx(0.0, abs=1e-9)
        diagnostics = doc["diagnostics"]
        assert set(diagnostics) == {"span_evaluations", "residual"}
        assert diagnostics["span_evaluations"] >= 2
        assert diagnostics["residual"] == \
            doc["solution"]["span"] - 2.0 * 1.0471975511965976
        assert abs(diagnostics["residual"]) <= 1e-10

    def test_bracket_end_at_a_vanishing_base(self, capsys):
        # at n = 1 the turning radius of (z-1)^2 + 1 is endpoint a's radius,
        # where the base of the power is 0
        code, out, _ = run(capsys, "bvp", "--weight", "(z-1)^2+1",
                           "--endpoints=0,1,0.5,1.5", "--n-bracket", "1:3",
                           "--same-branch", "--format", "json")
        assert code == 0
        assert abs(json.loads(out)["diagnostics"]["residual"]) <= 1e-10

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, "bvp", "--lambda", "1",
                           "--endpoints=-0.45,1.3,0.45,1.3",
                           "--n-bracket", "0.9:2.2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "n,phi0,z_turn,span"
        assert len(lines) == 3

    def test_svg_output(self, capsys):
        code, out, _ = run(capsys, "bvp", "--lambda", "1",
                           "--endpoints=-0.45,1.3,0.45,1.3",
                           "--n-bracket", "0.9:2.2", "--format", "svg")
        assert code == 0
        ET.fromstring(out)

    @pytest.mark.parametrize("extra, message", [
        (["--endpoints=-0.5,1.3,0.5,-1.3"],
         "DomainError: endpoint b radius must be positive, got -1.3\n"),
        (["--endpoints=-0.5,0,0.5,1.3"],
         "DomainError: endpoint a radius must be positive, got 0.0\n"),
    ])
    def test_bad_radius_or_tol_fails_fast(self, capsys, extra, message):
        code, out, err = run(capsys, "bvp", "--lambda", "1", *extra,
                             "--n-bracket", "0.9:1.5")
        assert (code, out, err) == (1, "", message)


class TestOutputErrors:
    def test_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "o.csv"
        code, out, err = run(capsys, "trace", "--lambda", "1", "--n", "1.2",
                             "--zmax", "3", "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_directory_as_path_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "oracle", "--lambda", "1",
                             "--endpoints=-0.5,1,0.5,1", "--segments", "8",
                             "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {tmp_path}: Is a directory\n"


class TestBadCounts:
    def test_check_too_few_samples_exits_2(self, capsys):
        code, out, err = run(capsys, "check", "--lambda", "1", "--n", "1",
                             "--zmax", "2", "--samples", "2")
        assert (code, out) == (2, "")
        assert err == "usage error: --samples must be at least 3\n"

    def test_oracle_negative_iters_exits_2(self, capsys):
        argv = ("oracle", "--lambda", "1", "--endpoints=-0.5,1,0.5,1",
                "--segments", "4")
        code, out, err = run(capsys, *argv, "--iters", "-1")
        assert (code, out) == (2, "")
        assert err == "usage error: --iters must be at least 0\n"
        # zero iterations stay valid and return the chord
        code, out, _ = run(capsys, *argv, "--iters", "0")
        assert code == 0
        assert {line.split(",")[1] for line in out.splitlines()[2:]} == {"1"}


class TestBadTolerances:
    """A tolerance no run can meet is a usage error, caught before any
    quadrature or descent."""

    TRACE = ("trace", "--lambda", "1", "--n", "1", "--samples", "5")

    @pytest.mark.parametrize("tol", ["0", "-1e-12"])
    def test_trace_nonpositive_tol_exits_2(self, capsys, tol):
        code, out, err = run(capsys, *self.TRACE, "--zmax", "3",
                             f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err == "usage error: --tol must be positive\n"
        # closed-form sampling runs no quadrature and ignores a positive
        # --tol, but no tol <= 0 is valid in any mode
        for grid in ("cosine", "uniform-phi"):
            code, out, err = run(capsys, *self.TRACE, "--psi-range=-1:1",
                                 f"--tol={tol}", "--grid", grid)
            assert (code, out) == (2, "")
            assert err == "usage error: --tol must be positive\n"
        outs = {run(capsys, *self.TRACE, "--psi-range=-1:1", *tol)
                for tol in ((), ("--tol", "1e-3"), ("--tol", "1e-30"))}
        code, out, err = outs.pop()
        assert not outs and (code, err) == (0, "")
        assert len(out.splitlines()) == 2 + 5

    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_check_nonpositive_tol_exits_2(self, capsys, tol):
        code, out, err = run(capsys, "check", "--lambda", "1", "--n", "1",
                             "--zmax", "2", f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err == "usage error: --tol must be positive\n"

    def test_bvp_negative_tol_exits_2(self, capsys):
        argv = ("bvp", "--lambda", "1", "--endpoints=-0.45,1.3,0.45,1.3",
                "--n-bracket", "0.9:2.2")
        code, out, err = run(capsys, *argv, "--tol=-1")
        assert (code, out) == (2, "")
        assert err == "usage error: --tol must be at least 0\n"
        # 0 stays valid: the search runs until the bracket collapses
        code, out, _ = run(capsys, *argv, "--tol=0")
        assert code == 0 and out.splitlines()[1] == "n,phi0,z_turn,span"

    def test_oracle_negative_grad_tol_exits_2(self, capsys):
        argv = ("oracle", "--lambda", "1", "--endpoints=-1,1,1,1.5",
                "--segments", "4", "--iters", "3")
        code, out, err = run(capsys, *argv, "--grad-tol", "-1")
        assert (code, out) == (2, "")
        assert err == "usage error: --grad-tol must be at least 0\n"
        code, _, _ = run(capsys, *argv, "--grad-tol", "0")
        assert code == 0


class TestParserReuse:
    TRACE = ("trace", "--lambda", "1", "--n", "1.2", "--zmax", "3",
             "--samples", "5")

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        add = cli._add_weight_options
        monkeypatch.setattr(cli, "_add_weight_options",
                            lambda sub: built.append(sub) or add(sub))
        cli._build_parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, *self.TRACE)[0] == 0
            assert run(capsys, "trace", "--samples", "x")[0] == 2
        finally:
            cli._build_parser.cache_clear()
        assert len(built) == 4    # one build: one call per subcommand

    def test_format_does_not_stick(self, capsys):
        code, out, _ = run(capsys, *self.TRACE, "--format", "json")
        assert code == 0 and out.startswith("{")
        code, out, _ = run(capsys, *self.TRACE)
        assert code == 0 and out.splitlines()[1] == "phi,z,x,y,clairaut_dev"

    def test_out_does_not_stick(self, capsys, tmp_path):
        path = tmp_path / "o.csv"
        code, out, _ = run(capsys, *self.TRACE, "--out", str(path))
        assert (code, out) == (0, "")
        written = path.read_bytes()
        code, out, _ = run(capsys, *self.TRACE, "--samples", "7")
        assert code == 0 and len(out.splitlines()) == 2 + 13
        assert path.read_bytes() == written

    def test_usage_error_does_not_break_next_run(self, capsys):
        first = run(capsys, *self.TRACE)
        assert run(capsys, "trace", "--lambda", "1", "--n", "x")[0] == 2
        assert run(capsys, "oracle", "--lambda", "1",
                   "--endpoints=-0.5,1,0.5,1", "--iters", "-1")[0] == 2
        assert run(capsys, *self.TRACE) == first


# Reference writers: the per-value format() and json.dumps paths that the
# %-template writers must reproduce byte for byte.
def _reference_csv(header, rows):
    lines = [f"# {cli._ANGLE_NOTE}", header]
    lines.extend(",".join(format(float(c), ".17g") for c in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _reference_json(doc, keys, rows):
    doc = {**doc, "samples": [dict(zip(keys, row)) for row in rows]}
    return json.dumps(doc, indent=2)


def _reference_path_d(path):
    return "M " + " L ".join(f"{format(x, '.8g')} {format(-y, '.8g')}"
                             for x, y in path)


_SPECIAL = [math.nan, float(np.copysign(math.nan, -1.0)), math.inf,
            -math.inf, -0.0, 0.0, 1.0, 5e-324, -5e-324, 1e300]


def _table(columns, finite=False):
    """Rows holding every special value in every column, then random
    values over many decades."""
    special = [v for v in _SPECIAL if math.isfinite(v) or not finite]
    rng = np.random.default_rng(7)
    cols = [np.roll(special, k) for k in range(columns)]
    head = np.column_stack(cols)
    tail = (rng.standard_normal((40, columns))
            * 10.0 ** rng.integers(-300, 300, (40, columns)))
    return np.vstack((head, tail, -head))


class TestWriters:
    KEYS = ("phi", "z", "x", "y", "clairaut_dev")

    @pytest.mark.parametrize("header", ["phi,z,x,y,clairaut_dev", "x,y",
                                        "n,phi0,z_turn,span"])
    def test_csv_matches_reference(self, header):
        table = _table(header.count(",") + 1)
        assert cli._csv(header, table) == _reference_csv(header,
                                                         table.tolist())
        rows = [tuple(row) for row in table.tolist()]
        assert cli._csv(header, rows) == _reference_csv(header, rows)
        empty = np.empty((0, header.count(",") + 1))
        assert cli._csv(header, empty) == _reference_csv(header, [])
        assert cli._csv(header, []) == _reference_csv(header, [])

    @pytest.mark.parametrize("finite", [True, False])
    def test_json_matches_reference(self, finite):
        table = _table(5, finite)
        doc = {"spec": {"weight": "z^1.0", "n": 1.2},
               "samples": [],
               "diagnostics": {"z_turn": 0.5, "max_el_residual": None}}
        got = cli._json_with_rows(doc, "samples", cli._SAMPLE_RECORD,
                                  table)
        assert got == _reference_json(doc, self.KEYS, table.tolist())
        assert cli._json_with_rows(doc, "samples", cli._SAMPLE_RECORD,
                                   table[:0]) == \
            _reference_json(doc, self.KEYS, [])
        # a weight text that spells the splice marker stays untouched
        doc["spec"]["weight"] = '"samples": []'
        assert cli._json_with_rows(doc, "samples", cli._SAMPLE_RECORD,
                                   table[:3]) == \
            _reference_json(doc, self.KEYS, table[:3].tolist())

    @pytest.mark.parametrize("finite", [True, False])
    def test_json_vertices_match_reference(self, finite):
        table = _table(2, finite)
        doc = {"weight": "z^1.0", "endpoints": [[-1.0, 1.0], [1.0, 1.0]],
               "segments": 3, "vertices": [],
               "diagnostics": {"functional": 2.0, "converged": True}}

        def reference(rows):
            return json.dumps({**doc, "vertices": rows}, indent=2)
        assert cli._json_with_rows(doc, "vertices", cli._VERTEX_RECORD,
                                   table) == reference(table.tolist())
        assert cli._json_with_rows(doc, "vertices", cli._VERTEX_RECORD,
                                   table[:0]) == reference([])
        # a weight text that spells the splice marker stays untouched
        doc["weight"] = '"vertices": []'
        assert cli._json_with_rows(doc, "vertices", cli._VERTEX_RECORD,
                                   table[:3]) == reference(
                                       table[:3].tolist())

    @pytest.mark.parametrize("finite", [True, False])
    def test_svg_paths_match_reference(self, finite):
        table = _table(2, finite)
        paths = [table[:20], table[19:]]
        svg = cli._svg(paths, 1.5 if finite else None)
        for path in paths:
            assert f'<path d="{_reference_path_d(path)}" ' in svg
        assert svg.count("<path ") == 2


def _mirrored_trace_rows():
    trace = trace_extremal(ExtremalSpec(PowerLaw(1.3), 1.1), 2.5, 400)
    return np.column_stack((trace.phi, trace.z, trace.x, trace.y,
                            trace.clairaut_deviation))


# (spell for _spell, the same spelling of one value on its own)
_SPELLINGS = {"%.17g": (cli._g17_spelling, lambda v: format(v, ".17g")),
              "json": (cli._json_spelling, json.dumps)}


class TestSpell:
    def values(self):
        """Special values, a trace's mirrored and repeated values, and the
        same values again with the opposite sign."""
        head = np.concatenate((_SPECIAL, _mirrored_trace_rows().ravel()))
        return np.concatenate((head, -head, head[::-1]))

    @pytest.mark.parametrize("name", sorted(_SPELLINGS))
    def test_matches_per_value_spelling(self, name):
        spell, one = _SPELLINGS[name]
        # a long table, then the special values alone as a short one
        for values in (self.values(), np.array(_SPECIAL * 3)):
            want = [one(v) for v in values.tolist()]
            assert cli._spell(values, spell) == want
            assert cli._spell(values.reshape(3, -1), spell) == want

    @pytest.mark.parametrize("name", sorted(_SPELLINGS))
    def test_each_distinct_magnitude_spelt_once(self, name):
        spell = _SPELLINGS[name][0]
        values = self.values()
        seen = []

        def counted(mags):
            seen.append(list(mags))
            return spell(mags)
        cli._spell(values, counted)
        assert len(seen) == 1
        bits = np.array(seen[0]).view(np.int64)
        assert (bits >= 0).all()   # no sign bit
        assert len(set(bits.tolist())) == len(bits)
        assert set(bits.tolist()) == \
            set(np.abs(values).view(np.int64).tolist())

    # around the table size from which the magnitudes are sorted out, not
    # spelt value by value; each table repeats its magnitudes with both
    # signs
    @pytest.mark.parametrize("size", [1, 2, cli._SORTED - 1, cli._SORTED,
                                      cli._SORTED + 1])
    @pytest.mark.parametrize("name", sorted(_SPELLINGS))
    def test_short_and_long_tables(self, name, size):
        spell, one = _SPELLINGS[name]
        head = self.values()[:(size + 1) // 2]
        values = np.concatenate((head, -head[::-1]))[:size]
        seen = []

        def counted(mags):
            seen.append(list(mags))
            return spell(mags)
        assert cli._spell(values, counted) == [one(v) for v in
                                               values.tolist()]
        assert len(seen) == 1
        spelt = np.array(seen[0]).view(np.int64).tolist()
        if size < cli._SORTED:   # the values as given, signs included
            assert spelt == values.view(np.int64).tolist()
        else:   # each distinct magnitude once
            assert sorted(spelt) == \
                sorted(set(np.abs(values).view(np.int64).tolist()))

    @pytest.mark.parametrize("name", sorted(_SPELLINGS))
    def test_empty(self, name):
        # json.dumps([]) splits into one empty word
        spell = _SPELLINGS[name][0]
        assert cli._spell([], spell) == []
        assert cli._spell(np.empty((0, 5)), spell) == []

    def test_writers_match_reference_on_a_mirrored_trace(self):
        rows = _mirrored_trace_rows()
        header = "phi,z,x,y,clairaut_dev"
        assert cli._csv(header, rows) == _reference_csv(header,
                                                        rows.tolist())
        doc = {"spec": {"n": 1.1}, "samples": []}
        keys = TestWriters.KEYS
        assert cli._json_with_rows(doc, "samples", cli._SAMPLE_RECORD,
                                   rows) == \
            _reference_json(doc, keys, rows.tolist())


# argv -> (exit code, exact standard error, or None for a successful run);
# each of these once escaped cli.run, warned or printed a wrong number
_SWEEP = {
    "spiral-check-below-n-one": (
        ["check", "--lambda", "-1", "--n", "0.5", "--zmax", "2"],
        1, "DomainError: log-spiral extremals require n >= 1\n"),
    "distant-turning-radius": (
        ["trace", "--lambda", "1", "--n", "1e-20", "--zmax", "2e10"],
        0, None),
    "long-far-piece": (
        ["trace", "--lambda", "1", "--n", "1", "--zmax", "1e10",
         "--samples", "3"], 0, None),
    "overflowing-radicand": (
        ["trace", "--lambda", "1", "--n", "1", "--zmax", "1e300",
         "--samples", "3"],
        1, "DomainError: (n*v(z)*z)^2 overflows at z = "
           "2.9591420132505034e+299: the radius is beyond the float range "
           "of the first integral\n"),
    "overflowing-radicand-at-the-top-radius": (
        ["trace", "--lambda", "1", "--n", "1", "--zmax", "1.1586e77",
         "--samples", "3"],
        1, "DomainError: (n*v(z)*z)^2 overflows at z = 1.1586e+77: the "
           "radius is beyond the float range of the first integral\n"),
    "peaked-profile": (
        ["trace", "--weight", "2+sin(3*z)", "--n", "0.75", "--zmax", "1",
         "--tol", "1e-13"], 0, None),
    "check-negative-n": (
        ["check", "--lambda", "1", "--n", "-1", "--zmax", "3"], 0, None),
    # free to leave its ray, the interior vertex slid into an end until a
    # trial landed on it, and 50 rejected trials raised StalledDescent
    "oracle-vanishing-segment": (
        ["oracle", "--lambda", "0.5", "--endpoints=-0.3,1.0,0.9,0.4",
         "--segments", "2"], 0, None),
    # the central difference for v'' took offsets 1e-5*z that underflow to
    # 0 and gave 0/0; v'' = 0 exactly at lam 1
    "oracle-subnormal-chord": (
        ["oracle", "--lambda", "1", "--endpoints=-1e-320,1e-320,1e-320,1e-320",
         "--segments", "4", "--grad-tol", "0", "--iters", "5"], 0, None),
    # v'' = 0.75*z^-2.5 overflows where v and q are finite
    "oracle-non-finite-hessian": (
        ["oracle", "--lambda=-1/2",
         "--endpoints=-1e-130,1e-130,1e-130,1e-130", "--segments", "4",
         "--grad-tol", "0", "--iters", "5"],
        1, "DomainViolation: current polyline left the weight's domain: the "
           "Hessian is not finite at the midpoint radius z = "
           "1.2500000000000001e-130\n"),
    # grad-tol 0 runs to the rounding floor: with the exact v'' the fifth
    # step still lowers the ray gradient (8.0e-16 to 3.6e-16, in units of
    # the chord at 1); the central difference reached that floor in four
    # and the fifth budgeted step raised StalledDescent.  A sixth stalls
    # on both, as the same chord at scale 1 does
    "oracle-rounding-floor-in-five-steps": (
        ["oracle", "--lambda=-1/2",
         "--endpoints=-1e-120,1e-120,1e-120,1e-120", "--segments", "4",
         "--grad-tol", "0", "--iters", "5"], 0, None),
    # the chord's own fault, as the weight raises it: v = z^-1/2 is finite
    # at the midpoints 5e-211, q is not
    "oracle-derivative-eval-error": (
        ["oracle", "--lambda=-1/2", "--endpoints=-1e-210,0,1e-210,0",
         "--segments", "2"],
        1, "EvalError: weight derivative is not finite for "
           "PowerLaw('z^-0.5')\n"),
    "closed-form-overflow": (
        ["trace", "--lambda=-1/2", "--n", "1e-200", "--psi-range=-1:1",
         "--samples", "3"],
        1, "DomainError: z at psi -1.0 = 5.4030230586813976e-201**-2.0 "
           "overflows a float\n"),
    "log-spiral-overflow": (
        ["check", "--lambda", "-1", "--n", "800", "--zmax", "3"],
        1, "DomainError: z0*exp(sqrt(n*n - 1)*phi) overflows a float at "
           "n 800.0, z0 1.0, phi 2.0\n"),
    # the gate's radii run to phi = 2: they overflowed to inf and the
    # weight 1/z read 0 (NonPositiveWeight) where phi = 1 did not overflow
    "log-spiral-radii-overflow": (
        ["check", "--lambda", "-1", "--n", "700", "--zmax", "3"],
        1, "DomainError: z0*exp(sqrt(n*n - 1)*phi) overflows a float at "
           "n 700.0, z0 1.0, phi 2.0\n"),
    "log-spiral-n-squared-overflow": (
        ["check", "--lambda", "-1", "--n", "1e200", "--zmax", "3"],
        1, "DomainError: z0*exp(sqrt(n*n - 1)*phi) overflows a float at "
           "n 1e+200, z0 1.0, phi 2.0\n"),
    "turning-radius-overflow": (
        ["trace", "--lambda=-1/2", "--n", "1e-300", "--zmax", "2"],
        1, "DomainError: the turning radius n**(-1/(lam+1)) overflows a "
           "float at n 1e-300\n"),
    "oracle-overflowing-functional": (
        ["oracle", "--lambda", "1", "--endpoints=1e200,1,-1e200,1",
         "--segments", "4", "--format", "json"],
        1, "EvalError: the weighted length inf is not finite\n"),
    # the damping shift mu*tr(T)/dim overflowed with a warning, and on the
    # second the sum of tr(T) did first; both still stall, as grad-tol 1e-8
    # lies below the gradient's rounding floor at this scale
    "oracle-overflowing-damping": (
        ["oracle", "--weight", "1e300*z", "--endpoints=-1,1,1,1",
         "--segments", "8"],
        1, "StalledDescent: no decrease after 50 rejected steps (value "
           "1.9999999999999998e+300, max gradient 5.760e+284)\n"),
    "oracle-overflowing-damping-trace": (
        ["oracle", "--weight", "1e300*exp(z)", "--endpoints=-1,0.5,0.8,1.5",
         "--segments", "8"],
        1, "StalledDescent: no decrease after 50 rejected steps (value "
           "5.932787922365431e+300, max gradient 8.344e+299)\n"),
    # g dips below 0 next to the turn, and the near integrand's square root
    # warned "invalid value" before the quadrature refused its nan
    "near-integrand-negative-radicand": (
        ["trace", "--weight", "2+sin(1e16*z)", "--n", "0.3", "--zmax", "3",
         "--samples", "5"],
        1, "QuadratureFailure: panel value nan or estimate nan is not "
           "finite\n"),
    "near-integrand-negative-radicand-bvp": (
        ["bvp", "--weight", "2+sin(1e16*z)", "--endpoints=-1,1,1,1.5",
         "--n-bracket", "0.6:3"],
        1, "QuadratureFailure: panel value nan or estimate nan is not "
           "finite\n"),
}


@pytest.mark.parametrize("name", sorted(_SWEEP))
def test_robustness_sweep(name, capsys):
    argv, code, err = _SWEEP[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cli.run(list(argv))
    captured = capsys.readouterr()
    assert got in (0, 1, 2) and got == code
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    if code:
        assert captured.out == "" and captured.err == err
    else:
        assert captured.err == ""
        numbers = [float(tok) for tok in re.split(r"[\s,]+", captured.out)
                   if re.fullmatch(r"[-+]?[\d.]+(e[-+]?\d+)?|[-+]?(nan|inf)",
                                   tok)]
        assert numbers and all(math.isfinite(x) for x in numbers)


def test_vanishing_segment_run_meets_grad_tol_along_its_ray(capsys):
    argv = _SWEEP["oracle-vanishing-segment"][0]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    verts = np.array(doc["vertices"])
    # the ray through the chord's midpoint (0.3, 0.7)
    ray = np.array([0.3, 0.7]) / math.hypot(0.3, 0.7)
    assert np.allclose(verts[1] / np.linalg.norm(verts[1]), ray)
    along = discrete_oracle.gradient(discrete_oracle.Polyline(verts),
                                     PowerLaw(0.5))[0] @ ray
    diag = doc["diagnostics"]
    assert abs(along) <= 1e-8 and diag["max_ray_grad_component"] <= 1e-8
    assert diag["converged"] is True and diag["max_grad_component"] > 1e-3


_GRID_LAMBDAS = ("1e400", "1/3", "-1/2", "-3/2", "0", "1e30", "-1e30",
                 "1e-320", "10/3", "-1", "1" * 400 + "/3")
_GRID_NS = ("1", "1e300", "1e-300", "0.5", "-2", "800")
_GRID_ZMAXES = ("2", "1e300", "1e-300")


def _grid_runs():
    for lam in _GRID_LAMBDAS:
        weight = f"--lambda={lam}"
        for n in _GRID_NS:
            curve = ["--n=" + n]
            for zmax in _GRID_ZMAXES:
                for fmt in ("csv", "json"):
                    yield ["trace", weight, *curve, "--zmax=" + zmax,
                           "--samples", "3", "--format", fmt]
                yield ["check", weight, *curve, "--zmax=" + zmax,
                       "--samples", "5"]
            yield ["trace", weight, *curve, "--psi-range=-1:1",
                   "--samples", "3"]
        yield ["oracle", weight, "--endpoints=-0.5,1,0.5,1", "--segments",
               "4", "--iters", "5", "--format", "json"]
        yield ["bvp", weight, "--endpoints=-0.5,1.3,0.5,1.3",
               "--n-bracket", "0.5:3", "--format", "json"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_run_never_raises_on_a_grid_of_extreme_values(capsys):
    """cli.run keeps its promise over extreme exponents, constants and
    radii: an exit code of 0, 1 or 2, never an exception; a numerical
    failure named by its ExtremalError subclass (or, for check, a failed
    gate reported on standard output); JSON without NaN or Infinity."""
    def names(cls):
        return {cls.__name__}.union(*map(names, cls.__subclasses__()))
    errors = names(ExtremalError)
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for argv in _grid_runs():
            try:
                code = cli.run(argv)
            except Exception as exc:   # noqa: BLE001 - the failure shown
                capsys.readouterr()
                failures.append((argv, f"raised {exc!r}"))
                continue
            out, err = capsys.readouterr()
            gate_failed = (argv[0] == "check" and err == ""
                           and out.endswith(" check(s) failed\n"))
            if code not in (0, 1, 2):
                failures.append((argv, f"exit code {code}"))
            elif (code == 1 and not gate_failed
                  and err.split(":")[0] not in errors):
                failures.append((argv, f"stderr {err[:200]!r}"))
            elif code == 0 and "--format" in argv and argv[-1] == "json":
                try:
                    json.loads(out, parse_constant=_refuse_constant)
                except ValueError as exc:
                    failures.append((argv, f"JSON: {exc}"))
    assert failures == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_with_an_overflowing_first_integral_fails(capsys, fmt):
    # v*z overflows past z ~ 1.6e231: clairaut_dev read nan and the JSON
    # held NaN; the far integrand's 1/(z*sqrt(rad)) goes to its limit 0
    # there without a warning (it warned "overflow encountered in multiply")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "trace", "--lambda", "1/3", "--n",
                             "1e-300", "--zmax", "1e300", "--samples", "3",
                             "--format", fmt)
    assert (code, out) == (1, "")
    assert err == ("DomainError: the first-integral deviation is not finite "
                   "at z = 2.928932188134525e+299: v(z)*z overflows\n")
