import json
import math
import xml.etree.ElementTree as ET

import pytest

from radial_extremals.cli import main


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

    def test_uniform_phi_grid(self, capsys):
        code, out, _ = run(capsys, "trace", "--lambda", "1", "--n", "1",
                           "--zmax", "2", "--samples", "20",
                           "--grid", "uniform-phi")
        assert code == 0
        phis = [float(line.split(",")[0]) for line in out.splitlines()[2:]]
        gaps = [b - a for a, b in zip(phis, phis[1:])]
        assert max(gaps) - min(gaps) <= 1e-9


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
        # a run cut short by --iters still exits 0 but says so
        code, out, _ = run(capsys, "oracle", "--lambda", "1",
                           "--endpoints=-0.4,1.1,0.4,1.1",
                           "--segments", "24", "--iters", "1",
                           "--grad-tol", "1e-7", "--format", "json")
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert diag["max_grad_component"] > 1e-7
        assert diag["converged"] is False


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
