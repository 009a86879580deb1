"""CLI output must stay byte for byte the same as the saved golden files.

Each golden file under tests/data/golden holds the exact standard output of
one successful run; the file name is the case name below.  Failing runs are
pinned in FAILURES by exit code and exact standard error.

A change that moves output on purpose rewrites every file of CASES from a
fresh run, and leaves FAILURES as they are:

    PYTHONPATH=src python tests/test_golden.py --rewrite
"""

import argparse
import contextlib
import io
from pathlib import Path

import pytest

from radial_extremals.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

_TRACES = {
    "lam13-cosine": ["--lambda", "13/10", "--n", "1.1", "--zmax", "3"],
    "lam13-uniform": ["--lambda", "13/10", "--n", "1.1", "--zmax", "3",
                      "--grid", "uniform-phi"],
    "expr-power": ["--weight", "2.5*z^1.3", "--n", "1.1", "--zmax", "2"],
    "expr-lorentz": ["--weight", "1/(1+z^2)", "--n", "3", "--zmax", "0.9"],
    "psi-range": ["--lambda", "1", "--n", "1.2", "--psi-range=-1:1"],
}

CASES = {
    f"trace-{name}.{fmt}": ["trace", *argv, "--samples", "7",
                            "--format", fmt]
    for name, argv in _TRACES.items() for fmt in ("csv", "json", "svg")
}
CASES.update({
    "check-lam1.txt": ["check", "--lambda", "1", "--n", "1", "--zmax", "3"],
    "check-expr.txt": ["check", "--weight", "2.5*z^1.3", "--n", "1.1",
                       "--zmax", "2"],
    "check-spiral.txt": ["check", "--lambda", "-1", "--n", "1.5",
                         "--zmax", "3"],
    "bvp.csv": ["bvp", "--lambda", "0", "--endpoints=-1.047,1,1.047,1",
                "--n-bracket", "1.2:3.5"],
    "bvp.svg": ["bvp", "--lambda", "0", "--endpoints=-1.047,1,1.047,1",
                "--n-bracket", "1.2:3.5", "--format", "svg"],
    # a batched first panel that misses tol and is refined from itself
    "trace-refined-panel.csv": ["trace", "--lambda", "13/10", "--n", "0.9",
                                "--zmax", "10", "--samples", "5"],
    "trace-expr-uniform.csv": ["trace", "--weight", "1/(1+z^2)", "--n", "3",
                               "--zmax", "0.9", "--grid", "uniform-phi",
                               "--samples", "7"],
    "bvp-expr.json": ["bvp", "--weight", "1+z", "--endpoints=-1,1,1,2",
                      "--n-bracket", "0.6:3", "--format", "json"],
    # one endpoint radius inside the near/far handoff (1.088 at n 1.2),
    # one outside it
    "bvp-same-branch.csv": ["bvp", "--weight", "sqrt(1+z^3)",
                            "--endpoints=0.362576,0.75,0.971483,2",
                            "--n-bracket", "1.13:2", "--same-branch"],
    # enough samples that the trace JSON samples array is long
    "trace-expr-power-64.json": ["trace", "--weight", "2.5*z^1.3", "--n",
                                 "1.1", "--zmax", "2", "--samples", "64",
                                 "--format", "json"],
})
CASES.update({
    f"oracle-lam1.{fmt}": ["oracle", "--lambda", "1",
                           "--endpoints=-0.65,1.19,0.65,1.19",
                           "--segments", "8", "--format", fmt]
    for fmt in ("csv", "json", "svg")
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    code = main(list(CASES[name]))
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.encode() == (GOLDEN / name).read_bytes()


_BVP_LAM0 = ["bvp", "--lambda", "0", "--endpoints=-1.047,1,1.047,1"]
# argparse's usage block for trace, wrapped at the 80 columns the failing-run
# test sets, then the prefix of its error line
_TRACE_USAGE = (
    "usage: radial-extremals trace [-h] (--lambda A/B | --weight EXPR) --n N\n"
    "                              (--zmax ZMAX | --psi-range A:B)\n"
    "                              [--samples SAMPLES] [--tol TOL]\n"
    "                              [--grid {cosine,uniform-phi}]\n"
    "                              [--format {csv,json,svg}] [--out PATH]\n"
    "radial-extremals trace: error: argument --weight: ")
_TRACE_TAIL = ["--n", "1", "--zmax", "2"]
_ORACLE_USAGE = (
    "usage: radial-extremals oracle [-h] (--lambda A/B | --weight EXPR) "
    "--endpoints\n"
    "                               X1,Y1,X2,Y2 [--segments SEGMENTS]\n"
    "                               [--iters ITERS] [--grad-tol GRAD_TOL]\n"
    "                               [--format {csv,json,svg}] [--out PATH]\n"
    "radial-extremals oracle: error: argument --weight: ")

# case name: (argv, exit code, standard error); none writes standard output
FAILURES = {
    "trace-value-eval-error": (
        ["trace", "--weight", "sqrt(2-z^2)", "--n", "1.5", "--zmax", "1.5"],
        1, "EvalError: weight value is not finite for "
           "ExpressionWeight('sqrt(2-z^2)')\n"),
    "trace-derivative-eval-error": (   # v = 1e150 at z* = 1e-300, q = -inf
        ["trace", "--lambda=-1/2", "--n", "1e150", "--zmax", "1"],
        1, "EvalError: weight derivative is not finite for "
           "PowerLaw('z^-0.5')\n"),
    "oracle-value-eval-error": (
        ["oracle", "--weight", "1+sqrt(z-1)", "--endpoints=-1,0,1,0",
         "--segments", "8"],
        1, "EvalError: weight value is not finite for "
           "ExpressionWeight('1+sqrt(z-1)')\n"),
    "trace-non-positive": (
        ["trace", "--weight", "sin(z)", "--n", "1", "--zmax", "5"],
        1, "NonPositiveWeight: weight ExpressionWeight('sin(z)') is "
           "non-positive at some z\n"),
    "oracle-non-positive": (
        ["oracle", "--weight", "z-1", "--endpoints=-1,0.5,1,0.5",
         "--segments", "8"],
        1, "NonPositiveWeight: weight ExpressionWeight('z-1') is "
           "non-positive at some z\n"),
    "trace-no-bracket": (
        ["trace", "--weight", "1/(z-1)", "--n", "1", "--zmax", "3"],
        1, "NoBracket: no sign change of n*v(z)*z - 1 found on the scan "
           "grid\n"),
    "bvp-no-bracket": (
        [*_BVP_LAM0, "--n-bracket", "2.5:3.5"],
        1, "NoBracket: no sign change on [2.5, 3.5] (end values 2.246e-01, "
           "4.681e-01)\n"),
    "trace-domain-error": (
        ["trace", "--lambda", "-2", "--n", "1", "--zmax", "2"],
        1, "DomainError: for exponents below -1 the turning radius is a "
           "maximum radius; quadrature tracing covers increasing crossings "
           "only (closed_form handles these curves)\n"),
    "oracle-weight-domain-error": (    # one segment, its midpoint the pole
        ["oracle", "--lambda", "1", "--endpoints=-1,0,1,0", "--segments",
         "1"],
        1, "DomainError: z must exceed the weight's domain minimum 0.0\n"),
    "bvp-round-off-floor": (
        [*_BVP_LAM0, "--n-bracket", "1.2:3.5", "--tol", "1e-13"],
        1, "QuadratureFailure: tol 5.000e-15 is below the round-off floor "
           "9.495e-15 of the integral\n"),
    "trace-empty-weight": (
        ["trace", "--weight", "", *_TRACE_TAIL],
        2, _TRACE_USAGE + "weight expression must be nonempty\n"),
    "trace-blank-weight": (
        ["trace", "--weight", "   ", *_TRACE_TAIL],
        2, _TRACE_USAGE + "weight expression must be nonempty\n"),
    "trace-deeply-nested-weight": (   # deeper than the parser's stack
        ["trace", "--weight=3000+" + "-" * 990 + "z", *_TRACE_TAIL],
        2, _TRACE_USAGE + "expression nests too deeply at offset 0\n"),
    "trace-overflowing-literal": (
        ["trace", "--weight", "1e999*z", *_TRACE_TAIL],
        2, _TRACE_USAGE + "number '1e999' overflows to inf at offset 0\n"),
    # subexpressions without z that raise or go complex in Python floats
    "trace-constant-divides-by-zero": (
        ["trace", "--weight", "z+1/0", *_TRACE_TAIL],
        2, _TRACE_USAGE + "constant subexpression divides by zero at "
                          "offset 3\n"),
    "trace-constant-not-real": (
        ["trace", "--weight", "(-4)^0.5+z", *_TRACE_TAIL],
        2, _TRACE_USAGE + "constant subexpression has no real value at "
                          "offset 4\n"),
    "oracle-constant-overflows": (
        ["oracle", "--weight", "z+10^400", "--endpoints=-1,1,1,1"],
        2, _ORACLE_USAGE + "constant subexpression overflows at offset 4\n"),
    # counts that numpy refuses to size
    "trace-too-many-samples": (
        ["trace", "--lambda", "1", "--n", "1", "--zmax", "3", "--samples",
         "100000000000000000000"],
        2, "usage error: --samples must be at most 100000000\n"),
    "trace-psi-range-too-many-samples": (
        ["trace", "--lambda", "1", "--n", "1", "--psi-range=-1:1",
         "--samples", "100000000000000000000"],
        2, "usage error: --samples must be at most 100000000\n"),
    "check-too-many-samples": (
        ["check", "--lambda", "1", "--n", "1", "--zmax", "3", "--samples",
         "100000000000000000000"],
        2, "usage error: --samples must be at most 100000000\n"),
    "oracle-too-many-segments": (
        ["oracle", "--lambda", "1", "--endpoints=-1,1,1,1", "--segments",
         "100000000000000000000"],
        2, "usage error: --segments must be at most 100000000\n"),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps usage to it
    argv, code, err = FAILURES[name]
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def rewrite() -> list[str]:
    """Write every golden file of CASES from a fresh run; the names of the
    files whose bytes changed.  A run that fails or writes to standard
    error stops the rewrite."""
    changed = []
    for name in sorted(CASES):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(CASES[name]))
        if code != 0 or err.getvalue():
            raise SystemExit(f"{name}: exit code {code}, standard error "
                             f"{err.getvalue()!r}")
        path, data = GOLDEN / name, out.getvalue().encode()
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            changed.append(name)
    return changed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rewrite", action="store_true", required=True,
                        help="rewrite every golden file of CASES")
    parser.parse_args()
    changed = rewrite()
    print(f"{len(changed)} of {len(CASES)} golden files changed"
          + "".join(f"\n  {name}" for name in changed))
