"""What a process loads: importing the package loads none of its modules,
the CLI loads what argument parsing needs, and each subcommand adds only
the layers it runs.  Every case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radial_extremals

SRC = Path(radial_extremals.__file__).resolve().parents[1]

# the package's public names before they were loaded on first use
ALL = [
    "BvpProblem", "BvpSolution", "solve_n",
    "PowerLawCurve", "algebraic_relation_residual",
    "log_spiral_point", "power_law_point",
    "OracleResult", "Polyline", "functional_value", "gradient", "minimize",
    "DomainError", "DomainViolation", "EvalError", "ExtremalError",
    "ForbiddenRegion", "NoBracket", "NonMonotoneAbscissa",
    "NonPositiveWeight", "ParseError", "QuadratureFailure",
    "StalledDescent", "TangentialTurningPoint",
    "CartesianPoint", "ELPartials", "PolarPoint", "beltrami_residual",
    "clairaut_constant", "el_residual",
    "lagrangian_partials_cartesian",
    "ExtremalSpec", "TraceResult", "dphi_dz", "first_integral_deviation",
    "integrate_phi", "trace_extremal", "turning_radius",
    "ExpressionWeight", "PowerLaw", "RadialWeight", "eval_q", "eval_v",
    "eval_vq", "parse_weight",
    "__version__",
]

CLI_MODULES = {"cli", "errors", "weights", "expressions"}
TRACE_MODULES = {"reduced_ode", "quadrature", "roots", "extremal_core"}


def fresh(code: str):
    """The JSON value that code prints as its last line, run in a new
    interpreter with the package on its path; code may call loaded() for
    the sorted short names of the package's loaded modules."""
    prelude = ("import json, sys\n"
               "def loaded():\n"
               "    return sorted(m.partition('.')[2] for m in sys.modules\n"
               "                  if m.startswith('radial_extremals.'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_package_import_loads_no_module():
    assert fresh("import radial_extremals\n"
                 "print(json.dumps(loaded()))") == []


def test_cli_import_loads_what_parsing_needs():
    assert set(fresh("import radial_extremals.cli\n"
                     "print(json.dumps(loaded()))")) == CLI_MODULES


@pytest.mark.parametrize("argv, added", [
    (["oracle", "--lambda", "1", "--endpoints=-1,1,1,1", "--segments", "8"],
     {"discrete_oracle"}),
    (["bvp", "--lambda", "0", "--endpoints=-1.047,1,1.047,1",
      "--n-bracket", "1.2:3.5"], {"bvp"} | TRACE_MODULES),
    (["trace", "--lambda", "1", "--n", "1", "--zmax", "2", "--samples", "5"],
     TRACE_MODULES),
    (["trace", "--lambda", "1", "--n", "1", "--psi-range=-1:1",
      "--samples", "5"], {"closed_form"} | TRACE_MODULES),
    (["trace", "--lambda", "1", "--n", "1", "--zmax", "2", "--samples", "5",
      "--format", "json"], {"checks", "closed_form"} | TRACE_MODULES),
    (["check", "--lambda", "0", "--n", "2", "--zmax", "2"],
     {"checks", "closed_form"} | TRACE_MODULES),
], ids=["oracle", "bvp", "trace", "trace-psi-range", "trace-json", "check"])
def test_subcommand_adds_only_its_layers(argv, added):
    # nor numpy.polynomial, whose import costs 3 to 5 ms after numpy's
    code, modules, polynomial = fresh(
        "import contextlib, io\n"
        "from radial_extremals import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.run({argv!r})\n"
        "print(json.dumps([code, loaded(),\n"
        "                  'numpy.polynomial' in sys.modules]))")
    assert code == 0
    assert set(modules) == CLI_MODULES | added
    assert not polynomial


def test_runs_leave_numpy_polynomial_unloaded():
    # no layer imports numpy.polynomial: loading it cost a bvp or trace run
    # about 6 ms and 1 MB of peak memory
    assert fresh(
        "import contextlib, io\n"
        "from radial_extremals import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['bvp', '--weight', '1+z',\n"
        "                    '--endpoints=-1,1,1,2', '--n-bracket', '0.6:3'])\n"
        "print(json.dumps([code, 'numpy.polynomial' in sys.modules]))") \
        == [0, False]


def test_public_names_unchanged():
    assert fresh("import radial_extremals\n"
                 "print(json.dumps(radial_extremals.__all__))") == ALL


def test_star_import_dir_version_and_unknown_names():
    star, listed, version, message = fresh(
        "import radial_extremals as rx\n"
        "names = {}\n"
        "exec('from radial_extremals import *', names)\n"
        "names.pop('__builtins__')\n"
        "same = all(value is getattr(rx, name)\n"
        "           for name, value in names.items())\n"
        "try:\n"
        "    rx.no_such_name\n"
        "except AttributeError as exc:\n"
        "    message = str(exc)\n"
        "print(json.dumps([same and sorted(names), dir(rx), rx.__version__,\n"
        "                  message]))")
    assert star == sorted(ALL)
    assert listed == sorted(ALL)
    assert version == "0.1.0"
    assert message == ("module 'radial_extremals' has no attribute "
                       "'no_such_name'")
