"""Command-line front end: trace curves, run the oracle, check invariants,
solve boundary-value problems; emit CSV, JSON, or SVG.

All angles use the convention tan(phi) = x/y (phi measured from the +y axis
toward the +x axis); the conventional polar angle is theta_std = pi/2 - phi.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import astuple
from fractions import Fraction

import numpy as np

from .errors import ExtremalError
from .weights import PowerLaw, parse_weight

_ANGLE_NOTE = ("angles use tan(phi) = x/y, measured from the +y axis; "
               "conventional polar angle: theta_std = pi/2 - phi")
# smallest valid counts, and the smallest tolerance a run can meet
_LEAST = {"samples": 3, "segments": 1, "iters": 0, "grad_tol": 0}
# largest counts, as in trace_extremal: far past what fits in memory (a
# trace sample takes about 1.6 kB), and below the sizes numpy refuses
_MOST = {"samples": 10 ** 8, "segments": 10 ** 8}


class _UsageError(Exception):
    """Bad flag combination detected after argparse; exits with code 2."""


def _weight_arg(text: str):
    try:
        return parse_weight(text)
    except ExtremalError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _lambda_arg(text: str) -> PowerLaw:
    # a decimal goes to float, which rounds it as float(Fraction(text))
    # would, without Fraction's 10^8-digit integer for 1e-100000000; only
    # a/b, whose digits Python's int limit caps, takes the exact parse
    try:
        value = float(text)
    except ValueError:
        try:
            value = float(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"not a rational number: {text!r}") from exc
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return PowerLaw(value)


def _float_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _floats_arg(count: int, sep: str = ","):
    def convert(text: str):
        parts = text.split(sep)
        if len(parts) != count:
            raise argparse.ArgumentTypeError(
                f"expected {count} {sep!r}-separated numbers, got {text!r}")
        return tuple(_float_arg(p) for p in parts)
    return convert


def _add_weight_options(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="weight", type=_lambda_arg,
                       metavar="A/B",
                       help="power-law weight v = z^(a/b), exact exponent")
    group.add_argument("--weight", type=_weight_arg, metavar="EXPR",
                       help="weight expression in z, e.g. '1/(1+z^2)'")


def _add_output_options(sub):
    sub.add_argument("--format", choices=("csv", "json", "svg"),
                     default="csv", help="output format (default csv)")
    sub.add_argument("--out", metavar="PATH",
                     help="output path (default: standard output)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radial-extremals",
        description=("Extremal curves of the radially weighted arc-length "
                     "functional: integral of v(z) ds, z = distance from "
                     "a fixed pole."),
        epilog=_ANGLE_NOTE)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    trace = subs.add_parser("trace", help="sample one extremal",
                            epilog=_ANGLE_NOTE)
    _add_weight_options(trace)
    trace.add_argument("--n", type=_float_arg, required=True,
                       help="first-integral constant (positive)")
    span = trace.add_mutually_exclusive_group(required=True)
    span.add_argument("--zmax", type=_float_arg,
                      help="trace both branches out to this radius")
    span.add_argument("--psi-range", type=_floats_arg(2, ":"), metavar="A:B",
                      help="closed-form sampling over psi (power law only)")
    trace.add_argument("--samples", type=int, default=200,
                       help="samples per branch (default 200)")
    trace.add_argument("--tol", type=_float_arg, default=1e-12,
                       help="quadrature tolerance of --zmax traces (default "
                            "1e-12; ignored with --psi-range)")
    trace.add_argument("--grid", choices=("cosine", "uniform-phi"),
                       default="cosine",
                       help="radial sample placement of --zmax traces "
                            "(default cosine; ignored with --psi-range)")
    _add_output_options(trace)
    trace.set_defaults(handler=_cmd_trace)

    check = subs.add_parser("check",
                            help="run invariant checks on one extremal")
    _add_weight_options(check)
    check.add_argument("--n", type=_float_arg, required=True)
    check.add_argument("--zmax", type=_float_arg, required=True)
    check.add_argument("--samples", type=int, default=200)
    check.add_argument("--tol", type=_float_arg, default=1e-12)
    check.set_defaults(handler=_cmd_check)

    oracle = subs.add_parser(
        "oracle", help="minimize the discretized functional directly")
    _add_weight_options(oracle)
    oracle.add_argument("--endpoints", type=_floats_arg(4), required=True,
                        metavar="X1,Y1,X2,Y2",
                        help="fixed Cartesian endpoints")
    oracle.add_argument("--segments", type=int, default=64)
    oracle.add_argument("--iters", type=int, default=20000)
    oracle.add_argument("--grad-tol", type=_float_arg, default=1e-8)
    _add_output_options(oracle)
    oracle.set_defaults(handler=_cmd_oracle)

    bvp = subs.add_parser(
        "bvp", help="find n whose extremal passes through two points")
    _add_weight_options(bvp)
    bvp.add_argument("--endpoints", type=_floats_arg(4), required=True,
                     metavar="PHI1,Z1,PHI2,Z2",
                     help="polar endpoints in the phi convention")
    bvp.add_argument("--n-bracket", type=_floats_arg(2, ":"), required=True,
                     metavar="LO:HI")
    bvp.add_argument("--same-branch", action="store_true",
                     help="endpoints on one monotone-radius branch")
    bvp.add_argument("--tol", type=_float_arg, default=1e-10,
                     help="tolerance on the angular span (default 1e-10)")
    _add_output_options(bvp)
    bvp.set_defaults(handler=_cmd_bvp)

    return parser


def _emit(args, text: str) -> int:
    """Write text to --out or standard output; returns the exit code."""
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def _spell(values, spell) -> list:
    """Words for the flattened float values, as spell would give them one
    by one, with spell called once on each distinct magnitude.

    spell maps a list of non-negative floats to their words.  A value with
    its sign bit set gets '-' and its magnitude's word, except a NaN, which
    every spelling used here writes without a sign.  The mirrored branches
    of a trace share their radii and repeat phi and x with the opposite
    sign, so a 400-sample trace has about 1,600 distinct magnitudes in
    about 4,000 values.  The distinct magnitudes are found as a set of bit
    patterns, not by np.unique, which costs more memory on its first call.
    """
    x = np.ravel(np.asarray(values, dtype=float))
    keys = np.abs(x).view(np.int64).tolist()
    distinct = list(set(keys))
    words = dict(zip(distinct, spell(
        np.array(distinct, dtype=np.int64).view(float).tolist())))
    out = list(map(words.__getitem__, keys))
    for i in np.flatnonzero(np.signbit(x) & ~np.isnan(x)).tolist():
        out[i] = "-" + out[i]
    return out


def _g17_spelling(values: list) -> list:
    """A spell for _spell: each value as format(value, ".17g")."""
    return (("%.17g " * len(values)) % tuple(values)).split()


def _json_spelling(values: list) -> list:
    """A spell for _spell: each value as the C json encoder writes it."""
    return json.dumps(values)[1:-1].split(", ")


def _csv(header: str, rows) -> str:
    """Angle note, header and one line per row, each value written as
    format(value, ".17g"), spelt by _spell and set by one %-template for
    the whole table."""
    table = np.asarray(rows, dtype=float).reshape(-1, header.count(",") + 1)
    line = ",".join(["%s"] * table.shape[1]) + "\n"
    body = (line * len(table)) % tuple(_spell(table, _g17_spelling))
    return f"# {_ANGLE_NOTE}\n{header}\n{body}"


# %-templates of one row's json entry: a trace sample, an oracle vertex
_SAMPLE_RECORD = ("    {\n" + ",\n".join(
    f'      "{k}": %s' for k in ("phi", "z", "x", "y", "clairaut_dev"))
    + "\n    }")
_VERTEX_RECORD = "    [\n      %s,\n      %s\n    ]"


def _json_with_rows(doc: dict, key: str, record: str, rows) -> str:
    """The bytes of json.dumps(doc, indent=2) with doc[key] (empty in doc,
    at its top level) holding one entry per row, each set by the
    %-template record from the values as json spells them, spelt by
    _spell."""
    text = json.dumps(doc, indent=2)
    if len(rows) == 0:
        return text
    body = ",\n".join([record] * len(rows)) % tuple(
        _spell(rows, _json_spelling))
    return text.replace(f'"{key}": []', f'"{key}": [\n{body}\n  ]', 1)


def _svg(paths, z_turn: float | None) -> str:
    """Standalone SVG: one path per branch, pole marker, turning circle.
    Path coordinates are written per value by one "%.8g" template per path,
    not through _spell: an 8-digit spelling costs less than finding the
    distinct magnitudes does."""
    pts = np.vstack(paths)
    xs, ys = pts[:, 0], -pts[:, 1]
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    extent = max(x1 - x0, y1 - y0, 1e-9)
    pad = 0.05 * extent
    stroke = 0.004 * extent

    def fmt(v):
        return format(v, ".8g")

    body = [f'<circle cx="0" cy="0" r="{fmt(2.5 * stroke)}" fill="black"/>']
    if z_turn is not None:
        body.append(f'<circle cx="0" cy="0" r="{fmt(z_turn)}" fill="none" '
                    f'stroke="gray" stroke-width="{fmt(0.5 * stroke)}" '
                    f'stroke-dasharray="{fmt(4 * stroke)}"/>')
    for path in paths:   # each point as f"{fmt(x)} {fmt(-y)}"
        xy = np.column_stack((path[:, 0], -path[:, 1])).ravel().tolist()
        d = "M " + " L ".join(["%.8g %.8g"] * len(path)) % tuple(xy)
        body.append(f'<path d="{d}" fill="none" stroke="black" '
                    f'stroke-width="{fmt(stroke)}"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{fmt(x0 - pad)} {fmt(y0 - pad)} '
            f'{fmt(x1 - x0 + 2 * pad)} {fmt(y1 - y0 + 2 * pad)}">\n'
            + "\n".join(body) + "\n</svg>\n")


def _cmd_trace(args) -> int:
    from .reduced_ode import (ExtremalSpec, TraceResult,
                              first_integral_deviation, trace_extremal)
    weight, n = args.weight, args.n
    orientation = 1    # --psi-range needs n > 0
    if args.psi_range is not None:
        if not isinstance(weight, PowerLaw):
            raise _UsageError("--psi-range needs a power-law weight z^lambda")
        from . import closed_form
        curve = closed_form.PowerLawCurve(weight.lam, n)
        psis = np.linspace(*args.psi_range, args.samples)
        phi, z = np.array([astuple(closed_form.power_law_point(curve, p))
                           for p in psis]).T
        result = TraceResult(phi, z, first_integral_deviation(weight, n, z),
                             curve.z_turn, None, None)   # no quadrature
    else:
        spec = ExtremalSpec(weight, n)
        orientation = spec.orientation
        result = trace_extremal(spec, args.zmax, args.samples, tol=args.tol,
                                grid=args.grid)
    x, y = result.x, result.y
    rows = np.column_stack((result.phi, result.z, x, y,
                            result.clairaut_deviation))

    if args.format == "csv":
        return _emit(args, _csv("phi,z,x,y,clairaut_dev", rows))
    if args.format == "json":
        from . import checks
        doc = {
            "spec": {"weight": weight.text(), "n": n,
                     "phi0": 0.0, "orientation": orientation},
            "samples": [],
            "diagnostics": {
                "z_turn": result.z_turn,
                "max_clairaut_dev": float(result.clairaut_deviation.max()),
                "max_el_residual": checks.max_el_residual(x, y, weight),
                "panels": result.panels,
                "error_estimate": result.error_estimate,
            },
        }
        return _emit(args, _json_with_rows(doc, "samples", _SAMPLE_RECORD,
                                           rows) + "\n")
    xy = np.column_stack((x, y))
    paths = ([xy] if args.psi_range is not None else
             [xy[:args.samples], xy[args.samples - 1:]])
    return _emit(args, _svg(paths, result.z_turn))


def _cmd_check(args) -> int:
    from . import checks
    failures = 0
    for name, value, limit, cmp in checks.gates(args.weight, args.n, args.zmax,
                                                args.samples, args.tol):
        ok = value <= limit if cmp == "<=" else value >= limit
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} "
              f"({cmp} {limit:.1e})")
    print("all checks passed" if failures == 0
          else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def _cmd_oracle(args) -> int:
    from . import discrete_oracle
    (x1, y1, x2, y2) = args.endpoints
    ts = np.linspace(0.0, 1.0, args.segments + 1)[:, None]
    chord = np.array([[x1, y1]]) * (1.0 - ts) + np.array([[x2, y2]]) * ts
    initial = discrete_oracle.Polyline(chord)
    # before minimize, whose checks would wrap a chord through the pole's
    # DomainError in a DomainViolation
    f0 = discrete_oracle.functional_value(initial, args.weight)
    result = discrete_oracle.minimize(initial, args.weight, args.iters,
                                      args.grad_tol)
    final = result.polyline

    if args.format == "csv":
        return _emit(args, _csv("x,y", final.vertices))
    if args.format == "json":
        doc = {
            "weight": args.weight.text(),
            "endpoints": [[x1, y1], [x2, y2]],
            "segments": args.segments,
            "vertices": [],
            "diagnostics": {"initial_functional": f0,
                            "functional": result.value,
                            "max_grad_component": result.max_gradient,
                            "converged": result.converged},
        }
        return _emit(args, _json_with_rows(doc, "vertices", _VERTEX_RECORD,
                                           final.vertices) + "\n")
    return _emit(args, _svg([final.vertices], None))


def _cmd_bvp(args) -> int:
    from .bvp import BvpProblem, solve_n
    from .extremal_core import PolarPoint
    from .reduced_ode import ExtremalSpec, trace_extremal
    (phi1, z1, phi2, z2) = args.endpoints
    prob = BvpProblem(PolarPoint(phi1, z1), PolarPoint(phi2, z2), args.weight,
                      same_branch=args.same_branch)
    sol = solve_n(prob, args.n_bracket, args.tol)

    if args.format == "csv":
        return _emit(args, _csv("n,phi0,z_turn,span",
                                [(sol.n, sol.phi0, sol.z_turn, sol.span)]))
    if args.format == "json":
        doc = {
            "problem": {"weight": args.weight.text(),
                        "a": {"phi": phi1, "z": z1},
                        "b": {"phi": phi2, "z": z2},
                        "same_branch": args.same_branch},
            "solution": {"n": sol.n, "phi0": sol.phi0,
                         "z_turn": sol.z_turn, "span": sol.span},
            "diagnostics": {"span_evaluations": sol.evaluations,
                            "residual": sol.residual},
        }
        return _emit(args, json.dumps(doc, indent=2) + "\n")
    spec = ExtremalSpec(args.weight, sol.n, phi0=sol.phi0)
    result = trace_extremal(spec, max(z1, z2), 200)
    xy = np.column_stack((result.x, result.y))
    return _emit(args, _svg([xy[:200], xy[199:]], sol.z_turn))


def run(argv=None) -> int:
    """Execute one invocation; returns the process exit code.

    0 on success with the artifact written, 2 on usage errors (bad flags,
    bad counts, a tolerance no run can meet, a malformed weight expression,
    or an --out path that cannot be written), 1 on numerical failure with
    the error name and context on the error stream.  Never raises on bad
    input.  The argument parser is built on the first call and reused by
    later calls in the process.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        for name, least in _LEAST.items():
            if getattr(args, name, least) < least:
                raise _UsageError(
                    f"--{name.replace('_', '-')} must be at least {least}")
        for name, most in _MOST.items():
            if getattr(args, name, 0) > most:
                raise _UsageError(f"--{name} must be at most {most}")
        # --tol where it is used: bvp searches to bracket collapse at 0,
        # while a traced curve (trace --zmax, check) needs tol > 0
        if args.subcommand == "bvp" and args.tol < 0:
            raise _UsageError("--tol must be at least 0")
        if getattr(args, "zmax", None) is not None and not args.tol > 0:
            raise _UsageError("--tol must be positive")
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ExtremalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


main = run   # console-script entry point


if __name__ == "__main__":
    sys.exit(run())
