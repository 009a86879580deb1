"""Command-line front end: trace curves, run the oracle, check invariants,
solve boundary-value problems; emit CSV, JSON, or SVG.

All angles use the convention tan(phi) = x/y (phi measured from the +y axis
toward the +x axis); the conventional polar angle is theta_std = pi/2 - phi.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import closed_form, discrete_oracle
from .bvp import BvpProblem, solve_n
from .errors import ExtremalError, ParseError
from .extremal_core import PolarPoint, clairaut_constant, el_residual
from .reduced_ode import (ExtremalSpec, first_integral_deviation,
                          integrate_phi, trace_extremal)
from .weights import PowerLaw, eval_v, parse_weight

_ANGLE_NOTE = ("angles use tan(phi) = x/y, measured from the +y axis; "
               "conventional polar angle: theta_std = pi/2 - phi")


class _UsageError(Exception):
    """Bad flag combination detected after argparse; exits with code 2."""


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _weight_arg(text: str):
    try:
        return parse_weight(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from exc


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
    group.add_argument("--lambda", dest="lam", type=_rational_arg,
                       metavar="A/B",
                       help="power-law weight v = z^(a/b), exact exponent")
    group.add_argument("--weight", type=_weight_arg, metavar="EXPR",
                       help="weight expression in z, e.g. '1/(1+z^2)'")


def _add_output_options(sub):
    sub.add_argument("--format", choices=("csv", "json", "svg"),
                     default="csv", help="output format (default csv)")
    sub.add_argument("--out", metavar="PATH",
                     help="output path (default: standard output)")


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
                       help="quadrature tolerance (default 1e-12)")
    trace.add_argument("--grid", choices=("cosine", "uniform-phi"),
                       default="cosine",
                       help="radial sample placement (default cosine)")
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


def _resolve_weight(args):
    if args.weight is not None:
        return args.weight, None
    return PowerLaw(float(args.lam)), args.lam


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: str, rows) -> str:
    lines = [f"# {_ANGLE_NOTE}", header]
    lines.extend(",".join(_g17(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _monotone_runs(x: np.ndarray):
    """Maximal strictly monotone index runs of x, at least 5 samples long."""
    runs = []
    start = 0
    direction = 0
    for i in range(1, len(x)):
        d = 1 if x[i] > x[i - 1] else (-1 if x[i] < x[i - 1] else 0)
        if d == 0 or (direction and d != direction):
            runs.append((start, i - 1, direction))
            start, direction = (i - 1 if d else i), d
        else:
            direction = d
    runs.append((start, len(x) - 1, direction))
    return [(a, b) for a, b, d in runs if d and b - a + 1 >= 5]


def _max_el_residual(xy: np.ndarray, w) -> float | None:
    worst = None
    for a, b in _monotone_runs(xy[:, 0]):
        seg = xy[a:b + 1]
        if seg[0, 0] > seg[-1, 0]:
            seg = seg[::-1]
        res = np.abs(el_residual(seg, w)[1:-1])
        peak = float(res.max())
        worst = peak if worst is None else max(worst, peak)
    return worst


def _cartesian_array(points) -> np.ndarray:
    return np.array([(p.z * math.sin(p.phi), p.z * math.cos(p.phi))
                     for p in points])


def _svg(paths, z_turn: float | None) -> str:
    """Standalone SVG: one path per branch, pole marker, turning circle."""
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
    for path in paths:
        d = "M " + " L ".join(f"{fmt(x)} {fmt(-y)}" for x, y in path)
        body.append(f'<path d="{d}" fill="none" stroke="black" '
                    f'stroke-width="{fmt(stroke)}"/>')
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{fmt(x0 - pad)} {fmt(y0 - pad)} '
            f'{fmt(x1 - x0 + 2 * pad)} {fmt(y1 - y0 + 2 * pad)}">\n'
            + "\n".join(body) + "\n</svg>\n")


def _trace_rows(points, deviations):
    return [(pt.phi, pt.z, pt.z * math.sin(pt.phi), pt.z * math.cos(pt.phi),
             dev) for pt, dev in zip(points, deviations)]


def _cmd_trace(args) -> int:
    weight, lam = _resolve_weight(args)
    n = args.n
    if args.samples < 3:
        raise _UsageError("--samples must be at least 3")
    if args.psi_range is not None:
        if lam is None:
            raise _UsageError("--psi-range needs a power-law weight "
                              "(--lambda)")
        curve = closed_form.PowerLawCurve(float(lam), n)
        psis = np.linspace(args.psi_range[0], args.psi_range[1], args.samples)
        points = [closed_form.power_law_point(curve, float(p)) for p in psis]
        deviations = first_integral_deviation(
            weight, n, np.array([p.z for p in points])).tolist()
        z_turn = curve.z_turn
        quad = {"panels": None, "error_estimate": None}   # no quadrature
        branches = [_cartesian_array(points)]
    else:
        spec = ExtremalSpec(weight, n)
        result = trace_extremal(spec, args.zmax, args.samples,
                                tol=args.tol, grid=args.grid)
        points = result.samples
        deviations = result.clairaut_deviation
        z_turn = result.z_turn
        quad = {"panels": result.panels,
                "error_estimate": result.error_estimate}
        xy = _cartesian_array(points)
        branches = [xy[:args.samples], xy[args.samples - 1:]]

    if args.format == "csv":
        _emit(args, _csv("phi,z,x,y,clairaut_dev",
                         _trace_rows(points, deviations)))
    elif args.format == "json":
        doc = {
            "spec": {"weight": weight.text(), "n": n,
                     "phi0": 0.0, "orientation": 1},
            "samples": [dict(zip(("phi", "z", "x", "y", "clairaut_dev"), row))
                        for row in _trace_rows(points, deviations)],
            "diagnostics": {
                "z_turn": z_turn,
                "max_clairaut_dev": max(deviations),
                "max_el_residual": _max_el_residual(
                    _cartesian_array(points), weight),
                **quad,
            },
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        _emit(args, _svg(branches, z_turn))
    return 0


def _check_gates(args):
    """Yield (name, value, limit, cmp) rows; cmp is '<=' or '>='."""
    weight, lam = _resolve_weight(args)
    n = args.n
    lam_f = float(lam) if lam is not None else None

    if lam_f == -1.0:
        # logarithmic-spiral family: constant first integral, exact ratio law
        t = math.sqrt(n * n - 1.0)
        devs = []
        for phi in np.linspace(0.0, 2.0, 41):
            pt = closed_form.log_spiral_point(n, 1.0, float(phi))
            p = math.inf if t == 0.0 else 1.0 / (t * pt.z)
            devs.append(abs(n * clairaut_constant(pt.z, p, weight) - 1.0))
        yield "first-integral deviation (spiral)", max(devs), 1e-10, "<="
        z1 = closed_form.log_spiral_point(n, 1.0, 1.0).z
        z0 = closed_form.log_spiral_point(n, 1.0, 0.0).z
        yield "radius ratio vs exp", abs(z1 / z0 - math.exp(t)), 1e-12, "<="
        return

    spec = ExtremalSpec(weight, n)
    result = trace_extremal(spec, args.zmax, args.samples, tol=args.tol)
    yield ("max first-integral deviation",
           max(result.clairaut_deviation), 1e-8, "<=")

    # slope identity n*v*z = sqrt(1+t^2), t = (dz/dphi)/z by differences
    asc = result.samples[args.samples - 1:]
    zs = np.array([p.z for p in asc])
    phis = np.array([p.phi for p in asc])
    keep = zs > spec.z_turn + 0.1 * (args.zmax - spec.z_turn)
    t_fd = (np.gradient(zs, phis, edge_order=2) / zs)[keep]
    nvz = n * eval_v(weight, zs[keep]) * zs[keep]
    rel = np.abs(nvz - np.sqrt(1.0 + t_fd ** 2)) / nvz
    yield "slope identity vs finite differences", float(rel.max()), 1e-3, "<="

    if lam is not None:
        k = lam_f + 1.0
        worst = 0.0
        for psi in np.linspace(0.0, 1.4, 15)[1:]:
            z = (n * math.cos(psi)) ** (-1.0 / k)
            got = integrate_phi(spec, spec.z_turn, z, 1e-12)
            worst = max(worst, abs(got - psi / k))
        yield "quadrature vs closed form", worst, 1e-10, "<="

        curve = closed_form.PowerLawCurve(lam_f, n)
        resid = max(abs(closed_form.algebraic_relation_residual(curve, p))
                    for p in asc)
        yield "algebraic relation residual", resid, 1e-10, "<="

    fine = trace_extremal(spec, args.zmax, 2 * args.samples - 1,
                          tol=args.tol)
    r_coarse = _max_el_residual(_cartesian_array(result.samples), weight)
    r_fine = _max_el_residual(_cartesian_array(fine.samples), weight)
    if r_coarse is not None and r_fine is not None:
        if r_coarse <= 1e-13:
            # already at machine level (e.g. straight lines); a halving
            # ratio would be rounding noise
            yield "stationarity residual (machine level)", r_coarse, \
                1e-13, "<="
        else:
            yield ("stationarity residual convergence factor",
                   r_coarse / r_fine, 3.5, ">=")


def _cmd_check(args) -> int:
    failures = 0
    for name, value, limit, cmp in _check_gates(args):
        ok = value <= limit if cmp == "<=" else value >= limit
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} "
              f"({cmp} {limit:.1e})")
    print("all checks passed" if failures == 0
          else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def _cmd_oracle(args) -> int:
    weight, _ = _resolve_weight(args)
    (x1, y1, x2, y2) = args.endpoints
    if args.segments < 1:
        raise _UsageError("--segments must be positive")
    ts = np.linspace(0.0, 1.0, args.segments + 1)[:, None]
    chord = np.array([[x1, y1]]) * (1.0 - ts) + np.array([[x2, y2]]) * ts
    initial = discrete_oracle.Polyline(chord)
    f0 = discrete_oracle.functional_value(initial, weight)
    final = discrete_oracle.minimize(initial, weight, args.iters,
                                     args.grad_tol)
    f1 = discrete_oracle.functional_value(final, weight)
    gmax = float(np.abs(discrete_oracle.gradient(final, weight)).max())

    if args.format == "csv":
        _emit(args, _csv("x,y", [tuple(v) for v in final.vertices]))
    elif args.format == "json":
        doc = {
            "weight": weight.text(),
            "endpoints": [[x1, y1], [x2, y2]],
            "segments": args.segments,
            "vertices": [[float(a), float(b)] for a, b in final.vertices],
            "diagnostics": {"initial_functional": f0, "functional": f1,
                            "max_grad_component": gmax,
                            "converged": gmax <= args.grad_tol},
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        _emit(args, _svg([final.vertices], None))
    return 0


def _cmd_bvp(args) -> int:
    weight, _ = _resolve_weight(args)
    (phi1, z1, phi2, z2) = args.endpoints
    prob = BvpProblem(PolarPoint(phi1, z1), PolarPoint(phi2, z2), weight,
                      same_branch=args.same_branch)
    sol = solve_n(prob, abs(phi2 - phi1), args.n_bracket, args.tol)

    if args.format == "csv":
        _emit(args, _csv("n,phi0,z_turn,span",
                         [(sol.n, sol.phi0, sol.z_turn, sol.span)]))
    elif args.format == "json":
        doc = {
            "problem": {"weight": weight.text(),
                        "a": {"phi": phi1, "z": z1},
                        "b": {"phi": phi2, "z": z2},
                        "same_branch": args.same_branch},
            "solution": {"n": sol.n, "phi0": sol.phi0,
                         "z_turn": sol.z_turn, "span": sol.span},
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        spec = ExtremalSpec(weight, sol.n, phi0=sol.phi0)
        result = trace_extremal(spec, max(z1, z2), 200)
        xy = _cartesian_array(result.samples)
        _emit(args, _svg([xy[:200], xy[199:]], sol.z_turn))
    return 0


def run(argv=None) -> int:
    """Execute one invocation; returns the process exit code.

    0 on success with the artifact written, 2 on usage errors (bad flags or
    a malformed weight expression), 1 on numerical failure with the error
    name and context on the error stream.  Never raises on bad input.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ExtremalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


main = run   # console-script entry point


if __name__ == "__main__":
    sys.exit(run())
