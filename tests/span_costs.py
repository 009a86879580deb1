"""The work and the time of bvp spans, the angle evaluations of a two-point
solve (bvp._branch_angles: one ExtremalSpec and one integrate_phi each).

Over the 105 bvp jobs of the benchmark's seed-1 list it counts the spans,
the kronrod_panels calls, the weight passes that reduced_ode makes (calls
and points, by kind), the np.errstate entries and the calls of the
expression walks expressions.evaluate and evaluate_slope (one per node
visited: each walk calls itself through the module).  Per solve_n call
it records the layout, the edge of its search variable u = sqrt(n -
n_edge), the spans, the find_root steps (one residual call each; a step
whose n an earlier one took costs no span) and the stop residual
|span - target|, and prints spans per solve and the edges taken by layout,
the steps and the largest and mean stop residual.  On one reference span,
PowerLaw(0.7) at n 1.3 to radii 1.2 and 1.6 at the benchmark's span
tolerance 1e-13, it prints the best of 7 timings, in microseconds, of
ExtremalSpec, its _handoff, integrate_phi and the near and far integrand
passes of the span's first quadrature call.

    PYTHONPATH=src python tests/span_costs.py [SEED ...]

counts the jobs of each seed given, seed 1 by default.

The job list comes from ``perfbench/jobs.py``, loaded by file path through
job_manifest.py and only read.  pytest does not collect this file;
test_bvp.py pins its counts.
"""

from __future__ import annotations

import math
import sys
import timeit
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import job_manifest  # noqa: E402

from radial_extremals import (bvp, expressions, quadrature,  # noqa: E402
                              reduced_ode)
from radial_extremals.weights import PowerLaw  # noqa: E402

PASSES = ("eval_v", "eval_vq", "eval_slope", "masked_v", "wide_v")
WALKS = ("evaluate", "evaluate_slope")
REFERENCE = (PowerLaw(0.7), 1.3, [1.2, 1.6], 1e-13)
REPEATS, LOOPS = 7, 200


@contextmanager
def _patched(owner, name, make):
    """Inside the block, owner.name is make(original owner.name)."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _wrapped(owner, name, before):
    """_patched, where owner.name calls before(*args) first."""
    def make(original):
        def counted(*args, **kwargs):
            before(*args)
            return original(*args, **kwargs)
        return counted
    return _patched(owner, name, make)


def _solve_records(solves):
    """_patched's make for bvp.solve_n and bvp.find_root: each solve
    appends {"same_branch", "edge", "spans", "steps", "residual"} to
    solves.  The edge n_edge comes from find_root's lower end u_lo =
    sqrt(n_lo - n_edge): 0 means n_edge = n_lo, sqrt(n_lo) means 0, and
    any other u_lo the edge 1/(v*z) of the nearer endpoint radius z."""
    def solve_n(original):
        def recorded(prob, n_bracket, tol):
            solves.append({"same_branch": prob.same_branch, "steps": 0,
                           "n_lo": n_bracket[0]})
            sol = original(prob, n_bracket, tol)
            solves[-1].update(spans=sol.evaluations,
                              residual=abs(sol.residual))
            return sol
        return recorded

    def find_root(original):
        def stepped(f, u_lo, *args):
            record = solves[-1]
            record["edge"] = ("n_lo" if u_lo == 0.0 else "0"
                              if u_lo == math.sqrt(record.pop("n_lo"))
                              else "1/(v*z)")

            def step(x):
                record["steps"] += 1
                return f(x)
            return original(step, u_lo, *args)
        return stepped
    return solve_n, find_root


def span_counts(seed=1):
    """{"spans", "kronrod_panels", "errstate" entries and each name of
    WALKS: counts; each name of PASSES: (calls, points); "solves": a list
    of _solve_records' records} over the bvp jobs of a seed's list, each
    of which must exit with code 0."""
    counts = dict.fromkeys(("spans", "kronrod_panels", "errstate", *WALKS),
                           0)
    counts.update((name, (0, 0)) for name in PASSES)
    counts["solves"] = []
    record_solve, record_steps = _solve_records(counts["solves"])

    def count(key):
        def before(*args):
            counts[key] += 1
        return before

    def weigh(name):
        def before(w, z, *rest):
            calls, points = counts[name]
            counts[name] = calls + 1, points + int(np.size(z))
        return before

    with ExitStack() as stack:
        stack.enter_context(_wrapped(bvp, "_branch_angles", count("spans")))
        stack.enter_context(_wrapped(quadrature, "kronrod_panels",
                                     count("kronrod_panels")))
        stack.enter_context(_wrapped(np.errstate, "__enter__",
                                     count("errstate")))
        for name in PASSES:
            stack.enter_context(_wrapped(reduced_ode, name, weigh(name)))
        for name in WALKS:
            stack.enter_context(_wrapped(expressions, name, count(name)))
        stack.enter_context(_patched(bvp, "solve_n", record_solve))
        stack.enter_context(_patched(bvp, "find_root", record_steps))
        for workload, index, argv in job_manifest.jobs(seed):
            if workload == "bvp":
                code = job_manifest.run_job(argv)[0]
                assert code == 0, f"bvp job {index} exited with {code}"
    return counts


def _best_us(call):
    """Best of REPEATS timings of call, in microseconds per call."""
    return 1e6 * min(timeit.repeat(call, number=LOOPS,
                                   repeat=REPEATS)) / LOOPS


def span_times():
    """{part: µs} of the reference span's parts (see the module notes)."""
    w, n, radii, tol = REFERENCE
    spec = reduced_ode.ExtremalSpec(w, n)
    nodes = {}   # the first call's integrand and nodes, by integrand kind

    def recorded(kind):
        def make(original):
            def integrand_of(spec):
                f = original(spec)

                def g(x):
                    nodes.setdefault(kind, (f, np.array(x)))
                    return f(x)
                return g
            return integrand_of
        return make

    with ExitStack() as stack:
        for kind in ("_near_integrand", "_far_integrand"):
            stack.enter_context(_patched(reduced_ode, kind, recorded(kind)))
        reduced_ode.integrate_phi(spec, radii, tol)
    times = {
        "ExtremalSpec": _best_us(lambda: reduced_ode.ExtremalSpec(w, n)),
        "_handoff": _best_us(spec._handoff),
        "integrate_phi": _best_us(
            lambda: reduced_ode.integrate_phi(spec, radii, tol)),
    }
    for kind, (f, x) in nodes.items():
        times[f"{kind} pass {x.shape}"] = _best_us(lambda: f(x))
    return times


def print_solves(solves):
    """Spans per solve and the edges taken by layout, the find_root steps
    and the stop residuals of span_counts' solve records."""
    for layout, same in (("opposite branches", False), ("same branch", True)):
        records = [r for r in solves if r["same_branch"] is same]
        if records:
            spans = sum(r["spans"] for r in records)
            edges = ", ".join(
                f"{edge} in {sum(r['edge'] == edge for r in records)}"
                for edge in ("1/(v*z)", "n_lo", "0"))
            print(f"  {layout}: {len(records)} solves, {spans:,} spans, "
                  f"{spans / len(records):.2f} per solve; n_edge = {edges}")
    steps = sum(r["steps"] for r in solves)
    print(f"  find_root steps: {steps:,}, {steps / len(solves):.2f} per "
          f"solve")
    residuals = [r["residual"] for r in solves]
    print(f"  stop residual |span - target|: largest "
          f"{max(residuals):.3g}, mean {sum(residuals) / len(residuals):.3g}")


def main(argv=None) -> int:
    for seed in [int(s) for s in (argv or sys.argv[1:])] or [1]:
        print(f"seed-{seed} bvp jobs:")
        for key, value in span_counts(seed).items():
            if key in PASSES:
                print(f"  {key}: {value[0]:,} calls, {value[1]:,} points")
            elif key == "solves":
                print_solves(value)
            else:
                print(f"  {key}: {value:,}")
    w, n, radii, tol = REFERENCE
    print(f"reference span {w!r}, n {n}, radii {radii}, tol {tol} "
          f"(best of {REPEATS}, µs per call):")
    for part, us in span_times().items():
        print(f"  {part}: {us:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
