"""The work and the time of bvp spans, the angle evaluations of a two-point
solve (bvp._branch_angles: one ExtremalSpec and one integrate_phi each).

Over the 105 bvp jobs of the benchmark's seed-1 list it counts the spans,
the kronrod_panels calls, the weight passes that reduced_ode makes (calls
and points, by kind), the np.errstate entries and the calls of the
expression walks expressions.evaluate and evaluate_slope (one per node
visited: each walk calls itself through the module).  On one reference span,
PowerLaw(0.7) at n 1.3 to radii 1.2 and 1.6 at the benchmark's span
tolerance 1e-13, it prints the best of 7 timings, in microseconds, of
ExtremalSpec, its _handoff, integrate_phi and the near and far integrand
passes of the span's first quadrature call.

    PYTHONPATH=src python tests/span_costs.py

The job list comes from ``perfbench/jobs.py``, loaded by file path through
job_manifest.py and only read.  pytest does not collect this file;
test_bvp.py pins its counts.
"""

from __future__ import annotations

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


def span_counts(seed=1):
    """{"spans", "kronrod_panels", "errstate" entries and each name of
    WALKS: counts; each name of PASSES: (calls, points)} over the bvp jobs
    of a seed's list, each of which must exit with code 0."""
    counts = dict.fromkeys(("spans", "kronrod_panels", "errstate", *WALKS),
                           0)
    counts.update((name, (0, 0)) for name in PASSES)

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


def main() -> int:
    counts = span_counts()
    print("seed-1 bvp jobs:")
    for key, value in counts.items():
        if key in PASSES:
            print(f"  {key}: {value[0]:,} calls, {value[1]:,} points")
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
