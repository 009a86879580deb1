"""Benchmark for the radial-extremals CLI: three closed-loop workloads, one
client each, every job run in-process through ``radial_extremals.cli.run``.

    python3 perfbench/run.py --workload trace|bvp|oracle --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
there and nothing else.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass (see NOTES.md).  Each
metric is printed on its own line with its unit, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when the run completed,
whether or not every job passed its gate.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import heapq  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import jobs as joblist  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# setup_s is reported in seconds at a reference speed: the set-up/numpy-import
# ratio times this median `import numpy` time of a fresh interpreter on a
# 2-vCPU x86-64 container.  It only fixes the unit; every run uses the same one.
NUMPY_IMPORT_S = 0.09
# The traced run covers the first TRACED_JOBS jobs: three 12-job cycles of
# the trace workload, so every job kind meets every weight kind, while the
# spans (about 10k per trace job) stay a few tens of MB.
TRACED_JOBS = 36
MIN_TAIL = 10          # the tail percentile keeps at least this many jobs beyond

UNITS = {"job_p50_cal": "cal", "job_tail_cal": "cal", "batch_cal": "cal",
         "setup_s": "s", "peak_rss_mb": "MB"}


# -- calibration kernel ----------------------------------------------------------

_CAL_X = np.linspace(-1.0, 1.0, 15)
_CAL_W = np.cos(np.linspace(0.0, math.pi, 15)) ** 2
_CAL_BIG = np.linspace(0.5, 2.0, 96)


def calibration_kernel() -> float:
    """Fixed work that never calls the library, with the library's mix:
    15-point numpy evaluations with checks, scalar float math, a heap, and a
    few mid-sized array passes like the oracle's."""
    acc = 0.0
    heap = []
    for i in range(300):
        x = 2.0 + (0.5 + 1e-3 * i) * _CAL_X
        fv = 1.0 / (x * np.sqrt(x * x - 1.0))
        if not np.all(np.isfinite(fv)) or np.any(fv <= 0.0):
            raise ArithmeticError("calibration kernel left its domain")
        acc += float(_CAL_W @ fv) + math.sqrt(1.0 + i) * math.cos(0.01 * i)
        heapq.heappush(heap, (-acc, i))
    for i in range(80):
        mid = np.hypot(_CAL_BIG, _CAL_BIG[::-1] + 1e-3 * i)
        acc += float(np.dot(mid ** 1.3, np.abs(np.diff(_CAL_BIG, prepend=0.0))))
    return acc + len(heap)


def timed_calibration() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


# -- running jobs ----------------------------------------------------------------

def load_cli():
    """The CLI module of the checkout's own ``src/``, or exit non-zero."""
    if not (SRC / "radial_extremals" / "__init__.py").is_file():
        sys.exit(f"perfbench: no radial_extremals package under {SRC}")
    sys.path.insert(0, str(SRC))
    from radial_extremals import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's")
    return cli


def run_job(cli, job):
    """(exit code, seconds, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.run(list(job.argv))
        except Exception:   # a crash is a failed job, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


class Tally:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, job, code, out, err) -> None:
        self.attempted += 1
        reason = joblist.gate(job, code, out, err)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"job {job.id} {job.argv}: {reason}")


def measure(cli, job_list, tally: Tally):
    """Per-job times in cal units and in seconds, and the seconds elapsed,
    over one pass of the job list.

    The calibration kernel runs between consecutive jobs, and a job's time
    is divided by the mean of the kernel times just before and just after
    it: the machine's speed drifts within a second, so nearer samples track
    it better than wider windows.
    """
    cal_units, raw = [], []
    begin = time.perf_counter()
    cal_before = timed_calibration()
    for job in job_list:
        code, dt, out, err = run_job(cli, job)
        cal_after = timed_calibration()
        cal_units.append(dt / (0.5 * (cal_before + cal_after)))
        raw.append(dt)
        cal_before = cal_after
        tally.add(job, code, out, err)
    return cal_units, raw, time.perf_counter() - begin


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  With a few dozen jobs whose
    costs spread widely it varies less between runs than one order
    statistic does."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))])
    edges = np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def tail_percentile(n: int) -> float:
    """Highest percentile with MIN_TAIL jobs beyond it (the median for
    lists too short to have one)."""
    return max((n - MIN_TAIL) / n, 0.5)


def setup_seconds(workload: str, seed: int, count: int):
    """(setup_s, raw seconds): medians over fresh interpreters of importing
    the package and CLI plus building the job list.

    Each set-up probe is paired with a probe that imports numpy alone, and
    setup_s is the median ratio of the two times scaled by NUMPY_IMPORT_S.
    Set-up is import work in a new process, which the calibration kernel
    does not track; the machine's speed moved raw set-up medians by up to
    60 % between sets of runs a quarter of an hour apart.
    """
    full = [sys.executable, str(HERE / "probe.py"), str(SRC), workload,
            str(seed), str(count)]
    bare = [sys.executable, str(HERE / "probe.py")]
    ratios, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        setup, numpy_import = (_probe(argv) for argv in (full, bare))
        if i:       # the first launch compiles bytecode and is not counted
            ratios.append(setup / numpy_import)
            raw.append(setup)
    return (NUMPY_IMPORT_S * statistics.median(ratios),
            statistics.median(raw))


def _probe(argv) -> float:
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def nproc() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "radial_extremals").glob("*.py")))


# -- the two kinds of run --------------------------------------------------------

def end_to_end(cli, workload, seed, job_list, tally):
    setup, setup_raw = setup_seconds(workload, seed, len(job_list))
    run_job(cli, job_list[0])          # untimed: fill caches, finish lazy set-up
    job_cal, job_s, elapsed = measure(cli, job_list, tally)
    pct = tail_percentile(len(job_cal))
    metrics = {
        "job_p50_cal": quantile(job_cal, 0.5),
        "job_tail_cal": quantile(job_cal, pct),
        "batch_cal": sum(job_cal),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    print(f"# jobs {len(job_list)}, measured {elapsed:.2f} s; "
          f"tail percentile p{100 * pct:.1f}")
    print(f"# not gated: jobs_per_s {len(job_list) / elapsed:.4f} 1/s, "
          f"job_p50_ms {1e3 * statistics.median(job_s):.3f} ms, "
          f"setup_raw_s {setup_raw:.4f} s, "
          f"fail_frac {tally.failed / tally.attempted:.4f}")
    return metrics


def traced(cli, workload, job_list, tally):
    job_list = job_list[:TRACED_JOBS]
    run_job(cli, job_list[0])
    untraced_s = sum(run_job(cli, job)[1] for job in job_list)
    trace = tracer.Tracer()
    trace.install()
    traced_s = 0.0
    try:
        for job in job_list:
            trace.job = job.id
            code, dt, out, err = run_job(cli, job)
            traced_s += dt
            tally.add(job, code, out, err)
    finally:
        trace.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}.csv"
    trace.write(spans_path)
    metrics = tracer.layer_metrics(trace.spans, trace.absent)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    print(f"# traced pass {traced_s:.3f} s, untraced {untraced_s:.3f} s; "
          f"{len(trace.spans)} spans written to {spans_path.relative_to(ROOT)}")
    if trace.absent:
        print(f"# absent names: {', '.join(trace.absent)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=joblist.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    count = joblist.job_count(args.workload, args.seconds)
    job_list = joblist.make_jobs(args.workload, args.seed, count)
    print(f"# workload {args.workload}, seed {args.seed}, python "
          f"{platform.python_version()}, numpy {np.__version__}, "
          f"nproc {nproc()}, src lines {src_lines()}")

    tally = Tally()
    if args.trace:
        values = traced(cli, args.workload, job_list, tally)
        units = {name: tracer.unit(name) for name in values}
    else:
        values = end_to_end(cli, args.workload, args.seed, job_list, tally)
        units = UNITS
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
