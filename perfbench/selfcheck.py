"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Checks, printing one PASS/FAIL line each:
a tiny run of each workload passes its gates and reports exactly the
metrics BENCHMARK.json lists; two traced runs with one seed give identical
counts; the gate rejects an oracle job cut off at 10 iterations and a bvp
answer off by 1e-6 relative.  Exits 1 if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import run  # also pins the BLAS thread counts
import jobs

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# --seconds sizes the job list (jobs.job_count): 2-3 jobs for a smoke run,
# 4-6 for a traced-repeat run.
SMOKE_SECONDS = 0.75
TRACED_SECONDS = 1.5


def bench(workload: str, seed: int, trace: int, seconds: float) -> dict:
    argv = [sys.executable, str(Path(run.__file__)), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600,
                          cwd=run.ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{argv} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_smoke(workload: str) -> str | None:
    doc = bench(workload, 1, 0, SMOKE_SECONDS)
    want = jobs.job_count(workload, SMOKE_SECONDS)
    if not doc["correct"] or doc["failed"] or doc["attempted"] < want:
        return f"result {doc}"
    if not all(m["value"] > 0 for m in doc["metrics"].values()):
        return f"a metric is not positive: {doc['metrics']}"
    return listed(doc["metrics"], "end_to_end")


def listed(metrics: dict, group: str) -> str | None:
    """Whether a run reported exactly BENCHMARK.json's metrics and units."""
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in metrics.items()}
    return None if got == want else f"{group} metrics {got}, expected {want}"


def check_trace_repeats(workload: str) -> str | None:
    first, second = (bench(workload, 7, 1, TRACED_SECONDS)["metrics"] for _ in range(2))
    problem = listed(first, "per_layer")
    if problem:
        return problem
    differ = [n for n, m in first.items()
              if m["unit"] != "s" and m["value"] != second[n]["value"]]
    return f"counts differ: {differ}" if differ else None


def check_gate_rejects() -> str | None:
    cli = run.load_cli()
    job = jobs.make_jobs("oracle", 3, 1)[0]
    job.argv[job.argv.index("--iters") + 1] = "10"
    code, _, out, err = run.run_job(cli, job)
    if code != 0:
        return f"oracle with --iters 10 exited {code}: {err}"
    if jobs.gate(job, code, out, err) is None:
        return "gate passed an oracle job stopped after 10 iterations"

    job = jobs.make_jobs("bvp", 3, 1)[0]
    code, _, out, err = run.run_job(cli, job)
    if jobs.gate(job, code, out, err) is not None:
        return f"gate failed a correct bvp job: {jobs.gate(job, code, out, err)}"
    n, phi0, z_turn, _ = (float(v) for v in out.splitlines()[2].split(","))
    if jobs.bvp_error(job, n * (1.0 + 1e-6), phi0, z_turn) is None:
        return "gate passed a bvp answer perturbed by 1e-6"
    return None


def main() -> int:
    checks = [(f"smoke run of {w}", check_smoke, (w,)) for w in jobs.WORKLOADS]
    checks += [(f"traced counts repeat on {w}", check_trace_repeats, (w,))
               for w in jobs.WORKLOADS]
    checks.append(("gate rejects unconverged oracle and perturbed bvp",
                   check_gate_rejects, ()))
    failures = 0
    for title, fn, args in checks:
        problem = fn(*args)
        failures += problem is not None
        print(f"{'PASS' if problem is None else 'FAIL'} {title}"
              + (f": {problem}" if problem else ""), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
