"""Byte-identity manifest of the benchmark's job lists.

One line per job of seed 1 at fixed counts (100 trace, 105 bvp and 70
oracle jobs, independent of the benchmark's nominal rates):

    <workload> <seed> <index> <sha256 of argv, exit code, stdout, stderr>

The job lists come from ``perfbench/jobs.py``, loaded by file path and only
read.  Each job runs in-process through ``radial_extremals.cli.run`` with
every warning shown, as the benchmark runs it.  Like the golden files, the
hashes depend on the numpy and libm of the machine that wrote them.

    PYTHONPATH=src python tests/job_manifest.py      # rewrite the manifest
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "golden" / "perfbench-jobs.sha256"
SEED = 1
COUNTS = {"trace": 100, "bvp": 105, "oracle": 70}


def _joblist():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def jobs():
    """(workload, index, argv) of every job the manifest covers."""
    joblist = _joblist()
    return [(workload, job.id, job.argv)
            for workload, count in COUNTS.items()
            for job in joblist.make_jobs(workload, SEED, count)]


def run_job(argv):
    """(exit code, stdout, stderr) of one in-process CLI run; an exception
    escaping the CLI is exit code -1 with its type and message on stderr."""
    from radial_extremals import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = cli.run(list(argv))
        except Exception as exc:   # a crash is a differing job, not an abort
            code = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def digest(argv, code, out, err) -> str:
    return hashlib.sha256(
        json.dumps([list(argv), code, out, err]).encode()).hexdigest()


def line(workload, index, argv) -> str:
    return f"{workload} {SEED} {index} {digest(argv, *run_job(argv))}"


def main() -> int:
    MANIFEST.write_text("".join(line(*job) + "\n" for job in jobs()))
    print(f"wrote {sum(COUNTS.values())} lines to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
