"""Byte-identity manifest of the benchmark's job lists.

One line per job of seed 1 at fixed counts (100 trace, 105 bvp and 70
oracle jobs, independent of the benchmark's nominal rates):

    <workload> <seed> <index> <sha256 of argv, exit code, stdout, stderr>

The job lists come from ``perfbench/jobs.py``, loaded by file path and only
read.  Each job runs in-process through ``radial_extremals.cli.run`` with
every warning shown, as the benchmark runs it.  Like the golden files, the
hashes depend on the numpy and libm of the machine that wrote them.

    PYTHONPATH=src python tests/job_manifest.py              # rewrite it
    PYTHONPATH=src python tests/job_manifest.py --print 5 9  # write nothing
    PYTHONPATH=src python tests/job_manifest.py --print 5 9 --workload oracle

With --print the lines of the given seeds, at the same counts, go to
standard output and no file is written, so two trees are compared job by
job with a diff of that command's output in each; --workload keeps the lines
of one workload only.
"""

from __future__ import annotations

import contextlib
import argparse
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


def jobs(seed=SEED):
    """(workload, index, argv) of every job the manifest covers, or of the
    same counts drawn from another seed."""
    joblist = _joblist()
    return [(workload, job.id, job.argv)
            for workload, count in COUNTS.items()
            for job in joblist.make_jobs(workload, seed, count)]


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


def line(workload, index, argv, seed=SEED) -> str:
    return f"{workload} {seed} {index} {digest(argv, *run_job(argv))}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--print", nargs="+", type=int, metavar="SEED",
                        help="print the lines of these seeds to standard "
                             "output; the manifest is left as it is")
    parser.add_argument("--workload", choices=sorted(COUNTS),
                        help="with --print, only this workload's lines")
    args = parser.parse_args(argv)
    if args.workload and not args.print:
        parser.error("--workload needs --print")
    if args.print:
        for seed in args.print:
            for job in jobs(seed):
                if args.workload in (None, job[0]):
                    print(line(*job, seed=seed), flush=True)
        return 0
    MANIFEST.write_text("".join(line(*job) + "\n" for job in jobs()))
    print(f"wrote {sum(COUNTS.values())} lines to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
