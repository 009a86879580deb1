"""Every benchmark job of seed 1 keeps its argv, exit code, stdout and stderr
byte for byte (see job_manifest.py)."""

import job_manifest


def test_jobs_match_manifest():
    want = job_manifest.MANIFEST.read_text().splitlines()
    jobs = job_manifest.jobs()
    assert len(want) == len(jobs) == sum(job_manifest.COUNTS.values())
    for job, expected in zip(jobs, want):
        got = job_manifest.line(*job)
        if got != expected:
            workload, index, argv = job
            code, _, err = job_manifest.run_job(argv)
            raise AssertionError(
                f"{workload} job {index} differs from "
                f"{job_manifest.MANIFEST.name}: argv {argv}, exit code "
                f"{code}, stderr {err[:200]!r}; got {got!r}, expected "
                f"{expected!r}.  The manifest holds this machine's numpy "
                "and libm bits; a change that moves output on purpose "
                "rewrites it with tests/job_manifest.py.")
