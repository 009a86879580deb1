"""Reference errors of the benchmark's trace and bvp jobs.

Every number that a cosine or uniform-phi trace job (CSV and JSON) or a bvp
job of seeds 1 and 5 prints is compared with the power-law closed form

    phi(z) = +-arccos(1/(c*n*z^k))/k,   z* = (c*n)^(-1/k),   k = lam + 1,

at 40 digits, with c, lam and n read from the job's own argv, and must lie
within the job's tol.  The job lists come from ``perfbench/jobs.py``, loaded
by file path and only read, as job_manifest.py does.  Check, SVG and oracle
jobs are out of scope: a check prints its own gates, an SVG path carries 8
digits, and the oracle solves a discretized problem.

    PYTHONPATH=src python tests/test_job_references.py   # largest errors

prints the largest error of each kind per workload.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import pytest

import job_manifest

mpmath = pytest.importorskip("mpmath")

TRACE_SEED = 1
BVP_SEEDS = (1, 5)

# the five expression spellings of c*z^lam in perfbench/jobs.py
_WEIGHTS = (
    (re.compile(r"([\d.]+)\*z\^([\d.]+)"), lambda c, p: (c, p)),
    (re.compile(r"z\^([\d.]+)\*([\d.]+)"), lambda p, c: (c, p)),
    (re.compile(r"exp\(([\d.]+)\*log\(z\)\)"), lambda p: ("1", p)),
    (re.compile(r"z\*sqrt\(z\)"), lambda: ("1", "1.5")),
    (re.compile(r"([\d.]+)\*z\*z"), lambda c: (c, "2")),
)


def _arg(argv, name):
    return argv[argv.index(name) + 1]


def _power_law(argv):
    """(c, k) of the job's weight c*z^lam as 40-digit numbers, k = lam + 1
    with lam the float the library reads."""
    if "--lambda" in argv:
        c, lam = "1", float(Fraction(_arg(argv, "--lambda")))
    else:
        text = _arg(argv, "--weight")
        for pattern, parts in _WEIGHTS:
            m = pattern.fullmatch(text)
            if m:
                c, lam = parts(*m.groups())
                break
        else:
            raise ValueError(f"weight {text!r} is not a job's power law")
    return mpmath.mpf(c), mpmath.mpf(float(lam)) + 1


def _angle(cn, k, z):
    """The closed-form angle from z* to z."""
    return mpmath.acos(1 / (cn * mpmath.mpf(z) ** k)) / k


def _trace_errors(job, out):
    """(largest angle error, relative z_turn error or None) of one job."""
    argv = job.argv
    c, k = _power_law(argv)
    cn = c * mpmath.mpf(float(_arg(argv, "--n")))
    if _arg(argv, "--format") == "csv":
        rows = [[float(x) for x in line.split(",")[:2]]
                for line in out.splitlines()[2:]]
        z_turn = None
    else:
        doc = json.loads(out)
        rows = [(s["phi"], s["z"]) for s in doc["samples"]]
        z_turn = doc["diagnostics"]["z_turn"]
    mid = len(rows) // 2
    # the turning sample prints 0 at the float z*, about sqrt(eps) from the
    # exact angle there: conditioning, not an error
    phi_err = max(abs(phi - math.copysign(1, i - mid) * _angle(cn, k, z))
                  for i, (phi, z) in enumerate(rows) if i != mid)
    if z_turn is None:
        return float(phi_err), None
    zt = cn ** (-1 / k)
    return float(phi_err), float(abs(z_turn - zt) / zt)


def _bvp_errors(job, out):
    """{kind: error} of one job: the closed-form span at the printed n minus
    the target span, the printed span against the closed-form span, phi0
    against the closed-form pose, and z_turn relative."""
    argv = job.argv
    c, k = _power_law(argv)
    text = next(a for a in argv if a.startswith("--endpoints="))
    phi_a, z_a, phi_b, z_b = (float(x) for x in
                              text.split("=", 1)[1].split(","))
    if _arg(argv, "--format") == "csv":
        n, phi0, z_turn, span = (float(x) for x in
                                 out.splitlines()[2].split(","))
    else:
        sol = json.loads(out)["solution"]
        n, phi0, z_turn, span = (sol[key] for key in
                                 ("n", "phi0", "z_turn", "span"))
    cn = c * mpmath.mpf(n)
    da, db = _angle(cn, k, z_a), _angle(cn, k, z_b)
    if "--same-branch" in argv:
        want = abs(da - db)
        sgn = math.copysign(1.0, (phi_b - phi_a) * (z_b - z_a)) \
            if z_b != z_a else 1.0
        pose = phi_a - sgn * da
    else:
        want = da + db
        pose = phi_a + math.copysign(1.0, phi_b - phi_a) * da
    zt = cn ** (-1 / k)
    return {"span residual": float(abs(want - abs(phi_b - phi_a))),
            "span": float(abs(span - want)),
            "phi0": float(abs(phi0 - pose)),
            "z_turn (relative)": float(abs(z_turn - zt) / zt)}


def reference_errors():
    """{workload: {kind: largest error}} over the jobs in scope, and the
    jobs' tols; raises AssertionError naming a job that fails to run."""
    joblist = job_manifest._joblist()
    largest = {}

    def note(workload, kind, err):
        table = largest.setdefault(workload, {})
        table[kind] = max(table.get(kind, 0.0), err)

    with mpmath.workdps(40):
        for job in joblist.make_jobs("trace", TRACE_SEED,
                                     job_manifest.COUNTS["trace"]):
            if job.kind not in ("cosine", "uniform-phi") \
                    or job.ref["format"] == "svg":
                continue
            code, out, err = job_manifest.run_job(job.argv)
            assert code == 0, (job.argv, err)
            phi_err, zt_err = _trace_errors(job, out)
            note(f"trace {job.kind}", "phi", phi_err)
            if zt_err is not None:
                note(f"trace {job.kind}", "z_turn (relative)", zt_err)
        for seed in BVP_SEEDS:
            for job in joblist.make_jobs("bvp", seed,
                                         job_manifest.COUNTS["bvp"]):
                code, out, err = job_manifest.run_job(job.argv)
                assert code == 0, (job.argv, err)
                for kind, e in _bvp_errors(job, out).items():
                    note("bvp", kind, e)
    return largest, {"trace": joblist.TRACE_TOL, "bvp": joblist.BVP_TOL}


def test_printed_numbers_match_the_closed_form():
    largest, tols = reference_errors()
    print("largest reference errors:", json.dumps(largest, indent=1))
    assert set(largest) == {"trace cosine", "trace uniform-phi", "bvp"}
    for workload, table in largest.items():
        tol = tols[workload.split()[0]]
        for kind, err in table.items():
            assert err <= tol, (workload, kind, err, tol)


if __name__ == "__main__":
    got, _ = reference_errors()
    for workload, table in got.items():
        for kind, err in table.items():
            print(f"{workload:18s} {kind:18s} {err:.2e}")
