"""Reference errors of the benchmark's trace, bvp and oracle jobs.

Every number that a cosine or uniform-phi trace job (CSV and JSON) or a bvp
job of seeds 1 and 5 prints is compared with the power-law closed form

    phi(z) = +-arccos(1/(c*n*z^k))/k,   z* = (c*n)^(-1/k),   k = lam + 1,

at 40 digits, with c, lam and n read from the job's own argv, and must lie
within the job's tol.  Every vertex that an oracle job of seed 1 (CSV and
JSON, v = z) prints lies within C/N^2 of the extremal n*z^2*cos 2(phi - phi0)
= 1 through the job's endpoints, N its segment count and C the benchmark's
constant, and the polyline's largest gradient component is at most the
job's --grad-tol; n, phi0, the distances and the gradient are computed here
at 40 digits from the job's argv and the printed vertices.  The job lists
come from ``perfbench/jobs.py``, loaded by file path and only read, as
job_manifest.py does.  Check and SVG jobs are out of scope: a check prints
its own gates, and an SVG path carries 8 digits.

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
ORACLE_SEED = 1

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


def _oracle_pose(ends):
    """(n, phi0) of the extremal n*z^2*cos 2(phi - phi0) = 1 of v = z
    through both endpoints (x, y).  With z^2*cos 2(phi - t) = (y^2 - x^2)
    cos 2t + 2xy sin 2t, equal values at a and b fix 2*phi0 up to pi, and
    n > 0 picks the branch."""
    (xa, ya), (xb, yb) = [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in ends]
    A = (ya ** 2 - xa ** 2) - (yb ** 2 - xb ** 2)
    B = 2 * xa * ya - 2 * xb * yb
    for sign in (1, -1):
        t = mpmath.atan2(-sign * A, sign * B)
        n = 1 / ((ya ** 2 - xa ** 2) * mpmath.cos(t)
                 + 2 * xa * ya * mpmath.sin(t))
        if n > 0:
            return n, t / 2
    raise ValueError(f"no extremal of v = z through {ends}")


def _hyperbola_distance(n, phi0, x, y):
    """Distance from (x, y) to n*z^2*cos 2(phi - phi0) = 1: in axes turned
    by phi0 the curve is a*(sinh t, cosh t), a = 1/sqrt(n), and the foot
    of the normal solves u*cosh t + w*sinh t = a*sinh 2t."""
    u = x * mpmath.cos(phi0) - y * mpmath.sin(phi0)
    w = y * mpmath.cos(phi0) + x * mpmath.sin(phi0)
    a = 1 / mpmath.sqrt(n)
    t = mpmath.findroot(
        lambda t: u * mpmath.cosh(t) + w * mpmath.sinh(t)
        - a * mpmath.sinh(2 * t), mpmath.asinh(u / a))
    return mpmath.hypot(u - a * mpmath.sinh(t), w - a * mpmath.cosh(t))


def _polyline_gradient(verts):
    """Largest component of the gradient over the interior vertices of
    sum |m_j|*|e_j|, the midpoint-rule length of v = z, with m_j and e_j
    the midpoint and the vector of segment j."""
    worst = mpmath.mpf(0)
    seg = []
    for (xa, ya), (xb, yb) in zip(verts, verts[1:]):
        mx, my, ex, ey = (xa + xb) / 2, (ya + yb) / 2, xb - xa, yb - ya
        m, e = mpmath.hypot(mx, my), mpmath.hypot(ex, ey)
        # the gradient of |m|*|e| at either end is |e|/2 * m/|m|, plus
        # |m|*e/|e| at the right end and minus it at the left
        seg.append((e * mx / (2 * m), e * my / (2 * m),
                    m * ex / e, m * ey / e))
    for (hx, hy, px, py), (hx2, hy2, px2, py2) in zip(seg, seg[1:]):
        worst = max(worst, abs(hx + px + hx2 - px2),
                    abs(hy + py + hy2 - py2))
    return worst


def oracle_errors():
    """{kind: largest value} over the oracle jobs of ORACLE_SEED: N^2 times
    each vertex's distance to the curve, and the largest gradient
    component; raises AssertionError naming a job that fails to run or
    exceeds C/N^2 or its --grad-tol."""
    joblist = job_manifest._joblist()
    largest = {"N^2*distance": 0.0, "gradient": 0.0}
    with mpmath.workdps(40):
        for job in joblist.make_jobs("oracle", ORACLE_SEED,
                                     job_manifest.COUNTS["oracle"]):
            argv = job.argv
            code, out, err = job_manifest.run_job(argv)
            assert code == 0, (argv, err)
            if _arg(argv, "--format") == "csv":
                verts = [line.split(",") for line in out.splitlines()[2:]]
            else:
                verts = json.loads(out)["vertices"]
            verts = [(mpmath.mpf(float(x)), mpmath.mpf(float(y)))
                     for x, y in verts]
            segments = int(_arg(argv, "--segments"))
            text = next(a for a in argv if a.startswith("--endpoints="))
            ends = [float(x) for x in text.split("=", 1)[1].split(",")]
            assert len(verts) == segments + 1
            assert verts[0] == tuple(ends[:2]) and verts[-1] == tuple(ends[2:])
            n, phi0 = _oracle_pose([ends[:2], ends[2:]])
            dist = max(_hyperbola_distance(n, phi0, x, y) for x, y in verts)
            grad = _polyline_gradient(verts)
            assert dist <= joblist.ORACLE_DIST_C / segments ** 2, (argv, dist)
            assert grad <= float(_arg(argv, "--grad-tol")), (argv, grad)
            largest["N^2*distance"] = max(largest["N^2*distance"],
                                          float(segments ** 2 * dist))
            largest["gradient"] = max(largest["gradient"], float(grad))
    return largest


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


def test_oracle_polylines_lie_near_the_extremal():
    largest = oracle_errors()
    print("largest oracle values:", json.dumps(largest, indent=1))
    assert 0.0 < largest["N^2*distance"] and 0.0 < largest["gradient"]


if __name__ == "__main__":
    got, _ = reference_errors()
    got["oracle"] = oracle_errors()
    for workload, table in got.items():
        for kind, err in table.items():
            print(f"{workload:18s} {kind:18s} {err:.2e}")
