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

Jobs on weights that are not power laws (CASES below: trace jobs on both
grids and bvp jobs whose endpoints straddle the turn) are compared with
the Euler-Lagrange collocation of ``collocation_reference.py`` through
the job's two end points, at the same tol.

    PYTHONPATH=src python tests/test_job_references.py   # largest errors

prints the largest error of each kind per workload, with the job, the
sample and (z - z*)/z* where it occurs, and the mean and 90th percentile
of that kind's errors over its jobs: a maximum can move by one rounding
that the spread does not show.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import collocation_reference
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


def _trace_rows(argv, out):
    """(phi, z) rows and the printed z_turn (None for CSV) of a trace."""
    if _arg(argv, "--format") == "csv":
        return [[float(x) for x in line.split(",")[:2]]
                for line in out.splitlines()[2:]], None
    doc = json.loads(out)
    return ([(s["phi"], s["z"]) for s in doc["samples"]],
            doc["diagnostics"]["z_turn"])


def _trace_errors(job, out):
    """((largest angle error, its sample, (z - z*)/z* there), relative
    z_turn error or None) of one job."""
    argv = job.argv
    c, k = _power_law(argv)
    cn = c * mpmath.mpf(float(_arg(argv, "--n")))
    rows, z_turn = _trace_rows(argv, out)
    mid = len(rows) // 2
    zt = cn ** (-1 / k)
    # the turning sample prints 0 at the float z*, about sqrt(eps) from the
    # exact angle there: conditioning, not an error
    phi_err = max((float(abs(phi - math.copysign(1, i - mid)
                             * _angle(cn, k, z))), i, float((z - zt) / zt))
                  for i, (phi, z) in enumerate(rows) if i != mid)
    if z_turn is None:
        return phi_err, None
    return phi_err, float(abs(z_turn - zt) / zt)


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
    component, and _noter's places and values under the workload "oracle";
    raises AssertionError naming a job that fails to run or exceeds C/N^2
    or its --grad-tol."""
    joblist = job_manifest._joblist()
    largest, where = {}, {}
    note = _noter(largest, where)
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
            name = f"seed {ORACLE_SEED} job {job.id}"
            note("oracle", "N^2*distance", float(segments ** 2 * dist), name)
            note("oracle", "gradient", float(grad), name)
    return largest["oracle"], where


def reference_errors():
    """{workload: {kind: largest error}} over the jobs in scope, the jobs'
    tols, and _noter's places and errors; raises AssertionError naming a
    job that fails to run."""
    joblist = job_manifest._joblist()
    largest, where = {}, {}
    note = _noter(largest, where)
    with mpmath.workdps(40):
        for job in joblist.make_jobs("trace", TRACE_SEED,
                                     job_manifest.COUNTS["trace"]):
            if job.kind not in ("cosine", "uniform-phi") \
                    or job.ref["format"] == "svg":
                continue
            code, out, err = job_manifest.run_job(job.argv)
            assert code == 0, (job.argv, err)
            (phi_err, i, rel), zt_err = _trace_errors(job, out)
            name = f"seed {TRACE_SEED} job {job.id}"
            note(f"trace {job.kind}", "phi", phi_err,
                 f"{name} sample {i} (z-z*)/z* {rel:.1e}")
            if zt_err is not None:
                note(f"trace {job.kind}", "z_turn (relative)", zt_err, name)
        for seed in BVP_SEEDS:
            for job in joblist.make_jobs("bvp", seed,
                                         job_manifest.COUNTS["bvp"]):
                code, out, err = job_manifest.run_job(job.argv)
                assert code == 0, (job.argv, err)
                for kind, e in _bvp_errors(job, out).items():
                    note("bvp", kind, e, f"seed {seed} job {job.id}")
    return largest, {"trace": joblist.TRACE_TOL, "bvp": joblist.BVP_TOL}, \
        where


def _noter(largest, where):
    """note(workload, kind, error, place): keep the largest error of each
    kind in largest[workload][kind], and in where[workload, kind] its place
    and the list of every error of that kind."""
    def note(workload, kind, err, place):
        table = largest.setdefault(workload, {})
        seen = where.setdefault((workload, kind), [None, []])
        seen[1].append(err)
        if err >= table.get(kind, -1.0):
            table[kind] = err
            seen[0] = place
    return note


# weight text -> (n, z_max, bvp endpoints phi_a, z_a, phi_b, z_b): weights
# that are not power laws.  z_max lies inside the allowed region (the
# fish-eye 1/(1+z^2) at n 3 is allowed up to z2 = 2.618); the endpoints lie
# on the extremal of n turned to phi0 = 0.1, to 10 digits, one on each
# side of the turn
CASES = {
    "exp(-z)+0.2": (5.0, 0.5, (-0.9899188573, 0.3478174585, 1.4369046332,
                               0.5)),
    "2+sin(3*z)": (0.8, 0.7, (-0.5800940651, 0.5615176873, 0.9847771912,
                              0.7)),
    "log(z)/z": (1.0, 5.0, (-0.7144901530, 3.8591409142, 1.1544879994,
                            5.0)),
    "1/(1+z^2)": (3.0, 1.5, (-1.4163276523, 0.9409830056, 2.0526895750,
                             1.5)),
}
CASE_TOL = 1e-12      # the benchmark's trace and bvp tol
NODES = 64            # collocation nodes: coefficient tails below 1e-15
# Newton steps past the collocation's stop: at that stop the log(z)/z trace
# reference still missed its own turn by 7e-13 relative, one more step
# brings it to 2e-15
POLISH = 2


def case_jobs():
    """(name, kind, argv) of the trace jobs (cosine JSON, uniform-phi CSV)
    and the bvp job (JSON) of each weight of CASES."""
    for text, (n, z_max, ends) in CASES.items():
        common = ["--weight", text, "--n", repr(n), "--zmax", repr(z_max),
                  "--tol", repr(CASE_TOL)]
        yield (f"{text} cosine", "cosine",
               ["trace", *common, "--samples", "400", "--grid", "cosine",
                "--format", "json"])
        yield (f"{text} uniform-phi", "uniform-phi",
               ["trace", *common, "--samples", "100", "--grid",
                "uniform-phi", "--format", "csv"])
        yield (f"{text} bvp", "bvp",
               ["bvp", "--weight", text,
                "--endpoints=" + ",".join(map(repr, ends)),
                "--n-bracket", f"{0.9 * n!r}:{1.1 * n!r}",
                "--tol", repr(CASE_TOL), "--format", "json"])


class _Curve:
    """The Chebyshev interpolant of a collocation solution: z and dz/dphi
    at any phi between its end points, by the barycentric formula."""

    def __init__(self, sol):
        N = len(sol.z) - 1
        _, D = collocation_reference._cheb(N)
        self.phi, self.z = sol.phi, sol.z
        self.dz = (D / (0.5 * (sol.phi[0] - sol.phi[-1]))) @ sol.z
        self.weights = (-1.0) ** np.arange(N + 1)
        self.weights[[0, -1]] *= 0.5

    def __call__(self, phi, values):
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        d = phi[:, None] - self.phi[None, :]
        hit = d == 0.0
        t = self.weights / np.where(hit, 1.0, d)
        out = (t @ values) / t.sum(axis=1)
        rows, cols = np.nonzero(hit)
        out[rows] = values[cols]
        return out

    def turn(self):
        """(phi, z) where dz/dphi = 0, by bisection between the nodes next
        to the smallest z."""
        k = int(np.argmin(self.z))
        lo, hi = self.phi[min(k + 1, len(self.z) - 1)], self.phi[max(k - 1, 0)]
        s_lo = math.copysign(1.0, self(lo, self.dz)[0])
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if math.copysign(1.0, self(mid, self.dz)[0]) == s_lo:
                lo = mid
            else:
                hi = mid
        return float(mid), float(self(mid, self.z)[0])


def _collocate(text, a, b, start):
    """The collocation _Curve of the weight text from a to b, each
    (phi, z), and the reference's constant 1/mean(P)."""
    from radial_extremals import parse_weight
    sol = collocation_reference.collocate(parse_weight(text), a, b, start,
                                          NODES, polish=POLISH)
    return _Curve(sol), 1.0 / float(np.mean(sol.P))


def _bump(phi_a, phi_b, curve):
    """A start for the collocation: the values of curve(phi) raised by up to
    1 % between the end points, which it keeps."""
    def start(phi):
        s = (phi - phi_a) / (phi_b - phi_a)
        return curve(phi) * (1.0 + 0.04 * s * (1.0 - s))
    return start


def _by_n(text, n, radii):
    """d/dn of the library's angles from z* to each radius and of z*, by
    central differences: first-order sensitivities that move a printed
    number from the job's n to the reference's (a relative error of 1e-8
    in them is far below the tol)."""
    from radial_extremals import ExtremalSpec, integrate_phi, parse_weight
    h = 1e-5 * n
    ends = []
    for m in (n - h, n + h):
        spec = ExtremalSpec(parse_weight(text), m)
        ends.append([*integrate_phi(spec, radii, 1e-13).tolist(),
                     spec.z_turn])
    return [(hi - lo) / (2.0 * h) for lo, hi in zip(*ends)]


def _case_trace_errors(argv, out):
    """{kind: (error, sample or None)} of a trace job against the
    collocation through its two end samples: per sample the angle error
    (z - Z(phi))/Z'(phi), or the relative radial error where that is
    smaller (close to the turn the curve runs near a circle, and the
    reference's angles there are only good to about 1e-14/|Z'|); the span
    residual S'(n)*(n - n_ref) of the end samples, with n_ref the
    reference's constant; and the printed z_turn, moved to n_ref, against
    the reference's smallest radius."""
    text, n = _arg(argv, "--weight"), float(_arg(argv, "--n"))
    rows, z_turn = _trace_rows(argv, out)
    phi, z = np.array(rows).T
    start = _bump(phi[0], phi[-1], lambda x: np.interp(x, phi, z))
    curve, n_ref = _collocate(text, (phi[0], z[0]), (phi[-1], z[-1]), start)
    dz = z - curve(phi, curve.z)
    err = np.minimum(np.abs(dz / curve(phi, curve.dz)), np.abs(dz) / z)
    i = int(np.argmax(err))
    da, dzt = _by_n(text, n, [z[-1]])
    got = {"phi": (float(err[i]), i),
           "span residual": (abs(2.0 * da * (n - n_ref)), None)}
    if z_turn is not None:
        zt = curve.turn()[1]
        got["z_turn (relative)"] = (abs(z_turn - dzt * (n - n_ref) - zt)
                                    / zt, None)
    return got


def _case_bvp_errors(argv, out):
    """{kind: error} of a bvp job against the collocation through its
    endpoints: the span residual S'(n)*(n - n_ref), with n_ref the
    reference's constant; phi0 and z_turn, moved to n_ref, against the
    reference's turn; and the printed span against |phi_b - phi_a|."""
    from radial_extremals import ExtremalSpec, parse_weight, trace_extremal
    text = _arg(argv, "--weight")
    ends = next(a for a in argv if a.startswith("--endpoints="))
    phi_a, z_a, phi_b, z_b = (float(x) for x in ends.split("=", 1)[1]
                              .split(","))
    sol = json.loads(out)["solution"]
    n = sol["n"]
    spec = ExtremalSpec(parse_weight(text), n, phi0=sol["phi0"])
    lib = trace_extremal(spec, max(z_a, z_b), 400)
    start = _bump(phi_a, phi_b, lambda x: np.interp(x, lib.phi, lib.z))
    curve, n_ref = _collocate(text, (phi_a, z_a), (phi_b, z_b), start)
    phi_t, z_t = curve.turn()
    da, db, dzt = _by_n(text, n, [z_a, z_b])
    shift = n - n_ref
    # phi0 = phi_a + angle to z_a (phi_b > phi_a, the turn between them)
    return {"span residual": abs((da + db) * shift),
            "phi0": abs(sol["phi0"] - da * shift - phi_t),
            "z_turn (relative)": abs(sol["z_turn"] - dzt * shift - z_t) / z_t,
            "span": abs(sol["span"] - abs(phi_b - phi_a))}


def collocation_errors():
    """{workload: {kind: largest error}} over the jobs of CASES, their
    tol, and _noter's places and errors; raises AssertionError naming a
    job that fails to run."""
    largest, where = {}, {}
    note = _noter(largest, where)
    for name, kind, argv in case_jobs():
        code, out, err = job_manifest.run_job(argv)
        assert code == 0, (argv, err)
        if kind == "bvp":
            for what, e in _case_bvp_errors(argv, out).items():
                note("bvp (collocation)", what, e, name)
            continue
        z = [r[1] for r in _trace_rows(argv, out)[0]]
        for what, (e, i) in _case_trace_errors(argv, out).items():
            place = name
            if i is not None:    # the turning sample has the smallest z
                place += (f" sample {i} (z-z*)/z* "
                          f"{(z[i] - min(z)) / min(z):.1e}")
            note(f"trace {kind} (collocation)", what, e, place)
    return largest, CASE_TOL, where


def test_printed_numbers_match_the_closed_form():
    largest, tols, _ = reference_errors()
    print("largest reference errors:", json.dumps(largest, indent=1))
    assert set(largest) == {"trace cosine", "trace uniform-phi", "bvp"}
    for workload, table in largest.items():
        tol = tols[workload.split()[0]]
        for kind, err in table.items():
            assert err <= tol, (workload, kind, err, tol)


def test_non_power_law_jobs_match_the_collocation():
    largest, tol, _ = collocation_errors()
    print("largest collocation errors:", json.dumps(largest, indent=1))
    assert set(largest) == {"trace cosine (collocation)", "bvp (collocation)",
                            "trace uniform-phi (collocation)"}
    for workload, table in largest.items():
        for kind, err in table.items():
            assert err <= tol, (workload, kind, err, tol)


def test_oracle_polylines_lie_near_the_extremal():
    largest, _ = oracle_errors()
    print("largest oracle values:", json.dumps(largest, indent=1))
    assert 0.0 < largest["N^2*distance"] and 0.0 < largest["gradient"]


if __name__ == "__main__":
    got, _, places = reference_errors()
    more, _, more_places = collocation_errors()
    got.update(more)
    places.update(more_places)
    got["oracle"], oracle_places = oracle_errors()
    places.update(oracle_places)
    print(f"{'workload':31s} {'kind':18s} {'largest':8s} {'mean':8s} "
          f"{'p90':8s}  place of the largest")
    for workload, table in got.items():
        for kind, err in table.items():
            place, every = places[workload, kind]
            print(f"{workload:31s} {kind:18s} {err:.2e} "
                  f"{np.mean(every):.2e} {np.percentile(every, 90):.2e}  "
                  f"{place}")
