"""Job lists for the three workloads and the correctness gate for each job.

A job is one ``radial-extremals`` command line plus the reference the
benchmark computes itself from the closed form

    c*n * z^k * cos(k*(phi - phi0)) = 1,      k = lam + 1,

of the weight v = c*z^lam.  Expression weights are power laws written in a
non-bare form (``2.5*z^1.3``, ``z*sqrt(z)``, ``exp(0.7*log(z))``), so they
take the parsed-expression path through the library and still have an exact
answer.  Job lists are stratified: the mix of job kinds, formats and weight
kinds is fixed by position in the list.  The drawn parameters of job i are
the coordinates of a Halton point (a low-discrepancy set that covers the
parameter box evenly in every dimension at once), handed to positions by a
fixed shuffle and, except for the first, shifted by a seeded offset modulo 1,
so every seed's list covers the same ranges as evenly and costs nearly the
same.

Importing this module needs numpy and nothing from the library.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("trace", "bvp", "oracle")

# Jobs per second of --seconds, measured on a 2-vCPU x86-64 container, so a
# run of one pass over the list lasts about --seconds there.
NOMINAL_RATE = {"trace": 4.0, "bvp": 4.2, "oracle": 2.8}

TRACE_SAMPLES = 400
UNIFORM_SAMPLES = 200
TRACE_TOL = 1e-12
BVP_TOL = 1e-12
ORACLE_GRAD_TOL = 3e-7
ORACLE_ITERS = 200_000
ORACLE_DIST_C = 1.0        # polyline within ORACLE_DIST_C / N^2 of the curve

# (kind, format) by position in a cycle of 12 trace jobs.  The uniform-phi
# slot holds a cosine job in odd cycles: a uniform-phi job costs about 4
# cosine jobs, and with more of them the tail percentile falls in the gap
# below their cluster.
_TRACE_SLOTS = (("cosine", "csv"), ("cosine", "json"), ("cosine", "svg"),
                ("check", None), ("cosine", "csv"), ("uniform-phi", "csv"),
                ("cosine", "json"), ("cosine", "svg"), ("check", None),
                ("cosine", "csv"), ("cosine", "json"), ("cosine", "svg"))


@dataclass
class Job:
    id: int
    kind: str              # cosine | uniform-phi | check | bvp | oracle
    argv: list
    ref: dict = field(default_factory=dict)


def job_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * NOMINAL_RATE[workload]))


def make_jobs(workload: str, seed: int, count: int) -> list:
    """The job list of one run: same (workload, seed, count), same list."""
    shift = np.random.default_rng([seed, WORKLOADS.index(workload)]).random(
        len(_PRIMES))
    # the first draw (the exponent, or the oracle's segment count) sets a
    # job's cost most; unshifted, it repeats by position for every seed
    shift[0] = 0.0
    points = np.random.default_rng(len(_PRIMES)).permutation(count) + 1
    make = {"trace": _trace_job, "bvp": _bvp_job, "oracle": _oracle_job}
    return [make[workload](i, (_halton(int(k)) + shift) % 1.0)
            for i, k in enumerate(points)]


_PRIMES = (2, 3, 5, 7, 11, 13)


def _halton(k: int) -> np.ndarray:
    """Point k of the Halton set: radical inverses of k in prime bases."""
    out = np.zeros(len(_PRIMES))
    for j, base in enumerate(_PRIMES):
        f, i = 1.0, k
        while i:
            f /= base
            out[j] += f * (i % base)
            i //= base
    return out


def _between(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * float(u)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _weight(i: int, u) -> tuple:
    """(argv, lam, c) for job i from draws u[0], u[1]: two thirds
    --lambda a/10, one third an expression weight whose closed form is
    c*z^lam."""
    cycle, slot = divmod(i, 12)
    if (slot + cycle) % 3 != 2:
        a = int(31 * u[0])
        return ["--lambda", f"{a}/10"], a / 10, 1.0
    p = (1 + int(30 * u[0])) / 10
    c = round(_between(0.5, 3.0, u[1]), 3)
    form = (i // 3) % 5
    if form == 0:
        return ["--weight", f"{c!r}*z^{p!r}"], p, c
    if form == 1:
        return ["--weight", f"z^{p!r}*{c!r}"], p, c
    if form == 2:
        return ["--weight", f"exp({p!r}*log(z))"], p, 1.0
    if form == 3:
        return ["--weight", "z*sqrt(z)"], 1.5, 1.0
    return ["--weight", f"{c!r}*z*z"], 2.0, c


def _trace_job(i: int, u) -> Job:
    kind, fmt = _TRACE_SLOTS[i % 12]
    if kind == "uniform-phi" and (i // 12) % 2:
        kind = "cosine"
    wargs, lam, c = _weight(i, u)
    n = _between(0.7, 2.2, u[2])
    z_turn = (c * n) ** (-1.0 / (lam + 1.0))
    z_max = z_turn * _between(2.0, 4.0, u[3])
    ref = {"lam": lam, "cn": c * n, "z_turn": z_turn, "z_max": z_max,
           "power_law": wargs[0] == "--lambda"}
    common = [*wargs, "--n", _g17(n), "--zmax", _g17(z_max)]
    if kind == "check":
        return Job(i, kind, ["check", *common], ref)
    samples = TRACE_SAMPLES if kind == "cosine" else UNIFORM_SAMPLES
    ref.update(samples=samples, format=fmt)
    return Job(i, kind, ["trace", *common, "--samples", str(samples),
                         "--tol", repr(TRACE_TOL), "--grid", kind,
                         "--format", fmt], ref)


def _curve_point(lam: float, cn: float, phi0: float, psi: float):
    k = lam + 1.0
    return phi0 + psi / k, (cn * math.cos(psi)) ** (-1.0 / k)


def _bvp_job(i: int, u) -> Job:
    wargs, lam, c = _weight(i, u)
    n_true = _between(0.7, 2.2, u[2])
    phi0 = _between(-0.5, 0.5, u[3])
    same_branch = i % 2 == 1
    if same_branch:
        psi_a, psi_b = _between(0.6, 0.9, u[4]), _between(1.0, 1.3, u[5])
    else:
        psi_a, psi_b = -_between(0.6, 1.3, u[4]), _between(0.6, 1.3, u[5])
    phi_a, z_a = _curve_point(lam, c * n_true, phi0, psi_a)
    phi_b, z_b = _curve_point(lam, c * n_true, phi0, psi_b)
    fmt = "csv" if (i // 2) % 2 == 0 else "json"
    argv = ["bvp", *wargs,
            "--endpoints=" + ",".join(_g17(v) for v in (phi_a, z_a, phi_b, z_b)),
            "--n-bracket", f"{_g17(0.85 * n_true)}:{_g17(1.6 * n_true)}",
            "--tol", repr(BVP_TOL), "--format", fmt]
    if same_branch:
        argv.append("--same-branch")
    ref = {"lam": lam, "n": n_true, "cn": c * n_true, "phi0": phi0,
           "format": fmt}
    return Job(i, "bvp", argv, ref)


def _oracle_job(i: int, u) -> Job:
    # log-uniform on [16, 48]: descent cost grows about as N^2, so this keeps
    # the median job in the dense part of the cost distribution
    segments = int(16 * 3.0 ** float(u[0]) + 0.5)
    n = _between(0.7, 2.2, u[1])
    phi0 = _between(-0.5, 0.5, u[2])
    psi = _between(0.6, 1.2, u[3])
    ends = []
    for s in (-psi, psi):
        phi, z = _curve_point(1.0, n, phi0, s)
        ends += [z * math.sin(phi), z * math.cos(phi)]
    fmt = "csv" if i % 2 == 0 else "json"
    argv = ["oracle", "--lambda", "1",
            "--endpoints=" + ",".join(_g17(v) for v in ends),
            "--segments", str(segments), "--iters", str(ORACLE_ITERS),
            "--grad-tol", repr(ORACLE_GRAD_TOL), "--format", fmt]
    ref = {"n": n, "phi0": phi0, "psi": psi, "segments": segments,
           "ends": ends, "format": fmt}
    return Job(i, "oracle", argv, ref)


# -- correctness gates ---------------------------------------------------------

def gate(job: Job, code: int, out: str, err: str) -> str | None:
    """None when the job's output matches its reference, else the reason."""
    if code != 0:
        return f"exit code {code}: {err.strip()[:200]}"
    try:
        return _GATES[job.kind](job, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _csv_rows(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines[0].startswith("#") or lines[1] != header:
        raise ValueError(f"unexpected CSV preamble {lines[:2]!r}")
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])


def _curve_distance(ref: dict, phi: np.ndarray, z: np.ndarray,
                    absolute: bool = False) -> float:
    """Largest distance from (phi, z) samples to the closed-form curve,
    to first order in the relation's residual r: |r| / |grad r|.  Relative
    to the radius unless absolute is set."""
    k = ref["lam"] + 1.0
    u = ref["cn"] * z ** k
    rel = np.abs(u * np.cos(k * (phi - ref.get("phi0", 0.0))) - 1.0) / (k * u)
    return float(np.max(rel * z if absolute else rel))


def _trace_arrays(job: Job, out: str):
    if job.ref["format"] == "csv":
        rows = _csv_rows(out, "phi,z,x,y,clairaut_dev")
        return rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4], None
    doc = json.loads(out)
    s = doc["samples"]
    cols = [np.array([p[key] for p in s], dtype=float)
            for key in ("phi", "z", "x", "y", "clairaut_dev")]
    return (*cols, doc["diagnostics"])


def _gate_trace(job: Job, out: str) -> str | None:
    ref = job.ref
    if ref["format"] == "svg":
        return _gate_svg(job, out)
    phi, z, x, y, dev, diag = _trace_arrays(job, out)
    k = ref["samples"]
    if len(z) != 2 * k - 1:
        return f"{len(z)} samples, expected {2 * k - 1}"
    if abs(z.min() - ref["z_turn"]) > 1e-12 * ref["z_turn"]:
        return f"turning radius {z.min()!r}, expected {ref['z_turn']!r}"
    if z[0] != ref["z_max"] or z[-1] != ref["z_max"]:
        return "branches do not end at z_max"
    if np.any(np.diff(phi) <= 0.0):
        return "phi is not increasing along the walk"
    if max(np.abs(x - z * np.sin(phi)).max(),
           np.abs(y - z * np.cos(phi)).max()) > 1e-14 * ref["z_max"]:
        return "x, y disagree with phi, z"
    dist = _curve_distance(ref, phi, z)
    if dist > 1e-10:
        return f"distance to the closed form {dist:.3e} > 1e-10"
    if dev.max() > 1e-8:
        return f"first-integral deviation {dev.max():.3e} > 1e-8"
    if job.kind == "uniform-phi":
        step = np.diff(phi[k - 1:])
        if np.abs(step - step.mean()).max() > 1e-9 * phi[-1]:
            return "uniform-phi samples are not equally spaced in phi"
    if diag is not None:
        if abs(diag["z_turn"] - ref["z_turn"]) > 1e-12 * ref["z_turn"]:
            return "diagnostics z_turn disagrees with the closed form"
        if not diag["max_clairaut_dev"] <= 1e-8:
            return "diagnostics max_clairaut_dev above 1e-8"
    return None


_SVG_PATH = re.compile(r'<path d="M ([^"]*)"')


def _gate_svg(job: Job, out: str) -> str | None:
    paths = _SVG_PATH.findall(out)
    if len(paths) != 2 or not out.startswith("<svg"):
        return f"expected an SVG with 2 paths, got {len(paths)}"
    for d in paths:
        pts = np.array([[float(v) for v in p.split()] for p in d.split(" L ")])
        if len(pts) != job.ref["samples"]:
            return f"SVG path has {len(pts)} points"
        x, y = pts[:, 0], -pts[:, 1]
        dist = _curve_distance(job.ref, np.arctan2(x, y), np.hypot(x, y))
        if dist > 1e-7:      # coordinates carry 8 significant digits
            return f"SVG path off the closed form by {dist:.3e}"
    return None


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (.+): \S+ \((<=|>=) \S+\)$")
_POWER_ONLY = {"quadrature vs closed form", "algebraic relation residual"}


def _gate_check(job: Job, out: str) -> str | None:
    lines = out.strip().splitlines()
    if lines[-1] != "all checks passed":
        return f"check report ends with {lines[-1]!r}"
    names = set()
    for line in lines[:-1]:
        m = _CHECK_LINE.match(line)
        if not m or m.group(1) != "PASS":
            return f"check line {line!r}"
        names.add(m.group(2))
    expected = {"max first-integral deviation",
                "slope identity vs finite differences"}
    if job.ref["power_law"]:
        expected |= _POWER_ONLY
    if not expected <= names or len(names) != len(expected) + 1:
        return f"check report lists {sorted(names)}"
    return None


def _gate_bvp(job: Job, out: str) -> str | None:
    if job.ref["format"] == "csv":
        n, phi0, z_turn, _ = _csv_rows(out, "n,phi0,z_turn,span")[0]
    else:
        sol = json.loads(out)["solution"]
        n, phi0, z_turn = sol["n"], sol["phi0"], sol["z_turn"]
    return bvp_error(job, n, phi0, z_turn)


def bvp_error(job: Job, n: float, phi0: float, z_turn: float) -> str | None:
    """Gate on a solved constant n and the pose phi0 it implies."""
    ref = job.ref
    if not abs(n - ref["n"]) <= 1e-7 * ref["n"]:
        return f"n = {n!r}, expected {ref['n']!r} within 1e-7 relative"
    if not abs(phi0 - ref["phi0"]) <= 1e-6:
        return f"phi0 = {phi0!r}, expected {ref['phi0']!r} within 1e-6"
    zt = (ref["cn"] / ref["n"] * n) ** (-1.0 / (ref["lam"] + 1.0))
    if not abs(z_turn - zt) <= 1e-12 * zt:
        return f"z_turn = {z_turn!r} disagrees with n = {n!r}"
    return None


def _gate_oracle(job: Job, out: str) -> str | None:
    if job.ref["format"] == "csv":
        verts = _csv_rows(out, "x,y")
    else:
        verts = np.array(json.loads(out)["vertices"], dtype=float)
    return oracle_error(job, verts)


def oracle_error(job: Job, verts: np.ndarray) -> str | None:
    """Gate on a minimized polyline: converged, and close to the curve."""
    ref = job.ref
    segs = ref["segments"]
    if verts.shape != (segs + 1, 2):
        return f"polyline shape {verts.shape}, expected {(segs + 1, 2)}"
    if not np.array_equal(verts[[0, -1]].ravel(), ref["ends"]):
        return "polyline endpoints moved"
    gmax = float(np.abs(polyline_gradient(verts)).max())
    if not gmax <= ORACLE_GRAD_TOL:
        return f"max gradient component {gmax:.3e} > {ORACLE_GRAD_TOL:.1e}"
    dist = _polyline_distance(ref, verts)
    if not dist <= ORACLE_DIST_C / segs ** 2:
        return f"distance to the curve {dist:.3e} > {ORACLE_DIST_C}/N^2"
    return None


def polyline_gradient(verts: np.ndarray) -> np.ndarray:
    """Gradient over the interior vertices of sum |m_j| * |e_j| (v = z),
    written here independently of the library."""
    e = np.diff(verts, axis=0)
    m = 0.5 * (verts[1:] + verts[:-1])
    length = np.linalg.norm(e, axis=1)[:, None]
    z = np.linalg.norm(m, axis=1)[:, None]
    half = 0.5 * length * m / z          # d|m|/dm * |e| / 2 per end
    pull = z * e / length                # |m| * d|e|/d(end)
    return (half[:-1] + pull[:-1]) + (half[1:] - pull[1:])


def _polyline_distance(ref: dict, verts: np.ndarray) -> float:
    phi = np.arctan2(verts[:, 0], verts[:, 1])
    z = np.hypot(verts[:, 0], verts[:, 1])
    return _curve_distance({"lam": 1.0, "cn": ref["n"], "phi0": ref["phi0"]},
                           phi, z, absolute=True)


_GATES = {"cosine": _gate_trace, "uniform-phi": _gate_trace,
          "check": _gate_check, "bvp": _gate_bvp, "oracle": _gate_oracle}
