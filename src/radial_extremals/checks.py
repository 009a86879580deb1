"""Invariant checks on traced extremals, each a gate that can fail: the
first integral, the slope identity n*v*z = sqrt(1 + t^2) with t = (dz/dphi)/z
from the traced samples, the power-law closed forms, and second-order
convergence of the discrete stationarity residual."""

from __future__ import annotations

import math

import numpy as np

from . import closed_form
from .extremal_core import PolarPoint, clairaut_constant, el_residual
from .reduced_ode import ExtremalSpec, integrate_phi, trace_extremal
from .weights import PowerLaw, RadialWeight, eval_v

__all__ = ["max_el_residual", "gates"]


def _monotone_runs(x: np.ndarray):
    """(first, last) sample indices of the maximal strictly monotone runs
    of x that are at least 5 samples long."""
    d = np.sign(np.diff(x))
    cuts = np.flatnonzero(d[1:] != d[:-1]) + 1
    return [(int(a), int(b))
            for a, b in zip(np.r_[0, cuts], np.r_[cuts, d.size])
            if b - a >= 4 and d[a] != 0.0]


def max_el_residual(x: np.ndarray, y: np.ndarray,
                    w: RadialWeight) -> float | None:
    """Largest interior el_residual over the monotone-in-x runs of the
    sampled curve (x, y); None when no run has 5 samples."""
    worst = None
    for a, b in _monotone_runs(x):
        seg = np.column_stack((x[a:b + 1], y[a:b + 1]))
        if seg[0, 0] > seg[-1, 0]:
            seg = seg[::-1]
        peak = float(np.abs(el_residual(seg, w)[1:-1]).max())
        worst = peak if worst is None else max(worst, peak)
    return worst


def gates(w: RadialWeight, n: float, z_max: float, samples: int,
          tol: float) -> list:
    """(name, value, limit, cmp) rows for the extremal of w with constant n
    traced out to z_max; a row passes when value cmp limit holds, with cmp
    '<=' or '>='.  Power-law weights also get the closed-form gates, and
    v = 1/z gets the logarithmic-spiral gate instead of a trace.
    "Quadrature vs closed form" takes its 14 angles from one integrate_phi.
    """
    lam = w.lam if isinstance(w, PowerLaw) else None
    if lam == -1.0:
        # logarithmic-spiral family: constant first integral
        # log_spiral_point first: it rejects n < 1, and a radius at phi = 2,
        # the last of the 41 below, that overflows
        closed_form.log_spiral_point(n, 1.0, 2.0)
        t = math.sqrt(n * n - 1.0)
        z = np.exp(t * np.linspace(0.0, 2.0, 41))
        with np.errstate(divide="ignore"):   # t = 0: the marker inf
            p = 1.0 / (t * z)
        devs = np.abs(n * clairaut_constant(z, p, w) - 1.0)
        return [("first-integral deviation (spiral)", float(devs.max()),
                 1e-10, "<=")]

    spec = ExtremalSpec(w, n)
    n = spec.n   # a negative n only flips the walk's orientation
    result = trace_extremal(spec, z_max, samples, tol=tol)
    rows = [("max first-integral deviation",
             float(result.clairaut_deviation.max()), 1e-8, "<=")]

    # slope identity on the ascending branch, t = (dz/dphi)/z by differences
    zs, phis = result.z[samples - 1:], result.phi[samples - 1:]
    keep = zs > spec.z_turn + 0.1 * (z_max - spec.z_turn)
    t_fd = (np.gradient(zs, phis, edge_order=2) / zs)[keep]
    nvz = n * eval_v(w, zs[keep]) * zs[keep]
    rel = np.abs(nvz - np.sqrt(1.0 + t_fd ** 2)) / nvz
    rows.append(("slope identity vs finite differences", float(rel.max()),
                 1e-3, "<="))

    if lam is not None:
        curve = closed_form.PowerLawCurve(lam, n)
        pts = [closed_form.power_law_point(curve, psi)
               for psi in np.linspace(0.0, 1.4, 15)[1:].tolist()]
        got = integrate_phi(spec, [p.z for p in pts], 1e-12)
        worst = max([0.0, *np.abs(got - [p.phi for p in pts]).tolist()])
        rows.append(("quadrature vs closed form", worst, 1e-10, "<="))

        resid = max(abs(closed_form.algebraic_relation_residual(
            curve, PolarPoint(phi, z))) for phi, z in zip(phis.tolist(),
                                                          zs.tolist()))
        rows.append(("algebraic relation residual", resid, 1e-10, "<="))

    fine = trace_extremal(spec, z_max, 2 * samples - 1, tol=tol)
    r_coarse = max_el_residual(result.x, result.y, w)
    r_fine = max_el_residual(fine.x, fine.y, w)
    if r_coarse is not None and r_fine is not None:
        if r_coarse <= 1e-13:
            # already at machine level (e.g. straight lines); a halving
            # ratio would be rounding noise
            rows.append(("stationarity residual (machine level)", r_coarse,
                         1e-13, "<="))
        else:
            rows.append(("stationarity residual convergence factor",
                         r_coarse / r_fine, 3.5, ">="))
    return rows
