"""Tracing extremals from the reduced first-order equation.

Along an extremal the quantity n*v(z)*z determines everything: the curve's
closest approach to the pole is the turning radius z* where n*v(z*)*z* = 1,
and away from it the polar angle obeys

    dphi = dz / (z * sqrt(n^2 v(z)^2 z^2 - 1)).

The integrand has an inverse-square-root singularity at z*.  Writing
g(z) = n*v(z)*z - 1, the substitution w = sqrt(g) turns the angle element
into

    dphi = 2 dw / (g'(z) * z * sqrt(w^2 + 2)),      z = z(w),

which is smooth through the turning point and, crucially, anchors the lower
limit w = 0 at the exact root of g: the angle measured from the turning
point stays well conditioned even though z* itself is only known to
rounding.  Radii where g is no longer small are integrated directly in z
(the raw integrand is well conditioned there); the two regions meet at a
fixed handoff value of g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import (DomainError, ForbiddenRegion, NoBracket,
                     TangentialTurningPoint)
from .roots import find_root
from .weights import PowerLaw, RadialWeight, eval_q, eval_v

__all__ = ["ExtremalSpec", "TraceResult", "turning_radius", "dphi_dz",
           "integrate_phi", "trace_extremal", "first_integral_deviation"]

_G_HANDOFF = 0.5          # g value at which integration switches to z-space
_TABLE_SIZE = 64          # samples in the cached w -> z inversion table
_TURN_GTOL = 4.0 * np.finfo(float).eps   # |g| at z*: rounding level


def _profile(w: RadialWeight, n: float, z):
    """g(z) = n*v(z)*z - 1; its positive-slope root is the turning radius."""
    return n * eval_v(w, z) * z - 1.0


def _profile_slope(w: RadialWeight, n: float, z):
    """g'(z) = n*(q(z)*z + v(z))."""
    return n * (eval_q(w, z) * z + eval_v(w, z))


def turning_radius(w: RadialWeight, n: float, bracket) -> float:
    """Root z* of n*v(z)*z = 1 inside a sign-changing bracket.

    roots.find_root drives |n*v*z - 1| to 4 eps (well inside 1e-13) or the
    bracket to a few ulps.  The crossing must be transversal and increasing:
    |g'(z*)| < 1e-8 raises TangentialTurningPoint, and a decreasing crossing
    (g' < 0) is rejected because z < z* would then be the allowed side.
    """
    z_lo, z_hi = float(bracket[0]), float(bracket[1])
    best, _ = find_root(lambda z: _profile(w, n, z), z_lo, z_hi,
                        _profile(w, n, z_lo), _profile(w, n, z_hi),
                        _TURN_GTOL)
    slope = _profile_slope(w, n, best)
    if abs(slope) < 1e-8:
        raise TangentialTurningPoint(
            f"n*v(z)*z has near-zero slope {slope:.3e} at z = {best}")
    if slope < 0.0:
        raise DomainError(
            "n*v(z)*z crosses 1 from above; only increasing crossings "
            "bound a traceable outer region")
    return best


def _masked_profile(w: RadialWeight, n: float, z: np.ndarray):
    """g(z) from the raw weight on an array, and the mask where eval_v would
    succeed: v finite and positive, z inside the weight's domain."""
    with np.errstate(all="ignore"):
        v = w._raw_v(z)
        g = n * v * z - 1.0
    return g, np.isfinite(v) & (v > 0.0) & (z > w.domain_min)


def _auto_bracket(w: RadialWeight, n: float):
    """First sign change of n*v(z)*z - 1 on a geometric grid, as a bracket.

    Grid points where v is not finite or positive, or z is outside the
    weight's domain, cannot end a bracket.
    """
    z = np.geomspace(max(max(w.domain_min, 0.0) * (1.0 + 1e-9), 1e-8),
                     1e8, 321)
    g, valid = _masked_profile(w, n, z)
    with np.errstate(all="ignore"):
        change = valid[:-1] & valid[1:] & (g[:-1] * g[1:] <= 0.0)
    if not change.any():
        raise NoBracket(
            "no sign change of n*v(z)*z - 1 found on the scan grid")
    i = int(np.argmax(change))
    return float(z[i]), float(z[i + 1])


@dataclass
class ExtremalSpec:
    """One extremal: a weight, the first-integral constant n, and a pose.

    A negative n is normalized to n > 0 with the orientation flipped (the
    constant's sign is just a branch choice).  The turning radius is resolved
    at construction: exactly for power laws, otherwise by root finding inside
    turn_bracket (or an automatic geometric scan).
    """

    weight: RadialWeight
    n: float
    phi0: float = 0.0
    orientation: int = 1
    turn_bracket: tuple | None = None
    z_turn: float = field(init=False)

    def __post_init__(self):
        self.n = float(self.n)
        if not math.isfinite(self.n):
            raise DomainError(
                f"the first-integral constant n must be finite, got {self.n}")
        if self.n == 0.0:
            raise DomainError("the first-integral constant n must be nonzero")
        if self.n < 0.0:
            self.n = -self.n
            self.orientation = -self.orientation
        if self.orientation not in (1, -1):
            raise DomainError("orientation must be +1 or -1")
        if isinstance(self.weight, PowerLaw) and self.turn_bracket is None:
            lam = self.weight.lam
            if lam == -1.0:
                raise TangentialTurningPoint(
                    "v = 1/z makes n*v*z constant (no transversal turning "
                    "point); use closed_form.log_spiral_point")
            if lam < -1.0:
                raise DomainError(
                    "for exponents below -1 the turning radius is a maximum "
                    "radius; quadrature tracing covers increasing crossings "
                    "only (closed_form handles these curves)")
            self.z_turn = self.n ** (-1.0 / (lam + 1.0))
        else:
            bracket = self.turn_bracket or _auto_bracket(self.weight, self.n)
            self.z_turn = turning_radius(self.weight, self.n, bracket)
        slope = _profile_slope(self.weight, self.n, self.z_turn)
        if abs(slope) < 1e-8:
            raise TangentialTurningPoint(
                f"n*v(z)*z has near-zero slope {slope:.3e} at the turning "
                "radius")
        self._near = None    # lazy (z_split, w_split, w_table, z_table)

    # -- near-region machinery (w = sqrt(g) as integration variable) -----

    def _near_setup(self):
        if self._near is not None:
            return self._near
        zt = self.z_turn
        # handoff ladder z* + step*2^k, up to the first step past
        # 1e7*max(1, z*) (70 rungs cover the widest ratio, 1e7/1e-12);
        # the handoff is the first rung where g reaches _G_HANDOFF
        steps = max(1e-6 * zt, 1e-12) * 2.0 ** np.arange(70)
        z = zt + steps[:int(np.argmax(steps > 1e7 * max(1.0, zt))) + 1]
        g, valid = _masked_profile(self.weight, self.n, z)
        if not valid[0]:
            _profile(self.weight, self.n, z[0])   # the weight's own error
        reach = valid & (g >= _G_HANDOFF)
        # g stops rising, or the weight turns invalid (a domain edge)
        stop = np.concatenate(([False], ~valid[1:] | (g[1:] <= g[:-1])))
        ends = reach | stop
        ends[-1] = True   # the last rung: the profile plateaus
        k = int(np.argmax(ends))
        if stop[k] and not reach[k]:
            # past the peak of g: hand off where g still rises, so the w
            # table below stays monotone and dense
            k -= 1
            if k > 0 and _profile_slope(self.weight, self.n, z[k]) <= 0.0:
                k -= 1
        z_hi = float(z[k])
        frac = np.linspace(0.0, 1.0, _TABLE_SIZE + 1) ** 2
        z_tab = zt + (z_hi - zt) * frac
        w_tab = np.sqrt(np.maximum(
            _profile(self.weight, self.n, z_tab), 0.0))
        w_tab[0] = 0.0
        rising = np.diff(w_tab) > 0.0
        if not rising.all():
            cut = int(np.argmin(rising)) + 1   # keep the monotone prefix
            z_tab, w_tab = z_tab[:cut + 1], w_tab[:cut + 1]
            z_hi = float(z_tab[-1])
        self._near = (z_hi, float(w_tab[-1]), w_tab, z_tab)
        return self._near

    def _invert_profile(self, w_nodes: np.ndarray) -> np.ndarray:
        """z values with g(z) = w^2, by table lookup plus Newton."""
        z_hi, _, w_tab, z_tab = self._near_setup()
        zeta = np.interp(w_nodes, w_tab, z_tab)
        target = w_nodes * w_nodes
        lo, hi = self.z_turn, z_hi + (z_hi - self.z_turn)
        for _ in range(5):
            g = _profile(self.weight, self.n, zeta)
            gp = _profile_slope(self.weight, self.n, zeta)
            zeta = np.clip(zeta - (g - target) / gp, lo, hi)
        return zeta


def _near_integrand(spec: ExtremalSpec):
    def F(w):
        w = np.asarray(w, dtype=float)
        zeta = spec._invert_profile(w)
        gp = _profile_slope(spec.weight, spec.n, zeta)
        return 2.0 / (gp * zeta * np.sqrt(w * w + 2.0))
    return F


def _far_integrand(spec: ExtremalSpec):
    def f(z):
        z = np.asarray(z, dtype=float)
        g = _profile(spec.weight, spec.n, z)
        if np.any(g <= 0.0):
            raise ForbiddenRegion(
                "n*v(z)*z dips to 1 inside the integration range")
        return 1.0 / (z * np.sqrt(g * (g + 2.0)))
    return f


def _w_of(spec: ExtremalSpec, z) -> np.ndarray:
    """Integration limits w = sqrt(g(z)), anchored at 0 for z at the turn."""
    z = np.asarray(z, dtype=float)
    w = np.zeros(z.shape)
    out = z > spec.z_turn * (1.0 + 1e-12)
    if out.any():
        w[out] = np.sqrt(np.maximum(_profile(spec.weight, spec.n, z[out]),
                                    0.0))
    return w


def _increments(spec: ExtremalSpec, z_a: np.ndarray, z_b: np.ndarray,
                tol: float):
    """Angle swept over every [z_a[k], z_b[k]], z_turn <= z_a <= z_b, to
    absolute error tol each.

    Intervals inside the near region are integrated in w, those beyond it
    in z, with the first Kronrod panels of each region in one
    kronrod_panels call; a panel that misses tol is refined adaptively from
    itself.  An interval across the handoff radius z_split is split there,
    each piece to tol/2.  Returns (increments, summed error estimate,
    panels in the final partitions).
    """
    z_split, w_split, _, _ = spec._near_setup()
    near_f, far_f = _near_integrand(spec), _far_integrand(spec)
    inc = np.zeros(len(z_a))
    total_err, panels = 0.0, 0
    moving = z_a != z_b
    near = moving & (z_b <= z_split)
    far = moving & ~near & (z_a >= z_split)
    regions = ((near, near_f, _w_of(spec, z_a[near]), _w_of(spec, z_b[near])),
               (far, far_f, z_a[far], z_b[far]))
    for mask, f, lo, hi in regions:
        idx = np.flatnonzero(mask)
        batch = lo < hi   # equal or reversed limits: _integrate's own cases
        first = np.full((len(idx), 2), np.nan)   # (value, estimate)
        if batch.any():
            first[batch] = np.column_stack(
                quadrature.kronrod_panels(f, lo[batch], hi[batch]))
        done = first[:, 1] <= tol
        inc[idx[done]] = first[done, 0]
        total_err += float(first[done, 1].sum())
        panels += int(done.sum())
        for k in np.flatnonzero(~done):
            a, b = float(lo[k]), float(hi[k])
            val, err, count = (
                quadrature._refine(f, a, b, tol, *first[k].tolist())
                if batch[k] else quadrature._integrate(f, a, b, tol))
            inc[idx[k]] = val
            total_err += err
            panels += count
    for k in np.flatnonzero(moving & ~near & ~far):
        near_val, near_err, near_count = quadrature._integrate(
            near_f, float(_w_of(spec, z_a[k])), w_split, 0.5 * tol)
        far_val, far_err, far_count = quadrature._integrate(
            far_f, z_split, float(z_b[k]), 0.5 * tol)
        inc[k] = near_val + far_val
        total_err += near_err + far_err
        panels += near_count + far_count
    return inc, total_err, panels


def dphi_dz(z, spec: ExtremalSpec):
    """Right-hand side 1/(z*sqrt(n^2 v^2 z^2 - 1)); positive and finite.

    z may be a scalar or an array.  Raises ForbiddenRegion exactly when
    n*v(z)*z <= 1 at some z (at or inside the turning circle the radicand
    is not positive); the message names the first such z.
    """
    za = np.asarray(z, dtype=float)
    wz = spec.n * eval_v(spec.weight, za) * za
    rad = (wz - 1.0) * (wz + 1.0)
    inside = np.flatnonzero(rad <= 0.0)
    if inside.size:
        k = inside[0]
        raise ForbiddenRegion(
            f"n*v(z)*z = {float(np.ravel(wz)[k])} <= 1 at z = "
            f"{float(np.ravel(za)[k])}: inside the turning circle")
    out = 1.0 / (za * np.sqrt(rad))
    return float(out) if out.ndim == 0 else out


def integrate_phi(spec: ExtremalSpec, z_from: float, z_to: float,
                  tol: float) -> float:
    """Signed angle swept between two radii on one branch.

    Both radii must lie at or outside the turning radius; an endpoint at z*
    is exact (the w-substitution integrates from the root of n*v*z - 1
    itself, so no singular behavior is ever sampled).  The interval goes
    through the same batched increments as a traced grid.
    """
    if not 1e-14 <= tol <= 1e-3:
        raise DomainError(f"tol must lie in [1e-14, 1e-3], got {tol}")
    for z in (z_from, z_to):
        if z < spec.z_turn * (1.0 - 1e-12):
            raise ForbiddenRegion(
                f"z = {z} lies inside the turning radius z* = {spec.z_turn}")
    up = z_to >= z_from
    lo, hi = (z_from, z_to) if up else (z_to, z_from)
    inc = float(_increments(spec, np.array([lo], dtype=float),
                            np.array([hi], dtype=float), tol)[0][0])
    return inc if up else -inc


def first_integral_deviation(w: RadialWeight, n: float, z):
    """|n*P - 1| with P the conserved momentum recomputed at radius z.

    P comes from the polar momentum formula fed with the local slope
    dphi/dz of the curve (the perpendicular-tangent limit v*z at the turning
    radius), so it cross-checks two independent formula chains.  z may be a
    scalar or an array; each entry equals extremal_core.clairaut_constant's
    scalar arithmetic bit for bit (math.hypot is applied per entry, because
    np.hypot rounds differently).
    """
    za = np.asarray(z, dtype=float)
    v = eval_v(w, za)
    wz = n * v * za
    rad = (wz - 1.0) * (wz + 1.0)
    turn = rad <= 0.0   # at the turning circle the tangent is perpendicular
    with np.errstate(divide="ignore", invalid="ignore"):
        rp = 1.0 / (za * np.sqrt(rad)) * za
        hyp = np.array([math.hypot(1.0, x) for x in np.ravel(rp).tolist()])
        p_n = np.where(turn, v * za, v * za * rp / hyp.reshape(za.shape))
    dev = np.abs(n * p_n - 1.0)
    return float(dev) if dev.ndim == 0 else dev


@dataclass
class TraceResult:
    """Sampled extremal: arrays phi, z and the first-integral deviation,
    one entry per sample, walked with phi*orientation increasing.

    panels counts the Kronrod panels in the final partitions of every angle
    integral the trace ran, and error_estimate sums their error estimates;
    both are None for closed-form samples, which need no quadrature.
    """

    phi: np.ndarray
    z: np.ndarray
    clairaut_deviation: np.ndarray
    z_turn: float
    panels: int | None
    error_estimate: float | None

    @property
    def x(self) -> np.ndarray:
        return self.z * np.sin(self.phi)

    @property
    def y(self) -> np.ndarray:
        return self.z * np.cos(self.phi)


def _cosine_z_grid(spec: ExtremalSpec, z_max: float, count: int) -> np.ndarray:
    theta = np.linspace(0.0, 0.5 * math.pi, count)
    zs = spec.z_turn + (z_max - spec.z_turn) * 2.0 * np.sin(0.5 * theta) ** 2
    zs[[0, -1]] = spec.z_turn, z_max
    return zs


def _cumulative_phi(spec, z_grid, tol):
    """Swept angle at every grid radius, plus the quadrature totals."""
    panel_tol = max(tol / max(len(z_grid) - 1, 1), 1e-16)
    inc, err, panels = _increments(spec, z_grid[:-1], z_grid[1:], panel_tol)
    return np.cumsum(np.concatenate(([0.0], inc))), err, panels


def _uniform_phi_grid(spec, z_max, count, tol):
    """Radii whose swept angles are equally spaced, plus the quadrature
    totals of the dense pass and of both Newton passes."""
    dense_z = _cosine_z_grid(spec, z_max, max(8 * count, 512) + 1)
    dense_phi, err, panels = _cumulative_phi(spec, dense_z, tol)
    dense_s = np.sqrt(dense_z - spec.z_turn)
    targets = np.linspace(0.0, dense_phi[-1], count)
    # interpolate in s = sqrt(z - z*), where phi(s) is smooth through 0
    s_out = np.interp(targets, dense_phi, dense_s)
    zs = spec.z_turn + s_out * s_out
    # two Newton steps on every interior radius, from the nearest dense
    # sample below its target angle
    z = zs[1:-1]
    i0 = np.maximum(np.searchsorted(dense_phi, targets[1:-1]) - 1, 0)
    base_z, base_phi = dense_z[i0], dense_phi[i0]
    for _ in range(2):
        up = z >= base_z
        local, e, p = _increments(spec, np.where(up, base_z, z),
                                  np.where(up, z, base_z), 1e-15)
        local = np.where(up, local, -local)
        z = z - (base_phi + local - targets[1:-1]) / dphi_dz(z, spec)
        z = np.maximum(z, spec.z_turn * (1.0 + 1e-15))
        err, panels = err + e, panels + p
    zs[1:-1] = z
    zs[[0, -1]] = spec.z_turn, z_max
    return zs, targets, err, panels


def trace_extremal(spec: ExtremalSpec, z_max: float, num_samples: int,
                   tol: float = 1e-12, grid: str = "cosine") -> TraceResult:
    """Both branches of an extremal out to z_max, num_samples per branch.

    The walk runs z_max -> z* -> z_max through the shared turning sample
    (2*num_samples - 1 points), with phi advancing monotonically in the
    direction set by spec.orientation; the curve is mirror-symmetric about
    the ray phi = phi0.  grid "cosine" clusters radii near z*; grid
    "uniform-phi" spaces samples equally in swept angle.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    if num_samples < 3:
        raise DomainError("need at least 3 samples per branch")
    if not z_max > spec.z_turn:
        raise DomainError(
            f"z_max = {z_max} must exceed the turning radius {spec.z_turn}")
    if grid == "cosine":
        zs = _cosine_z_grid(spec, z_max, num_samples)
        dphi, err, panels = _cumulative_phi(spec, zs, tol)
    elif grid == "uniform-phi":
        zs, dphi, err, panels = _uniform_phi_grid(spec, z_max, num_samples,
                                                  tol)
    else:
        raise DomainError(f"unknown grid {grid!r}")

    # descending branch z_max -> z*, then ascending; both share the radii zs
    sgn = float(spec.orientation)
    dev = first_integral_deviation(spec.weight, spec.n, zs)
    return TraceResult(
        phi=np.concatenate((spec.phi0 - sgn * dphi[::-1],
                            spec.phi0 + sgn * dphi[1:])),
        z=np.concatenate((zs[::-1], zs[1:])),
        clairaut_deviation=np.concatenate((dev[::-1], dev[1:])),
        z_turn=spec.z_turn, panels=panels, error_estimate=err)
