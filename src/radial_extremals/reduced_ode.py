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
from .extremal_core import PolarPoint, clairaut_constant
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


def _auto_bracket(w: RadialWeight, n: float):
    """First sign change of n*v(z)*z - 1 on a geometric grid, as a bracket.

    Grid points where v is not finite or positive, or z is outside the
    weight's domain, cannot end a bracket.
    """
    z = np.geomspace(max(max(w.domain_min, 0.0) * (1.0 + 1e-9), 1e-8),
                     1e8, 321)
    with np.errstate(all="ignore"):
        v = w._raw_v(z)
        g = n * v * z - 1.0
        valid = np.isfinite(v) & (v > 0.0) & (z > w.domain_min)
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
        z_hi = z_prev = z_before = zt
        g_prev = 0.0
        step = max(1e-6 * zt, 1e-12)
        for _ in range(200):
            z_hi = zt + step
            g = _profile(self.weight, self.n, z_hi)
            if g >= _G_HANDOFF:
                break
            if g <= g_prev and z_prev > zt:
                # past the peak of g: hand off where g still rises, so the
                # w table below stays monotone and dense
                if _profile_slope(self.weight, self.n, z_prev) <= 0.0 \
                        and z_before > zt:
                    z_prev = z_before
                z_hi = z_prev
                break
            if step > 1e7 * max(1.0, zt):
                break   # profile plateaus; hand off wherever we got to
            z_before, z_prev, g_prev = z_prev, z_hi, g
            step *= 2.0
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


def _w_of(spec: ExtremalSpec, z: float) -> float:
    """Integration limit w = sqrt(g(z)), anchored at 0 for z at the turn."""
    if z <= spec.z_turn * (1.0 + 1e-12):
        return 0.0
    return math.sqrt(max(_profile(spec.weight, spec.n, z), 0.0))


def _require_outside(spec: ExtremalSpec, z: float) -> None:
    if z < spec.z_turn * (1.0 - 1e-12):
        raise ForbiddenRegion(
            f"z = {z} lies inside the turning radius z* = {spec.z_turn}")


def _increment(spec: ExtremalSpec, z_a: float, z_b: float,
               tol: float) -> float:
    """Angle swept from z_a to z_b, z_turn <= z_a <= z_b."""
    if z_a == z_b:
        return 0.0
    z_split, w_split, _, _ = spec._near_setup()
    if z_b <= z_split:
        return quadrature.integrate(_near_integrand(spec),
                                    _w_of(spec, z_a), _w_of(spec, z_b), tol)
    if z_a >= z_split:
        return quadrature.integrate(_far_integrand(spec), z_a, z_b, tol)
    near = quadrature.integrate(_near_integrand(spec),
                                _w_of(spec, z_a), w_split, 0.5 * tol)
    far = quadrature.integrate(_far_integrand(spec), z_split, z_b, 0.5 * tol)
    return near + far


def dphi_dz(z: float, spec: ExtremalSpec) -> float:
    """Right-hand side 1/(z*sqrt(n^2 v^2 z^2 - 1)); positive and finite.

    Raises ForbiddenRegion exactly when n*v(z)*z <= 1 (at or inside the
    turning circle the radicand is not positive).
    """
    wz = spec.n * eval_v(spec.weight, z) * z
    rad = (wz - 1.0) * (wz + 1.0)
    if rad <= 0.0:
        raise ForbiddenRegion(
            f"n*v(z)*z = {wz} <= 1 at z = {z}: inside the turning circle")
    return 1.0 / (z * math.sqrt(rad))


def integrate_phi(spec: ExtremalSpec, z_from: float, z_to: float,
                  tol: float) -> float:
    """Signed angle swept between two radii on one branch.

    Both radii must lie at or outside the turning radius; an endpoint at z*
    is exact (the w-substitution integrates from the root of n*v*z - 1
    itself, so no singular behavior is ever sampled).
    """
    if not 1e-14 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-14, 1e-3]")
    _require_outside(spec, z_from)
    _require_outside(spec, z_to)
    if z_to >= z_from:
        return _increment(spec, z_from, z_to, tol)
    return -_increment(spec, z_to, z_from, tol)


def first_integral_deviation(w: RadialWeight, n: float, z: float) -> float:
    """|n*P - 1| with P the conserved momentum recomputed at radius z.

    P comes from the polar momentum formula fed with the local slope
    dphi/dz of the curve (the perpendicular-tangent limit v*z at the turning
    radius), so it cross-checks two independent formula chains.
    """
    wz = n * eval_v(w, z) * z
    rad = (wz - 1.0) * (wz + 1.0)
    if rad <= 0.0:
        p = math.inf   # at the turning circle the tangent is perpendicular
    else:
        p = 1.0 / (z * math.sqrt(rad))
    return abs(n * clairaut_constant(z, p, w) - 1.0)


@dataclass
class TraceResult:
    """Sampled extremal plus per-sample first-integral diagnostics."""

    samples: list          # PolarPoint, walked with phi*orientation increasing
    clairaut_deviation: list
    z_turn: float

    @property
    def phis(self) -> np.ndarray:
        return np.array([p.phi for p in self.samples])

    @property
    def zs(self) -> np.ndarray:
        return np.array([p.z for p in self.samples])


def _cosine_z_grid(spec: ExtremalSpec, z_max: float, count: int) -> np.ndarray:
    theta = np.linspace(0.0, 0.5 * math.pi, count)
    zs = spec.z_turn + (z_max - spec.z_turn) * 2.0 * np.sin(0.5 * theta) ** 2
    zs[0] = spec.z_turn
    zs[-1] = z_max
    return zs


def _cumulative_phi(spec, z_grid, tol):
    panel_tol = max(tol / max(len(z_grid) - 1, 1), 1e-16)
    phi = np.empty_like(z_grid)
    phi[0] = 0.0
    for k in range(len(z_grid) - 1):
        phi[k + 1] = phi[k] + _increment(spec, float(z_grid[k]),
                                         float(z_grid[k + 1]), panel_tol)
    return phi


def _uniform_phi_grid(spec, z_max, count, tol):
    """Radii whose swept angles are equally spaced."""
    dense_z = _cosine_z_grid(spec, z_max, max(8 * count, 512) + 1)
    dense_phi = _cumulative_phi(spec, dense_z, tol)
    dense_s = np.sqrt(dense_z - spec.z_turn)
    targets = np.linspace(0.0, dense_phi[-1], count)
    # interpolate in s = sqrt(z - z*), where phi(s) is smooth through 0
    s_out = np.interp(targets, dense_phi, dense_s)
    zs = spec.z_turn + s_out * s_out
    for j in range(1, count - 1):
        z = float(zs[j])
        i0 = max(int(np.searchsorted(dense_phi, targets[j])) - 1, 0)
        base_z, base_phi = float(dense_z[i0]), float(dense_phi[i0])
        for _ in range(2):
            local = (_increment(spec, base_z, z, 1e-15) if z >= base_z
                     else -_increment(spec, z, base_z, 1e-15))
            z -= (base_phi + local - targets[j]) / dphi_dz(z, spec)
            z = max(z, spec.z_turn * (1.0 + 1e-15))
        zs[j] = z
    zs[0] = spec.z_turn
    zs[-1] = z_max
    return zs, targets


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
        dphi = _cumulative_phi(spec, zs, tol)
    elif grid == "uniform-phi":
        zs, dphi = _uniform_phi_grid(spec, z_max, num_samples, tol)
    else:
        raise DomainError(f"unknown grid {grid!r}")

    samples = []
    sgn = float(spec.orientation)
    for k in range(num_samples - 1, -1, -1):       # descending branch
        samples.append(PolarPoint(float(spec.phi0 - sgn * dphi[k]),
                                  float(zs[k])))
    for k in range(1, num_samples):                # ascending branch
        samples.append(PolarPoint(float(spec.phi0 + sgn * dphi[k]),
                                  float(zs[k])))

    deviation = [first_integral_deviation(spec.weight, spec.n, p.z)
                 for p in samples]
    return TraceResult(samples=samples, clairaut_deviation=deviation,
                       z_turn=spec.z_turn)
