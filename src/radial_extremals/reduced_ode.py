"""Tracing extremals from the reduced first-order equation.

Along an extremal the closest approach to the pole is the turning radius
z*, where n*v(z*)*z* = 1, and away from it the polar angle obeys

    dphi = dz / (z * sqrt(n^2 v(z)^2 z^2 - 1)).

With g(z) = n*v(z)*z - 1, the substitution w = sqrt(g) removes the
inverse-square-root singularity at z*,

    dphi = 2 dw / (g'(z) * z * sqrt(w^2 + 2)),      z = z(w),

and anchors the lower limit w = 0 at the exact root of g, so an angle from
z* stays well conditioned although z* is only known to rounding.  Past a
fixed handoff value of g the angle is integrated in z (in log z over long
pieces).  Each batch of angles is one quadrature.integrate call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import (DomainError, ForbiddenRegion, NoBracket,
                     TangentialTurningPoint)
from .extremal_core import clairaut_constant
from .roots import find_root
from .weights import PowerLaw, RadialWeight, eval_v, eval_vq, masked_v

__all__ = ["ExtremalSpec", "TraceResult", "turning_radius", "dphi_dz",
           "integrate_phi", "trace_extremal", "first_integral_deviation"]

_G_HANDOFF = 0.5          # g value at which integration switches to z-space
_TABLE_SIZE = 64          # samples in the cached w -> z inversion table
_MOST_SAMPLES = 10 ** 8   # far past what fits in memory, about 1.6 kB each
_TURN_GTOL = 4.0 * np.finfo(float).eps   # |g| at z*: rounding level
# far pieces with z_b/z_a above this are integrated in log z: one z-panel
# over them can miss the mass next to z_a, its error estimate included
_LONG_FAR = 100.0
# least scale-free slope z*g' at the w table's last row: next to a peak of
# g, g' -> 0 makes the near integrand 2/(g'*z*sqrt(w^2+2)) nearly singular
# just past the table, and its error estimate misses that
_SLOPE_FLOOR = 0.1
# n-free factors of _near_setup: the handoff ladder's steps (70 rungs reach
# 1e7*max(1, z*) from 1e-6*z* for every z* >= 1e-6) and the w table's radii,
# z* to z_hi
_LADDER = 2.0 ** np.arange(70)
_TABLE_FRAC = np.linspace(0.0, 1.0, _TABLE_SIZE + 1) ** 2


def _profile(w: RadialWeight, n: float, z):
    """g(z) = n*v(z)*z - 1; its positive-slope root is the turning radius."""
    return n * eval_v(w, z) * z - 1.0


def _profile_and_slope(w: RadialWeight, n: float, z):
    """(g(z), g'(z) = n*(q(z)*z + v(z))) from one checked weight pass."""
    v, q = eval_vq(w, z)
    return n * v * z - 1.0, n * (q * z + v)


def turning_radius(w: RadialWeight, n: float) -> float:
    """Root z* of n*v(z)*z = 1: for a power law the closed form
    n**(-1/(lam+1)), for any other weight the root inside the first sign
    change of a geometric scan.  n must be finite and positive.

    roots.find_root drives |n*v*z - 1| to 4 eps (well inside 1e-13) or the
    bracket to a few ulps.  The crossing must be transversal and increasing:
    |g'(z*)|*max(1, z*) < 1e-8 raises TangentialTurningPoint (z*g'(z*) is
    the scale-free slope, lam + 1 for every power law), and a decreasing
    crossing (g' < 0) is rejected because z < z* would then be the allowed
    side.
    """
    if not 0.0 < n < math.inf:   # ExtremalSpec passes |n|
        raise DomainError(f"the turning radius needs a finite n > 0, got {n}")
    if isinstance(w, PowerLaw):
        if w.lam == -1.0:
            raise TangentialTurningPoint(
                "v = 1/z makes n*v*z constant (no transversal turning "
                "point); use closed_form.log_spiral_point")
        if w.lam < -1.0:
            raise DomainError(
                "for exponents below -1 the turning radius is a maximum "
                "radius; quadrature tracing covers increasing crossings "
                "only (closed_form handles these curves)")
        try:
            best = n ** (-1.0 / (w.lam + 1.0))
        except OverflowError:
            raise DomainError(f"the turning radius n**(-1/(lam+1)) overflows "
                              f"a float at n {n}") from None
    else:
        z_lo, z_hi = _auto_bracket(w, n)
        best, _ = find_root(lambda z: _profile(w, n, z), z_lo, z_hi,
                            _profile(w, n, z_lo), _profile(w, n, z_hi),
                            _TURN_GTOL)
    slope = _profile_and_slope(w, n, best)[1]
    if abs(slope) * max(1.0, best) < 1e-8:
        raise TangentialTurningPoint(
            f"n*v(z)*z has near-zero slope {slope:.3e} at z = {best}")
    if slope < 0.0:
        raise DomainError(
            "n*v(z)*z crosses 1 from above; only increasing crossings "
            "bound a traceable outer region")
    return best


def _auto_bracket(w: RadialWeight, n: float):
    """First sign change of n*v(z)*z - 1 on a geometric grid, as a bracket.

    The grid runs from 1e-8 to 1e8; points where v is not finite or
    positive cannot end a bracket.  The grid, v and the mask do not depend
    on n, so they are kept on the weight after its first scan.  Failing
    that, each gap between an invalid point and a valid one (a domain
    edge) where g rises toward the valid side's sign, g > 0 past a left
    edge or g < 0 before a right one, is bisected for a valid point of
    the other sign.
    """
    if w._bracket_scan is None:
        z = np.geomspace(1e-8, 1e8, 321)
        w._bracket_scan = (z, *masked_v(w, z))
    z, v, valid = w._bracket_scan
    with np.errstate(all="ignore"):
        g = n * v * z - 1.0
        change = valid[:-1] & valid[1:] & (g[:-1] * g[1:] <= 0.0)
    if change.any():
        i = int(np.argmax(change))
        return float(z[i]), float(z[i + 1])
    left = ~valid[:-1] & valid[1:] & (g[1:] > 0.0)
    for i in np.flatnonzero(left | valid[:-1] & ~valid[1:] & (g[:-1] < 0.0)):
        lo, hi, is_left = float(z[i]), float(z[i + 1]), bool(left[i])
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            v_mid, ok = masked_v(w, [mid])
            if ok[0] and (n * float(v_mid[0]) * mid - 1.0 > 0.0) != is_left:
                return (mid, hi) if is_left else (lo, mid)
            lo, hi = (mid, hi) if (not ok[0]) == is_left else (lo, mid)
    raise NoBracket("no sign change of n*v(z)*z - 1 found on the scan grid")


@dataclass
class ExtremalSpec:
    """One extremal: a weight, the first-integral constant n, and a pose.

    The sign of n is a branch choice: a negative n is normalized to n > 0
    with orientation -1, the direction in which phi advances (+1 for a
    positive n).  The turning radius is resolved at construction by
    turning_radius, which raises DomainError unless |n| is finite and
    nonzero, and then the near-region handoff, so a weight error there
    also surfaces at construction.
    """

    weight: RadialWeight
    n: float
    phi0: float = 0.0
    orientation: int = field(init=False)
    z_turn: float = field(init=False)

    def __post_init__(self):
        self.n = float(self.n)
        self.orientation = 1 if self.n > 0.0 else -1
        self.n = abs(self.n)
        self.z_turn = turning_radius(self.weight, self.n)
        self._near = self._near_setup()   # (z_split, w_split, w_tab, z_tab)

    # -- near-region machinery (w = sqrt(g) as integration variable) -----

    def _near_setup(self):
        zt = self.z_turn
        # handoff ladder z* + 1e-6*z* * 2^k, up to the first step past
        # 1e7*max(1, z*) or its last rung; the handoff is the first rung
        # where g reaches _G_HANDOFF
        steps = 1e-6 * zt * _LADDER
        cut = steps > 1e7 * max(1.0, zt)
        cut[-1] = True
        z = zt + steps[:int(np.argmax(cut)) + 1]
        v, valid = masked_v(self.weight, z)
        with np.errstate(all="ignore"):
            g = self.n * v * z - 1.0
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
            if k > 0 and _profile_and_slope(self.weight, self.n,
                                            z[k])[1] <= 0.0:
                k -= 1
        z_hi = float(z[k])
        z_tab = zt + (z_hi - zt) * _TABLE_FRAC
        g_tab, gp_tab = _profile_and_slope(self.weight, self.n, z_tab)
        if gp_tab[-1] <= 0.0:
            # the handoff lies past a peak of g that the rungs and rows
            # missed: hand off halfway to the peak, where g still rises
            # (the far region integrates past the peak)
            z_peak, _ = find_root(
                lambda x: _profile_and_slope(self.weight, self.n, x)[1],
                zt, z_hi, gp_tab[0], gp_tab[-1], 0.0)
            z_hi = zt + 0.5 * (z_peak - zt)
            z_tab = zt + (z_hi - zt) * _TABLE_FRAC
            g_tab, gp_tab = _profile_and_slope(self.weight, self.n, z_tab)
        w_tab = np.sqrt(np.maximum(g_tab, 0.0))
        w_tab[0] = 0.0
        # end at the last rising row, then at the last row past z* whose
        # scale-free slope clears _SLOPE_FLOOR, if one does
        end = int(np.argmin(np.append(np.diff(w_tab) > 0.0, False)))
        steep = np.flatnonzero(z_tab[1:end + 1] * gp_tab[1:end + 1]
                               >= _SLOPE_FLOOR)
        if steep.size:
            end = int(steep[-1]) + 1
        if end < z_tab.size - 1:
            z_tab, w_tab = z_tab[:end + 1], w_tab[:end + 1]
            z_hi = float(z_tab[-1])
        return z_hi, float(w_tab[-1]), w_tab, z_tab

    def _invert_profile(self, w_nodes: np.ndarray):
        """(z, g'(z)) with g(z) = w^2: the fifth Newton iterate x_5 from a
        table lookup x_0, one weight pass per step.  A node's iterates
        depend on that node alone, so once step k leaves every node fixed
        (x_k == x_{k-1}) or in a 2-cycle (x_k == x_{k-2}), x_5 and g' there
        are already known: x_{k-1}, or x_{k-2} for a cycling node when 5 - k
        is even, with the g' of the pass that evaluated it."""
        z_hi, _, w_tab, z_tab = self._near
        zeta = np.interp(w_nodes, w_tab, z_tab)
        target = w_nodes * w_nodes
        lo, hi = self.z_turn, z_hi + (z_hi - self.z_turn)
        back = None    # (x_{k-2}, g' there)
        for k in range(1, 6):
            g, gp = _profile_and_slope(self.weight, self.n, zeta)
            new = np.minimum(np.maximum(zeta - (g - target) / gp, lo), hi)
            fixed = new == zeta
            settled = fixed if back is None else fixed | (new == back[0])
            if np.count_nonzero(settled) == settled.size:
                if back is None or k % 2 == 0:
                    return zeta, gp
                return (np.where(fixed, zeta, back[0]),
                        np.where(fixed, gp, back[1]))
            back, zeta = (zeta, gp), new
        return zeta, _profile_and_slope(self.weight, self.n, zeta)[1]


def _near_integrand(spec: ExtremalSpec):
    def F(w):
        w = np.asarray(w, dtype=float)
        zeta, gp = spec._invert_profile(w)
        return 2.0 / (gp * zeta * np.sqrt(w * w + 2.0))
    return F


def _far_integrand(spec: ExtremalSpec):
    def f(z):
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore"):
            g = _profile(spec.weight, spec.n, z)
            rad = g * (g + 2.0)
        if np.count_nonzero(g <= 0.0):
            raise ForbiddenRegion(
                "n*v(z)*z dips to 1 inside the integration range")
        _check_overflow(z, rad)
        return 1.0 / (z * np.sqrt(rad))
    return f


def _check_overflow(z, rad):
    """DomainError where a radicand of order (n*v*z)^2 overflowed."""
    over = np.ravel(rad) == np.inf
    if np.count_nonzero(over):
        raise DomainError(f"(n*v(z)*z)^2 overflows at z = "
                          f"{float(np.ravel(z)[over][0])}: the radius is "
                          "beyond the float range of the first integral")


def _radicand(w: RadialWeight, n: float, z: np.ndarray):
    """(u, (u - 1)*(u + 1)) with u = n*v(z)*z; an overflow raises."""
    with np.errstate(over="ignore"):
        u = n * eval_v(w, z) * z
        rad = (u - 1.0) * (u + 1.0)
    _check_overflow(z, rad)
    return u, rad


def _log_far_integrand(spec: ExtremalSpec):
    """The far integrand in s = log(z): dphi/ds = z*dphi/dz."""
    f = _far_integrand(spec)

    def h(s):
        z = np.exp(s)
        return f(z) * z
    return h


def _w_of(spec: ExtremalSpec, z) -> np.ndarray:
    """Integration limits w = sqrt(g(z)), anchored at 0 for z at or inside
    the turn; g rounding below 0 just outside it is clipped to 0."""
    z = np.asarray(z, dtype=float)
    w = np.zeros(z.shape)
    out = ~(z <= spec.z_turn)   # a NaN reaches the weight
    if np.count_nonzero(out):
        w[out] = np.sqrt(np.maximum(_profile(spec.weight, spec.n, z[out]),
                                    0.0))
    return w


def _increments(spec: ExtremalSpec, z_from: np.ndarray, z_to: np.ndarray,
                tol: float):
    """Angle swept from z_from[k] to z_to[k], radii at or outside z_turn in
    either order (negated where z_to < z_from), to absolute error tol each.

    Over [z_a, z_b], lower radius first, near-region pieces are integrated
    in w and those beyond it in z (in log z where z_b/z_a > _LONG_FAR), in
    one quadrature call whose near pieces come first, then the far pieces
    in z, so the result and every failure are those of one call per kind in
    that order; an interval across the handoff radius z_split adds pieces
    [w(z_a), w_split] and [z_split, z_b], each to tol/2.
    Returns (increments, exactly rounded sum of the pieces' error estimates,
    panels in the final partitions).
    """
    flip = z_to < z_from
    z_a, z_b = np.where(flip, z_to, z_from), np.where(flip, z_from, z_to)
    z_split, w_split, _, _ = spec._near
    # written so that a NaN radius enters a region and reaches the weight;
    # an equal pair is a zero-width piece, which integrates to +0.0
    near = ~(z_a >= z_split)
    far = ~(z_b <= z_split)
    piece_tol = np.where(near & far, 0.5 * tol, tol)
    w_b = np.full(len(z_b), w_split)
    w_b[near & ~far] = _w_of(spec, z_b[near & ~far])
    far_lo = np.where(near, z_split, z_a)
    long = far & (z_b > _LONG_FAR * far_lo)
    short = far & ~long
    lo = np.concatenate((_w_of(spec, z_a[near]), far_lo[short],
                         np.log(far_lo[long])))
    n_near, n_short = int(np.count_nonzero(near)), int(np.count_nonzero(short))
    val, err, panels = quadrature.integrate(
        [(_near_integrand(spec), n_near), (_far_integrand(spec), n_short),
         (_log_far_integrand(spec), len(lo) - n_near - n_short)],
        lo, np.concatenate((w_b[near], z_b[short], np.log(z_b[long]))),
        np.concatenate((piece_tol[near], piece_tol[short], piece_tol[long])))
    inc = np.zeros(len(z_a))
    inc[near] = val[:n_near]
    inc[short] += val[n_near:n_near + n_short]
    inc[long] += val[n_near + n_short:]
    return (np.where(flip, -inc, inc), math.fsum(err.tolist()),
            int(panels.sum()))


def integrate_phi(spec: ExtremalSpec, z, tol: float):
    """Angle swept from z* to radius z on one branch: a float for a scalar
    z, else one angle per entry of a 1-d z, each with the bits of its own
    scalar call.  Radii must lie at or outside z* (one within 1e-12
    relative inside it gives +0.0); the angle to z* is exact, as the
    w-substitution integrates from the root of n*v*z - 1 itself.  Next to
    z* the angle is as ill-conditioned as sqrt(g): g = n*v*z - 1 rounds by
    a few eps, which moves the angle by about that over z*g'(z*)*sqrt(g),
    some 1e-9 rad within 1e-12 relative of z* where z*g'(z*) is near 1.

    The near region [0, w_split] is one piece at tol/2 however many radii
    lie beyond the handoff, taken at the slot of the first of them; a
    radius inside the handoff has its own piece [0, w(z)] at tol.  The
    pieces go through one split quadrature.integrate call, near pieces
    first, then the far pieces in z, then those in log z, as in
    _increments, and each angle is its near piece plus its far piece: the
    bits of _increments(spec, z*, z, tol)[0] from fewer pieces.
    """
    if not 1e-14 <= tol <= 1e-3:
        raise DomainError(f"tol must lie in [1e-14, 1e-3], got {tol}")
    za = np.asarray(z, dtype=float)
    if za.ndim > 1:
        raise DomainError("z must be a scalar or a 1-d array, got shape "
                          f"{za.shape}")
    radii = np.atleast_1d(za).tolist()
    for x in radii:
        if not math.isfinite(x):
            raise DomainError(f"z must be finite, got {x}")
    z_min = spec.z_turn * (1.0 - 1e-12)
    for x in radii:
        if x < z_min:
            raise ForbiddenRegion(f"z = {x} lies inside the turning radius "
                                  f"z* = {spec.z_turn} at n = {spec.n}")
    z_split, w_split, _, _ = spec._near
    inner = [z for z in radii if not z > z_split]
    w_hi = _w_of(spec, inner).tolist()
    z_long = _LONG_FAR * z_split
    short = [z for z in radii if z_split < z <= z_long]
    long = [z for z in radii if z > z_long]
    # with no near region (z_split at z*) a far piece takes all of tol
    half = 0.5 * tol if spec.z_turn < z_split else tol
    tols = [tol] * len(w_hi)
    if short or long:
        slot = next(i for i, z in enumerate(radii) if z > z_split)
        w_hi.insert(slot, w_split)
        tols.insert(slot, half)
    log_z = np.log([z_split, *long]).tolist()
    val = quadrature.integrate(
        [(_near_integrand(spec), len(w_hi)),
         (_far_integrand(spec), len(short)),
         (_log_far_integrand(spec), len(long))],
        [0.0] * len(w_hi) + [z_split] * len(short) + log_z[:1] * len(long),
        w_hi + short + log_z[1:], tols + [half] * (len(short) + len(long)),
        split=True)[0].tolist()
    near, far = val[:len(w_hi)], val[len(w_hi):]
    shared = near.pop(slot) if short or long else None
    angle = dict(zip(inner, near))
    angle.update((z, shared + x) for z, x in zip(short + long, far))
    return np.array([angle[z] for z in radii]) if za.ndim else angle[radii[0]]


def dphi_dz(z, spec: ExtremalSpec):
    """Right-hand side 1/(z*sqrt(n^2 v^2 z^2 - 1)); positive and finite.

    z may be a scalar or an array.  Raises ForbiddenRegion exactly when
    n*v(z)*z <= 1 at some z (at or inside the turning circle the radicand
    is not positive); the message names the first such z.
    """
    za = np.asarray(z, dtype=float)
    wz, rad = _radicand(spec.weight, spec.n, za)
    inside = np.flatnonzero(rad <= 0.0)
    if inside.size:
        k = inside[0]
        raise ForbiddenRegion(
            f"n*v(z)*z = {float(np.ravel(wz)[k])} <= 1 at z = "
            f"{float(np.ravel(za)[k])}: inside the turning circle")
    out = 1.0 / (za * np.sqrt(rad))
    return float(out) if out.ndim == 0 else out


def first_integral_deviation(w: RadialWeight, n: float, z):
    """|n*P - 1| with P the conserved momentum recomputed at radius z.

    P is extremal_core.clairaut_constant fed with the local slope dphi/dz
    of the curve (the perpendicular-tangent marker inf at the turning
    radius), so it cross-checks two independent formula chains.  z may be a
    scalar or an array; a deviation that is not finite raises DomainError.
    """
    za = np.asarray(z, dtype=float)
    rad = _radicand(w, n, za)[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.where(rad <= 0.0, np.inf, 1.0 / (za * np.sqrt(rad)))
        dev = np.abs(n * clairaut_constant(za, p, w) - 1.0)
    bad = np.flatnonzero(~np.isfinite(np.ravel(dev)))
    if bad.size:
        raise DomainError(f"the first-integral deviation is not finite at z = "
                          f"{float(np.ravel(za)[bad[0]])}: v(z)*z overflows")
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
        local, e, p = _increments(spec, base_z, z, 1e-15)
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
    if num_samples > _MOST_SAMPLES:
        raise DomainError(f"need at most {_MOST_SAMPLES} samples per branch")
    if not math.isfinite(z_max):
        raise DomainError(f"z_max must be finite, got {z_max}")
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
