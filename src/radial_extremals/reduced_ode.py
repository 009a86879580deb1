"""Tracing extremals from the reduced first-order equation.

Along an extremal the closest approach to the pole is the turning radius
z*, where n*v(z*)*z* = 1, and away from it the polar angle obeys

    dphi = dz / (z * sqrt(n^2 v(z)^2 z^2 - 1)).

With g(z) = n*v(z)*z - 1, the substitution z = z* + t^2 removes the
inverse-square-root singularity at z*,

    dphi = 2 dt / (z * sqrt(D * (D*t^2 + 2))),
    D = (g(z) - g(z*))/t^2 = n*([v](z, z*)*z + v(z*)),

where [v] is the weight's slope (divided difference), computed from the
step t^2 without cancellation.  The integrand is regular at t = 0.  The
float z* misses the root of g by a fraction of an ulp, so t is measured
from z* + eps, eps = -g(z*)/g'(z*) with g(z*) in long double, and D is
moved to that root by the same first-order term; an angle from the turn
then keeps its relative accuracy however close to z* its radius lies.
Past a handoff radius, a rung of a geometric ladder that ends at
1.524*z*, the angle is integrated in z (in log z over long pieces).  Each
batch of angles is one quadrature.integrate call.  An angle across the
handoff gives each piece half of its tol, or, past a slow handoff (the top
rung, g still below the handoff value), where the far piece can hold most
of the angle, a share that follows the piece's one-panel angle, so both
meet their round-off floors, 50*eps*|piece|, where the whole angle's fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .errors import (DomainError, ForbiddenRegion, NoBracket,
                     QuadratureFailure, TangentialTurningPoint, real,
                     real_array)
from .extremal_core import clairaut_constant
from .roots import find_root
from .weights import (PowerLaw, RadialWeight, eval_slope, eval_v, eval_vq,
                      masked_v, wide_v)

__all__ = ["ExtremalSpec", "TraceResult", "turning_radius", "dphi_dz",
           "integrate_phi", "trace_extremal", "first_integral_deviation"]

_G_HANDOFF = 0.5          # g value at which integration switches to z-space
_MOST_SAMPLES = 10 ** 8   # far past what fits in memory, about 1.6 kB each
_TURN_GTOL = 4.0 * np.finfo(float).eps   # |g| at z*: rounding level
# far pieces with z_b/z_a above this are integrated in log z: one z-panel
# over them can miss the mass next to z_a, its error estimate included
_LONG_FAR = 100.0
# n-free steps of the handoff ladder, in units of 1e-6*z*: the top rung is
# 1.524*z*, so near pieces stay inside 2*z*
_LADDER = 2.0 ** np.arange(20)
_SCAN = np.geomspace(1e-8, 1e8, 321)   # the bracket scan's grid


def _profile(w: RadialWeight, n: float, z):
    """g(z) = n*v(z)*z - 1; its positive-slope root is the turning radius."""
    return n * eval_v(w, z) * z - 1.0


def _profile_and_slope(w: RadialWeight, n: float, z):
    """(g(z), g'(z) = n*(q(z)*z + v(z)), v(z)) from one checked weight
    pass."""
    v, q = eval_vq(w, z)
    return n * v * z - 1.0, n * (q * z + v), v


def turning_radius(w: RadialWeight, n: float) -> float:
    """Root z* of n*v(z)*z = 1: for a power law the closed form
    n**(-1/(lam+1)), for any other weight the root inside the first sign
    change of a geometric scan.

    roots.find_root drives |n*v*z - 1| to 4 eps (well inside 1e-13) or the
    bracket to a few ulps.  The crossing must be transversal and increasing:
    |g'(z*)|*max(1, z*) < 1e-8 raises TangentialTurningPoint (z*g'(z*) is
    the scale-free slope, lam + 1 for every power law), and a decreasing
    crossing (g' < 0) is rejected because z < z* would then be the allowed
    side.
    """
    return _turning_point(w, n)[0]


def _turning_point(w: RadialWeight, n: float):
    """(z*, v(z*), g'(z*)) with turning_radius's z* and checks, from the
    one weight pass that checks the slope."""
    n = real("n", n, positive=True)   # ExtremalSpec passes |n|
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
    _, slope, v = _profile_and_slope(w, n, best)
    if abs(slope) * max(1.0, best) < 1e-8:
        raise TangentialTurningPoint(
            f"n*v(z)*z has near-zero slope {slope:.3e} at z = {best}")
    if slope < 0.0:
        raise DomainError(
            "n*v(z)*z crosses 1 from above; only increasing crossings "
            "bound a traceable outer region")
    return best, v, slope


def _auto_bracket(w: RadialWeight, n: float):
    """First sign change of n*v(z)*z - 1 on a geometric grid, as a bracket.

    The grid runs from 1e-8 to 1e8; points where v is not finite or
    positive cannot end a bracket.  Failing that, each gap between an
    invalid point and a valid one (a domain edge) where g rises toward the
    valid side's sign, g > 0 past a left edge or g < 0 before a right one,
    is bisected for a valid point of the other sign.
    """
    z = _SCAN
    v, valid = masked_v(w, z)
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
    turning_radius, and then the near-region handoff, so a weight error
    there also surfaces at construction, and the shift eps from the float
    z* to the root of g (0 where it would exceed 1e-12*z*: not a rounding
    correction).
    """

    weight: RadialWeight
    n: float
    phi0: float = 0.0
    orientation: int = field(init=False)
    z_turn: float = field(init=False)

    def __post_init__(self):
        self.phi0 = real("phi0", self.phi0)
        self.n = real("n", self.n)
        self.orientation = 1 if self.n > 0.0 else -1
        self.n = abs(self.n)
        self.z_turn, v0, slope = _turning_point(self.weight, self.n)
        zt, n = self.z_turn, self.n
        z_split, self._slow = self._handoff()
        # eps with z* + eps the root of g, the product in long double
        eps = -float(n * wide_v(self.weight, zt) * zt - 1) / slope
        self._turn = v0, slope, eps if abs(eps) <= 1e-12 * zt else 0.0
        self._near = z_split, _t_at(self, z_split)   # z and t

    def _handoff(self):
        """(z_split, slow): the radius where near pieces (in t) hand off to
        far ones (in z), on the ladder z* + 1e-6*z* * 2^k, k < 20: the
        first rung where g reaches _G_HANDOFF, else the rung before the
        first where g stops rising or the weight turns invalid (a domain
        edge), else the top rung, a slow handoff.  The near integrand is
        regular past a peak of g while g > 0, so z_split may lie past one."""
        zt, n = self.z_turn, self.n
        z = zt + 1e-6 * zt * _LADDER
        v, valid = masked_v(self.weight, z)
        if not valid[0]:   # the weight's own error
            _profile(self.weight, n, z[0])
        last = None   # (z, g) of the rung before
        for zk, vk, ok in zip(z.tolist(), v.tolist(), valid.tolist()):
            g = n * vk * zk - 1.0   # numpy's bits, in floats, without warnings
            if ok and g >= _G_HANDOFF:
                return zk, False
            if last and (not ok or g <= last[1]):
                return last[0], False
            last = zk, g
        return zk, True


def _near_integrand(spec: ExtremalSpec):
    """dphi/dt = 2/(z*sqrt(D*(D*t^2 + 2))) at z = z* + eps + t^2, with
    D = g(z)/t^2 the slope of g from its root z* + eps, from one checked
    slope pass: the slope from z*, D* = n*([v](z, z*)*z + v(z*)), moved as
    D = D* + eps*(D* - g'(z*))/t^2, exact given g(z*) = -eps*g'(z*).  Near
    nodes lie below the ladder's top rung, z < 1.524*z*, where the terms
    of D* cancel by at most (2*z/z* - 1)/g(z), within a factor 2.05 of the
    (1 + g)/g ulps that the quotient g(z)/t^2 itself would lose."""
    zt, n, (v0, slope, eps) = spec.z_turn, spec.n, spec._turn

    def F(t):
        tt = t * t
        dz = tt + eps
        z = zt + dz
        d = n * (eval_slope(spec.weight, z, zt, dz)[1] * z + v0)
        # where g dips below 0, D < 0 and the nan goes to the quadrature
        with np.errstate(divide="ignore", invalid="ignore"):
            if eps:
                d = np.where(tt > 0.0, d + eps * (d - slope) / tt, d)
            return 2.0 / (z * np.sqrt(d * (d * tt + 2.0)))
    return F


def _far_integrand(spec: ExtremalSpec):
    def f(z):
        with np.errstate(over="ignore"):   # past 1e308 the limit 0 is right
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


def _t_of(spec: ExtremalSpec, z) -> np.ndarray:
    """Integration limits t = sqrt(z - z* - eps): 0 for z at or inside the
    float z*, which is the turn, as for a radius within eps past it; a NaN
    radius gives a NaN limit, which reaches the weight."""
    z = np.asarray(z, dtype=float)
    tt = np.maximum((z - spec.z_turn) - spec._turn[2], 0.0)
    return np.sqrt(np.where(z <= spec.z_turn, 0.0, tt))


def _t_at(spec: ExtremalSpec, z: float) -> float:
    """_t_of at one finite radius, in Python floats, with its bits."""
    tt = max((z - spec.z_turn) - spec._turn[2], 0.0)
    return math.sqrt(tt) if z > spec.z_turn else 0.0


def _increments(spec: ExtremalSpec, z_from: np.ndarray, z_to: np.ndarray,
                tol: float):
    """Angle swept from z_from[k] to z_to[k], radii at or outside z_turn in
    either order (negated where z_to < z_from), to absolute error tol each.

    Over [z_a, z_b], lower radius first, near-region pieces are integrated
    in t and those beyond it in z (in log z where z_b/z_a > _LONG_FAR), in
    one quadrature call whose near pieces come first, then the far pieces
    in z, so the result and every failure are those of one call per kind in
    that order; an interval across the handoff radius z_split adds pieces
    [t(z_a), t_split] and [z_split, z_b], which share tol (past a slow
    handoff, by one-panel estimates of both, made before that call).
    Returns (increments, exactly rounded sum of the pieces' error estimates,
    panels in the final partitions).
    """
    flip = z_to < z_from
    z_a, z_b = np.where(flip, z_to, z_from), np.where(flip, z_from, z_to)
    z_split, t_split = spec._near
    # written so that a NaN radius enters a region and reaches the weight;
    # an equal pair is a zero-width piece, which integrates to +0.0
    near = ~(z_a >= z_split)
    far = ~(z_b <= z_split)
    cross = near & far
    # the near piece's share of tol (see the module notes)
    share = 0.5
    if spec._slow and np.count_nonzero(cross):
        t_lo = _t_of(spec, z_a[cross])
        share = quadrature.kronrod_panels(_near_integrand(spec), t_lo,
                                          np.full_like(t_lo, t_split))[0]
        share /= share + quadrature.kronrod_panels(
            _log_far_integrand(spec), np.full_like(t_lo, math.log(z_split)),
            np.log(z_b[cross]))[0]
    near_tol = np.full(len(z_a), tol)
    near_tol[cross] *= share
    far_tol = np.where(cross, tol - near_tol, tol)
    t_b = np.full(len(z_b), t_split)
    t_b[near & ~far] = _t_of(spec, z_b[near & ~far])
    far_lo = np.where(near, z_split, z_a)
    long = far & (z_b > _LONG_FAR * far_lo)
    short = far & ~long
    lo = np.concatenate((_t_of(spec, z_a[near]), far_lo[short],
                         np.log(far_lo[long])))
    n_near, n_short = int(np.count_nonzero(near)), int(np.count_nonzero(short))
    val, err, panels = quadrature.integrate(
        [(_near_integrand(spec), n_near), (_far_integrand(spec), n_short),
         (_log_far_integrand(spec), len(lo) - n_near - n_short)],
        lo, np.concatenate((t_b[near], z_b[short], np.log(z_b[long]))),
        np.concatenate((near_tol[near], far_tol[short], far_tol[long])))
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
    t-substitution integrates from the root of n*v*z - 1, which the float
    z* misses by eps (see the module notes).  So next to z* the angle keeps
    its relative accuracy: z - z* - eps takes one rounding, and the root,
    placed to long double's 1e-19 relative, adds up to about
    1e-19*z*/((z - z*)*min(1, z*g'(z*))), where z*g'(z*) = lam + 1 for a
    power law: a slowly rising profile places its root less sharply.

    The near region [0, t_split] is one piece at tol/2 however many radii
    lie beyond the handoff, taken at the slot of the first of them; a
    radius inside the handoff has its own piece [0, t(z)] at tol.  The
    pieces go through one split quadrature.integrate call, near pieces
    first, then the far pieces in z, then those in log z, as in
    _increments, and each angle is its near piece plus its far piece: the
    bits of _increments(spec, z*, z, tol)[0] from fewer pieces.  Past a
    slow handoff, where each angle's near piece takes its own share of tol,
    every angle is that _increments call.
    """
    tol = real("tol", tol, 1e-14, 1e-3)
    za = np.asarray(z, dtype=object)   # entries as given: real sees text
    if za.ndim > 1:
        raise DomainError("z must be a scalar or a 1-d array, got shape "
                          f"{za.shape}")
    radii = [real("z", x) for x in za.ravel().tolist()]
    z_min = spec.z_turn * (1.0 - 1e-12)
    for x in radii:
        if x < z_min:
            raise ForbiddenRegion(f"z = {x} lies inside the turning radius "
                                  f"z* = {spec.z_turn} at n = {spec.n}")
    if spec._slow:
        got = _increments(spec, np.full(len(radii), spec.z_turn),
                          np.maximum(radii, spec.z_turn), tol)[0]
        return got if za.ndim else float(got[0])
    z_split, t_split = spec._near
    inner = [z for z in radii if not z > z_split]
    t_hi = [_t_at(spec, z) for z in inner]
    z_long = _LONG_FAR * z_split
    short = [z for z in radii if z_split < z <= z_long]
    long = [z for z in radii if z > z_long]
    half = 0.5 * tol
    tols = [tol] * len(t_hi)
    if short or long:
        slot = next(i for i, z in enumerate(radii) if z > z_split)
        t_hi.insert(slot, t_split)
        tols.insert(slot, half)
    log_z = np.log([z_split, *long]).tolist() if long else []
    val = quadrature.integrate(
        [(_near_integrand(spec), len(t_hi)),
         (_far_integrand(spec), len(short)),
         (_log_far_integrand(spec), len(long))],
        [0.0] * len(t_hi) + [z_split] * len(short) + log_z[:1] * len(long),
        t_hi + short + log_z[1:], tols + [half] * (len(short) + len(long)),
        split=True)[0].tolist()
    near, far = val[:len(t_hi)], val[len(t_hi):]
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
    return _dphi_dz(real_array("z", z), spec)


def _dphi_dz(za: np.ndarray, spec: ExtremalSpec):
    """dphi_dz at a float array za, unchecked."""
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
    n, za = real("n", n), real_array("z", z)
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
    totals of the dense pass and of every Newton pass."""
    dense_z = _cosine_z_grid(spec, z_max, max(8 * count, 512) + 1)
    dense_phi, err, panels = _cumulative_phi(spec, dense_z, tol)
    dense_s = np.sqrt(dense_z - spec.z_turn)
    targets = np.linspace(0.0, dense_phi[-1], count)
    # interpolate in s = sqrt(z - z*), where phi(s) is smooth through 0
    s_out = np.interp(targets, dense_phi, dense_s)
    zs = spec.z_turn + s_out * s_out
    # Newton steps on every interior radius, from the nearest dense sample
    # below its target angle: two, then more while an angle correction
    # exceeds 1e-8 rad, up to eight
    z = zs[1:-1]
    i0 = np.maximum(np.searchsorted(dense_phi, targets[1:-1]) - 1, 0)
    base_z, base_phi = dense_z[i0], dense_phi[i0]
    for step in range(8):
        local, e, p = _increments(spec, base_z, z, 1e-15)
        miss = base_phi + local - targets[1:-1]
        z = z - miss / _dphi_dz(z, spec)
        z = np.maximum(z, spec.z_turn * (1.0 + 1e-15))
        err, panels = err + e, panels + p
        if step and np.abs(miss).max() <= 1e-8:
            break
    else:
        raise QuadratureFailure(
            "the uniform-phi radii did not settle: an angle correction of "
            f"{np.abs(miss).max():.3e} rad in the eighth Newton step")
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
    tol = real("tol", tol, positive=True)
    num_samples = real("num_samples", num_samples, 3, _MOST_SAMPLES,
                       integer=True)
    z_max = real("z_max", z_max)
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
