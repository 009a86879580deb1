"""Two-point boundary-value solving: pick the constant n through two points.

The swept angle between two radii on an extremal depends only on n, so the
shared bracketed root finder (roots.find_root) applied to the angular-span
residual recovers the constant; the pose phi0 then follows from the
endpoint angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (DomainError, ForbiddenRegion, NoBracket,
                     QuadratureFailure, real)
from .extremal_core import PolarPoint
from .reduced_ode import ExtremalSpec, integrate_phi
from .roots import find_root
from .weights import RadialWeight, masked_v

__all__ = ["BvpProblem", "BvpSolution", "solve_n"]


@dataclass
class BvpProblem:
    """Endpoints in tan(phi) = x/y polar form, a weight, and the branch layout.

    same_branch=False means the turning point lies between the endpoints;
    True means both endpoints sit on one monotone-radius branch.
    """

    a: PolarPoint
    b: PolarPoint
    weight: RadialWeight
    same_branch: bool = False

    def __post_init__(self):
        self.a, self.b = (
            PolarPoint(real(f"endpoint {k} angle", p.phi),
                       real(f"endpoint {k} radius", p.z, positive=True))
            for k, p in (("a", self.a), ("b", self.b)))
        if (self.a.phi, self.a.z) == (self.b.phi, self.b.z):
            raise NoBracket("endpoints must differ")


@dataclass
class BvpSolution:
    """The constant n, the pose phi0 and the extremal's turning radius and
    span; evaluations counts the span evaluations (both bracket ends
    included), and residual is the span minus |phi_b - phi_a| at n."""

    n: float
    phi0: float
    z_turn: float
    span: float
    evaluations: int
    residual: float


def _branch_angles(prob: BvpProblem, n: float, tol: float):
    """The extremal at constant n and the angles from its turning radius to
    both endpoint radii, from one integrate_phi call, which raises
    ForbiddenRegion naming z and n for an endpoint inside the turn."""
    spec = ExtremalSpec(prob.weight, n)
    return spec, *integrate_phi(spec, [prob.a.z, prob.b.z], tol).tolist()


def _span(prob: BvpProblem, da: float, db: float) -> float:
    return abs(da - db) if prob.same_branch else da + db


def solve_n(prob: BvpProblem, n_bracket, tol: float) -> BvpSolution:
    """Find n whose angular span matches |phi_b - phi_a| within tol.

    The bracket must produce spans straddling that target; no monotonicity
    beyond that sign change is assumed.  Both bracket ends are evaluated in
    n; find_root then searches in u = sqrt(n - n_edge), each u at
    n = n_edge + u^2.  At 1/(v(z)*z), z the nearer endpoint radius, the
    turning radius reaches z, and the span has a square-root edge there, as
    dphi/dz has at z*: in u it is smooth, so the interpolation steps take
    hold from the first one (the substitution t = sqrt(z - z*) makes the
    same trade for the angles).  The one edge rule: n_edge =
    min(1/(v(z)*z), n_lo) where v(z)*z is a positive number, else 0, as any
    n_edge <= n_lo is a valid search variable.  A bracket end that puts
    the turning radius outside an endpoint radius raises NoBracket naming
    that end's n; a bracket that collapses to a few ulps with the residual
    still above tol raises QuadratureFailure, and a bracket without
    0 < n_lo < n_hi NoBracket.
    The spans are integrated to qtol = min(1e-13, max(tol/10, 1e-14)), so a
    tol below 1e-14, 0 included, searches until the bracket collapses and
    takes a residual within 1e-14 there as the root; a larger one, such as
    a jump, still raises.  A tol below about 5e-13, 0 included, can raise
    QuadratureFailure at the round-off floor.
    Returns the constant and the pose phi0 implied by the endpoint angles,
    with the span evaluations made and the final span residual.
    """
    tol = real("tol", tol, 0.0)
    try:
        n_lo, n_hi = [real("n bracket end", n) for n in n_bracket]
    except (DomainError, TypeError, ValueError) as exc:   # not two reals
        raise NoBracket(f"invalid n bracket {n_bracket!r}: {exc}") from None
    if not 0.0 < n_lo < n_hi:
        raise NoBracket(f"invalid n bracket [{n_lo}, {n_hi}]")
    target_span = abs(prob.b.phi - prob.a.phi)
    qtol = min(1e-13, max(tol / 10.0, 1e-14))
    # (spec, da, db) per n, so the root's are not rebuilt and no n, even
    # one that two search points round to, is evaluated twice
    pieces = {}

    def residual(n):
        if n not in pieces:
            pieces[n] = _branch_angles(prob, n, qtol)
        return _span(prob, *pieces[n][1:]) - target_span

    try:
        f_lo, f_hi = residual(n_lo), residual(n_hi)
    except ForbiddenRegion as exc:
        raise NoBracket(f"invalid bracket end: {exc}") from exc
    if not f_lo * f_hi <= 0.0:
        raise NoBracket(f"no sign change on [{n_lo}, {n_hi}] "
                        f"(end values {f_lo:.3e}, {f_hi:.3e})")
    # the search variable u = sqrt(n - n_edge) (see above); u_hi stays
    # above u_lo for a bracket an ulp wide
    z_near = min(prob.a.z, prob.b.z)
    vz = float(masked_v(prob.weight, z_near)[0]) * z_near
    n_edge = min(1.0 / vz, n_lo) if vz > 0.0 else 0.0
    u_lo = math.sqrt(n_lo - n_edge)
    u_hi = max(math.sqrt(n_hi - n_edge), math.nextafter(u_lo, math.inf))
    u_star, f_star = find_root(lambda u: residual(n_edge + u * u),
                               u_lo, u_hi, f_lo, f_hi, tol)
    n_star = {u_lo: n_lo, u_hi: n_hi}.get(u_star, n_edge + u_star * u_star)
    if abs(f_star) > max(tol, qtol):
        raise QuadratureFailure(
            f"bracket collapsed with span residual {f_star:.3e} "
            f"still above tol {tol:.3e}")

    spec, da, db = pieces[n_star]
    phi_a, phi_b = prob.a.phi, prob.b.phi
    if prob.same_branch:
        sgn = math.copysign(1.0, (phi_b - phi_a) * (prob.b.z - prob.a.z)) \
            if prob.b.z != prob.a.z else 1.0
        phi0 = phi_a - sgn * da
    else:
        sgn = math.copysign(1.0, phi_b - phi_a)
        phi0 = phi_a + sgn * da
    return BvpSolution(n=n_star, phi0=phi0, z_turn=spec.z_turn,
                       span=_span(prob, da, db), evaluations=len(pieces),
                       residual=f_star)
