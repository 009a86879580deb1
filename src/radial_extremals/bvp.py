"""Two-point boundary-value solving: pick the constant n through two points.

The swept angle between two radii on an extremal depends only on n, so the
shared bracketed root finder (roots.find_root) applied to the angular-span
residual recovers the constant; the pose phi0 then follows from the
endpoint angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ForbiddenRegion, NoBracket, QuadratureFailure
from .extremal_core import PolarPoint
from .reduced_ode import ExtremalSpec, integrate_phi
from .roots import find_root
from .weights import RadialWeight

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
        for name, point in (("a", self.a), ("b", self.b)):
            for what, value in (("angle", point.phi), ("radius", point.z)):
                if not math.isfinite(value):
                    raise DomainError(f"endpoint {name} {what} must be "
                                      f"finite, got {value}")
            if not point.z > 0.0:
                raise DomainError(
                    f"endpoint {name} radius must be positive, got {point.z}")
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
    beyond that sign change is assumed.  A bracket end that puts the turning
    radius outside an endpoint radius raises NoBracket naming that end's n;
    a bracket that collapses to a few ulps with the residual still above tol
    raises QuadratureFailure.  A negative or NaN tol raises DomainError;
    tol 0 searches until the bracket collapses.  A tol below about 5e-13,
    0 included, can raise QuadratureFailure at the round-off floor.
    Returns the constant and the pose phi0 implied by the endpoint angles,
    with the span evaluations made and the final span residual.
    """
    if not tol >= 0.0:
        raise DomainError(f"tol must be non-negative, got {tol}")
    n_lo, n_hi = float(n_bracket[0]), float(n_bracket[1])
    if not 0.0 < n_lo < n_hi:
        raise NoBracket(f"invalid n bracket [{n_lo}, {n_hi}]")
    target_span = abs(prob.b.phi - prob.a.phi)
    qtol = min(1e-13, max(tol / 10.0, 1e-14))
    # (spec, da, db) per n, so the root's are not rebuilt; one entry per
    # span evaluation, since find_root evaluates each n at most once
    pieces = {}

    def residual(n):
        pieces[n] = _branch_angles(prob, n, qtol)
        return _span(prob, *pieces[n][1:]) - target_span

    try:
        f_lo, f_hi = residual(n_lo), residual(n_hi)
    except ForbiddenRegion as exc:
        raise NoBracket(f"invalid bracket end: {exc}") from exc
    n_star, f_star = find_root(residual, n_lo, n_hi, f_lo, f_hi, tol)
    if abs(f_star) > tol:
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
