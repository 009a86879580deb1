"""Exact extremals for power-law weights v = z**lam.

For lam != -1 the whole curve is algebraic in the auxiliary angle psi with
tan(psi) = sqrt(n^2 z^(2lam+2) - 1):

    z(psi) = (n*cos(psi))**(-1/(lam+1)),   phi = phi0 + psi/(lam+1),

equivalently n * z^(lam+1) * cos((lam+1)*(phi - phi0)) = 1.  The excluded
exponent lam = -1 makes n*v*z constant, so the slope dz/(z*dphi) is the
constant sqrt(n^2 - 1) and the curve is a logarithmic spiral (a circle at
n = 1); that family ships as its own operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, real
from .extremal_core import PolarPoint

__all__ = ["PowerLawCurve", "power_law_point", "log_spiral_point",
           "algebraic_relation_residual"]


@dataclass(frozen=True)
class PowerLawCurve:
    """Extremal of v = z**lam with first-integral constant n, rotated by phi0."""

    lam: float
    n: float
    phi0: float = 0.0

    def __post_init__(self):
        for name in ("lam", "n", "phi0"):
            object.__setattr__(self, name, real(name, getattr(self, name),
                                                positive=name == "n"))
        if self.lam == -1.0:
            raise DomainError(
                "lam = -1 is the logarithmic-spiral family; "
                "use log_spiral_point")

    @property
    def z_turn(self) -> float:
        """Radius of perpendicular tangency, n**(-1/(lam+1))."""
        return _power(self.n, -1.0 / (self.lam + 1.0), "z_turn")


def _power(x: float, p: float, what: str) -> float:
    """x**p; DomainError naming what on overflow (0**p, p < 0, too)."""
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"{what} = {x}**{p} overflows a float") from None


def power_law_point(c: PowerLawCurve, psi: float) -> PolarPoint:
    """Point at parameter psi in (-pi/2, pi/2).

    Satisfies n*v(z)*z = 1/cos(psi); psi = 0 is the turning point.
    """
    psi = real("psi", psi)
    if not abs(psi) < 0.5 * math.pi:
        raise DomainError("psi must lie strictly inside (-pi/2, pi/2)")
    k = c.lam + 1.0
    z = _power(c.n * math.cos(psi), -1.0 / k, f"z at psi {psi}")
    return PolarPoint(c.phi0 + psi / k, z)


def log_spiral_point(n: float, z0: float, phi: float) -> PolarPoint:
    """Point of the lam = -1 extremal z = z0*exp(sqrt(n^2-1)*phi).

    For n = 1 the curve is the circle z = z0; n < 1 admits no real curve
    (the first integral would need n*v*z = n < 1 everywhere).
    """
    n, phi = real("n", n), real("phi", phi)
    if n < 1.0:
        raise DomainError("log-spiral extremals require n >= 1")
    z0 = real("z0", z0, positive=True)
    try:
        z = z0 * math.exp(math.sqrt(n * n - 1.0) * phi)
    except OverflowError:
        z = math.inf
    if not math.isfinite(z):   # finite input: n*n or z overflowed
        raise DomainError(f"z0*exp(sqrt(n*n - 1)*phi) overflows a float at "
                          f"n {n}, z0 {z0}, phi {phi}")
    return PolarPoint(phi, z)


def algebraic_relation_residual(c: PowerLawCurve, pt: PolarPoint) -> float:
    """n * z^(lam+1) * cos((lam+1)*(phi-phi0)) - 1; zero on the curve, for
    a point with z > 0."""
    phi, z = real("phi", pt.phi), real("z", pt.z, positive=True)
    k = c.lam + 1.0
    return c.n * _power(z, k, "z^(lam+1)") * math.cos(k * (phi - c.phi0)) - 1.0
