"""Closed-form references for extremals, kept with the tests.

On the extremal of v = z**lam with constant n, the auxiliary angle psi of
closed_form.power_law_point satisfies n*z^(lam+1) = 1/cos(psi), so on the
psi >= 0 branch psi = atan(sqrt((n*z^(lam+1))^2 - 1)).

For v = log(z)/z on z > 1, n*v*z = n*log(z): the turning radius is
z* = e^(1/n), and with t = log(z) the reduced equation
dphi = dt/sqrt(n^2 t^2 - 1) gives phi(z) = arccosh(n*log(z))/n from z*,
a catenary n*t = cosh(n*phi) in the log-polar plane.  It is the exact
reference for a weight that is not a power law.
"""

import math


def psi(curve, z: float) -> float:
    """psi >= 0 at radius z on a PowerLawCurve; z must lie on the allowed
    side of the turning radius (math.sqrt raises ValueError otherwise)."""
    return math.atan(math.sqrt((curve.n * z ** (curve.lam + 1.0)) ** 2 - 1.0))


def catenary_turn(mpmath, n: float):
    """z* = e^(1/n) of the weight log(z)/z, in mpmath's precision."""
    return mpmath.exp(1 / mpmath.mpf(n))


def catenary_phi(mpmath, n: float, z: float):
    """Angle swept from z* to radius z >= z* on the extremal of the weight
    log(z)/z with constant n, in mpmath's precision."""
    n = mpmath.mpf(n)
    return mpmath.acosh(n * mpmath.log(mpmath.mpf(z))) / n
