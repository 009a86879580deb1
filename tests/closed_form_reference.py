"""Closed-form reference for the power-law extremals, kept with the tests.

On the extremal of v = z**lam with constant n, the auxiliary angle psi of
closed_form.power_law_point satisfies n*z^(lam+1) = 1/cos(psi), so on the
psi >= 0 branch psi = atan(sqrt((n*z^(lam+1))^2 - 1)).
"""

import math


def psi(curve, z: float) -> float:
    """psi >= 0 at radius z on a PowerLawCurve; z must lie on the allowed
    side of the turning radius (math.sqrt raises ValueError otherwise)."""
    return math.atan(math.sqrt((curve.n * z ** (curve.lam + 1.0)) ** 2 - 1.0))
