"""Exception types shared across the package.

Everything numerical raises a subclass of ExtremalError so callers (and the
CLI) can separate usage mistakes from genuine numerical failures; every
public entry checks its numbers with real or real_array.
"""

import math
import numbers

import numpy as np


class ExtremalError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ExtremalError):
    """Input lies outside the mathematical domain of the operation."""


class NonPositiveWeight(ExtremalError):
    """The weight evaluated to a value <= 0; the functional is undefined there."""


class EvalError(ExtremalError):
    """Expression evaluation produced a non-finite value."""


class ParseError(ExtremalError):
    """Malformed weight expression.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted at that point.
    """

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected {', '.join(sorted(expected))})" if expected else ""))
        self.offset = offset
        self.expected = frozenset(expected)


class NonMonotoneAbscissa(ExtremalError):
    """Sample abscissae are not strictly increasing."""


class NoBracket(ExtremalError):
    """The supplied interval does not bracket a sign change."""


class TangentialTurningPoint(ExtremalError):
    """n*v(z)*z - 1 has a (near-)double root: the reduced ODE degenerates."""


class ForbiddenRegion(ExtremalError):
    """Radius inside the turning circle: n*v(z)*z <= 1, radicand negative."""


class QuadratureFailure(ExtremalError):
    """Adaptive quadrature could not reach the requested tolerance."""


class StalledDescent(ExtremalError):
    """The minimizer rejected too many trial steps in a row to go on."""


class DomainViolation(ExtremalError):
    """The minimizer drove the polyline out of the weight's domain."""


def real(name, value, least=-math.inf, most=math.inf, *, integer=False,
         positive=False, infinite=False):
    """value as a float (an int if integer) once it is a finite real number
    (an integer if integer; or +-inf if infinite, for a marker) in [least,
    most], and > 0 if positive, else DomainError naming name and value: a
    bool, text, None or a complex number is refused, never parsed; numpy
    scalars and Fractions pass."""
    ok = type(value) is (int if integer else float) or isinstance(
        value, numbers.Integral if integer else numbers.Real) \
        and not isinstance(value, bool)   # exact types skip the slow ABC
    try:
        x = (int if integer else float)(value) if ok else math.nan
    except OverflowError:   # an int or a Fraction past the float range
        x = math.nan
    if not (integer and ok or math.isfinite(x) or infinite and math.isinf(x)):
        rule = "an integer" if integer else "a real number or +-inf" \
            if infinite else "a finite real number"
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    if not (least <= x <= most and (x > 0 or not positive)):
        rule = "positive" if positive else f"in [{least}, {most}]"
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return x


def real_array(name, values, *, infinite=False):
    """values as a new float array once every entry is a finite real number
    (or +-inf if infinite) as real takes it; every entry of anything but an
    array of integers or floats, a list say, is checked as it is before the
    float conversion.  The error names the first bad entry by its index, as
    name[i, j]."""
    a = values if isinstance(values, np.ndarray) \
        else np.array(values, dtype=object)
    if a.dtype.kind not in "iuf" or not (
            ~np.isnan(a) if infinite else np.isfinite(a)).all():
        for index, x in zip(np.ndindex(a.shape), a.ravel().tolist()):
            real(f"{name}{list(index) if index else ''}", x,
                 infinite=infinite)
    return a.astype(float)
