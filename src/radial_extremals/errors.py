"""Exception types shared across the package.

Everything numerical raises a subclass of ExtremalError so callers (and the
CLI) can separate usage mistakes from genuine numerical failures.
"""


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
