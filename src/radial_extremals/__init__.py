"""Extremal curves of the radially weighted arc-length functional.

Given a positive weight v(z) of the distance z from a fixed pole, this
package finds the curves making ``integral of v(z) ds`` stationary: tracing
them by quadrature of the reduced equation dphi = dz/(z*sqrt(n^2 v^2 z^2 -
1)), evaluating the exact closed forms for power-law weights, checking the
conserved first integral v*z*sin(alpha) = 1/n, and cross-validating
everything against direct minimization of the discretized functional.
"""

from .bvp import BvpProblem, BvpSolution, angular_span, solve_n
from .closed_form import (PowerLawCurve, algebraic_relation_residual,
                          is_algebraic, log_spiral_point, power_law_point,
                          psi_from_z)
from .discrete_oracle import (OracleResult, Polyline, functional_value,
                              gradient, minimize)
from .errors import (DomainError, DomainViolation, EvalError, ExtremalError,
                     ForbiddenRegion, NoBracket, NonMonotoneAbscissa,
                     NonPositiveWeight, ParseError, QuadratureFailure,
                     StalledDescent, TangentialTurningPoint)
from .extremal_core import (CartesianPoint, ELPartials, PolarPoint,
                            beltrami_residual, clairaut_constant,
                            clairaut_constant_from_angle, el_residual,
                            lagrangian_partials_cartesian, to_cartesian,
                            to_polar)
from .reduced_ode import (ExtremalSpec, TraceResult, dphi_dz,
                          first_integral_deviation, integrate_phi,
                          trace_extremal, turning_radius)
from .weights import (ExpressionWeight, PowerLaw, RadialWeight, eval_q,
                      eval_v, eval_vq, parse_weight, render)

__version__ = "0.1.0"

__all__ = [
    "BvpProblem", "BvpSolution", "angular_span", "solve_n",
    "PowerLawCurve", "algebraic_relation_residual", "is_algebraic",
    "log_spiral_point", "power_law_point", "psi_from_z",
    "OracleResult", "Polyline", "functional_value", "gradient", "minimize",
    "DomainError", "DomainViolation", "EvalError", "ExtremalError",
    "ForbiddenRegion", "NoBracket", "NonMonotoneAbscissa",
    "NonPositiveWeight", "ParseError", "QuadratureFailure",
    "StalledDescent", "TangentialTurningPoint",
    "CartesianPoint", "ELPartials", "PolarPoint", "beltrami_residual",
    "clairaut_constant", "clairaut_constant_from_angle", "el_residual",
    "lagrangian_partials_cartesian", "to_cartesian", "to_polar",
    "ExtremalSpec", "TraceResult", "dphi_dz", "first_integral_deviation",
    "integrate_phi", "trace_extremal", "turning_radius",
    "ExpressionWeight", "PowerLaw", "RadialWeight", "eval_q", "eval_v",
    "eval_vq", "parse_weight", "render",
    "__version__",
]
