"""Extremal curves of the radially weighted arc-length functional.

Given a positive weight v(z) of the distance z from a fixed pole, this
package finds the curves making ``integral of v(z) ds`` stationary: tracing
them by quadrature of the reduced equation dphi = dz/(z*sqrt(n^2 v^2 z^2 -
1)), evaluating the exact closed forms for power-law weights, checking the
conserved first integral v*z*sin(alpha) = 1/n, and cross-validating
everything against direct minimization of the discretized functional.

Importing the package loads none of its modules: a public name is imported
from its module on first use (PEP 562).
"""

import importlib

_MODULE_OF = {name: module for module, names in {
    "bvp": "BvpProblem BvpSolution solve_n",
    "closed_form": "PowerLawCurve algebraic_relation_residual "
                   "log_spiral_point power_law_point",
    "discrete_oracle": "OracleResult Polyline functional_value gradient "
                       "minimize",
    "errors": "DomainError DomainViolation EvalError ExtremalError "
              "ForbiddenRegion NoBracket NonMonotoneAbscissa "
              "NonPositiveWeight ParseError QuadratureFailure StalledDescent "
              "TangentialTurningPoint",
    "extremal_core": "CartesianPoint ELPartials PolarPoint beltrami_residual "
                     "clairaut_constant el_residual "
                     "lagrangian_partials_cartesian",
    "reduced_ode": "ExtremalSpec TraceResult dphi_dz first_integral_deviation "
                   "integrate_phi trace_extremal turning_radius",
    "weights": "ExpressionWeight PowerLaw RadialWeight eval_q eval_v eval_vq "
               "parse_weight",
}.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
