"""Spans and counts at the library's public functions, recorded from outside.

``Tracer.install`` replaces each public function named in ``WRAPPED`` by a
wrapper in every ``radial_extremals`` module that holds it, so calls made
through a module's own imported name are seen too; each importing module gets
its own wrapper, which records who called.  ``ExtremalSpec`` is a class, so its
``__init__`` is wrapped in place.  A span is (job id, span id, parent span id,
name, calling module, start, end, weight points, expression weight, error),
kept in memory and written out when the run ends.  A name that a refactor has
removed is reported as absent, never an error.  Nothing under ``src/`` is
edited: the wrappers live only in this process and ``uninstall`` removes them.
"""

from __future__ import annotations

import csv
import sys
import time
from typing import NamedTuple

import numpy as np

PACKAGE = "radial_extremals"

WRAPPED = {
    "quadrature": ("integrate", "kronrod_panel"),
    "weights": ("eval_v", "eval_q", "parse_weight"),
    "reduced_ode": ("ExtremalSpec", "turning_radius", "dphi_dz",
                    "integrate_phi", "trace_extremal",
                    "first_integral_deviation"),
    "bvp": ("angular_span", "solve_n"),
    "discrete_oracle": ("functional_value", "gradient", "minimize"),
    "extremal_core": ("clairaut_constant", "el_residual",
                      "beltrami_residual"),
    "closed_form": ("power_law_point", "psi_from_z", "log_spiral_point",
                    "is_algebraic", "algebraic_relation_residual"),
    "cli": ("run",),
}

_WEIGHT_CALLS = ("weights.eval_v", "weights.eval_q")
CALLERS = ("reduced_ode", "extremal_core", "discrete_oracle", "cli")


class Span(NamedTuple):
    job: int
    id: int
    parent: int          # -1 for a span with no traced caller
    name: str            # "<module>.<function>"
    caller: str          # module whose imported name was called
    start: float
    end: float
    points: int          # evaluation points, for weight calls
    expr: bool           # weight call on a non-PowerLaw weight
    error: str           # exception type that left the span, or ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for short, names in WRAPPED.items():
            home = modules.get(f"{PACKAGE}.{short}")
            for name in names:
                original = getattr(home, name, None) if home else None
                if original is None:
                    self.absent.append(f"{short}.{name}")
                elif isinstance(original, type):
                    self._patch(original, "__init__", f"{short}.{name}", short,
                                original.__init__)
                else:
                    for mod_name, mod in modules.items():
                        if getattr(mod, name, None) is original:
                            caller = mod_name.rpartition(".")[2]
                            self._patch(mod, name, f"{short}.{name}", caller,
                                        original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, span_name, caller, original) -> None:
        weight_call = span_name in _WEIGHT_CALLS
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            points, expr = 0, False
            if weight_call and len(args) == 2:
                points = int(np.size(args[1]))
                expr = type(args[0]).__name__ != "PowerLaw"
            stack.append(sid)
            error = ""
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(self.job, sid, parent, span_name, caller,
                                  start, end, points, expr, error))

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            out.writerows(sorted(self.spans, key=lambda s: s.id))


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_per_integrate", "_per_call", "_per_solve")):
        return "ratio"
    return "count"


def layer_metrics(spans: list, absent: list) -> dict:
    """Per-layer counts and busy times; a call counts once even when the
    function re-enters itself (integrate recurses on reversed limits)."""
    name_of = {s.id: s.name for s in spans}
    outer: dict[str, list] = {}
    children_s: dict[int, float] = {}
    for s in spans:
        if name_of.get(s.parent) != s.name:
            outer.setdefault(s.name, []).append(s)
        if s.parent >= 0:
            children_s[s.parent] = children_s.get(s.parent, 0.0) \
                + s.end - s.start

    def calls(name):
        return len(outer.get(name, ()))

    def busy(name):
        return sum(s.end - s.start for s in outer.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    weight = [s for s in spans if s.name in _WEIGHT_CALLS]
    v_from = {}
    q_from = {}
    for s in weight:
        tally = v_from if s.name == "weights.eval_v" else q_from
        tally[s.caller] = tally.get(s.caller, 0) + 1
    closed = [s for s in spans if s.name.startswith("closed_form.")
              and not name_of.get(s.parent, "").startswith("closed_form.")]
    runs = outer.get("cli.run", ())

    m = {
        "quadrature.integrate.calls": calls("quadrature.integrate"),
        "quadrature.integrate.s": busy("quadrature.integrate"),
        "quadrature.kronrod_panel.calls": calls("quadrature.kronrod_panel"),
        "quadrature.panels_per_integrate": ratio(
            calls("quadrature.kronrod_panel"), calls("quadrature.integrate")),
        "quadrature.failures": sum(
            s.error == "QuadratureFailure"
            for s in outer.get("quadrature.integrate", ())),
        "weights.eval_v.calls": calls("weights.eval_v"),
        "weights.eval_v.points": sum(
            s.points for s in weight if s.name == "weights.eval_v"),
        "weights.eval_q.calls": calls("weights.eval_q"),
        "weights.eval_q.points": sum(
            s.points for s in weight if s.name == "weights.eval_q"),
        "weights.s": busy("weights.eval_v") + busy("weights.eval_q"),
        "weights.points_per_call": ratio(sum(s.points for s in weight),
                                         len(weight)),
        "weights.expr_points": sum(s.points for s in weight if s.expr),
    }
    for caller in CALLERS:
        m[f"weights.calls_from.{caller}"] = \
            v_from.get(caller, 0) + q_from.get(caller, 0)
    m["weights.calls_from.other"] = len(weight) - sum(
        m[f"weights.calls_from.{c}"] for c in CALLERS)
    for name in ("ExtremalSpec", "turning_radius", "trace_extremal",
                 "integrate_phi"):
        m[f"reduced_ode.{name}.calls"] = calls(f"reduced_ode.{name}")
        m[f"reduced_ode.{name}.s"] = busy(f"reduced_ode.{name}")
    m["reduced_ode.first_integral_deviation.calls"] = \
        calls("reduced_ode.first_integral_deviation")
    grad = q_from.get("discrete_oracle", 0)
    m.update({
        "bvp.solve_n.calls": calls("bvp.solve_n"),
        "bvp.solve_n.s": busy("bvp.solve_n"),
        "bvp.angular_span.calls": calls("bvp.angular_span"),
        "bvp.spans_per_solve": ratio(calls("bvp.angular_span"),
                                     calls("bvp.solve_n")),
        "discrete_oracle.minimize.calls": calls("discrete_oracle.minimize"),
        "discrete_oracle.minimize.s": busy("discrete_oracle.minimize"),
        "discrete_oracle.gradient_evals": grad,
        # every gradient evaluation also evaluates v once; the rest of the
        # module's eval_v calls are functional evaluations
        "discrete_oracle.functional_evals":
            v_from.get("discrete_oracle", 0) - grad,
        "discrete_oracle.grad_evals_per_solve": ratio(
            grad, calls("discrete_oracle.minimize")),
        "cli.run.s": busy("cli.run"),
        "cli.self_s": sum(s.end - s.start - children_s.get(s.id, 0.0)
                          for s in runs),
        "extremal_core.el_residual.calls": calls("extremal_core.el_residual"),
        "extremal_core.el_residual.s": busy("extremal_core.el_residual"),
        "closed_form.calls": len(closed),
        "closed_form.s": sum(s.end - s.start for s in closed),
        "trace.absent_names": len(absent),
    })
    return m
