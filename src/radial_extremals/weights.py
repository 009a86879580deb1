"""Radial weight functions v(z) and their exact derivatives q(z) = dv/dz.

The weight multiplies arc length in the functional ``integral of v(z) ds``,
where z is the distance from the fixed pole.  Two variants exist: an exact
power law z**lam, and a parsed expression whose tree walk carries the
derivative beside the value.  Both evaluate on scalars or numpy arrays.

A checked pass (eval_v, eval_vq) tests z and its raw result once: by Python
comparisons for a scalar z, else by np.count_nonzero on ufunc masks (a user's
weight may return Python floats).  Only a failing test runs the separate
checks, in order, to pick the error.
"""

from __future__ import annotations

import numpy as np

from . import expressions
from .errors import DomainError, EvalError, NonPositiveWeight

__all__ = ["RadialWeight", "PowerLaw", "ExpressionWeight",
           "eval_v", "eval_q", "eval_vq", "masked_v", "parse_weight",
           "render"]


class RadialWeight:
    """Base class; subclasses implement raw value/derivative evaluation."""

    domain_min: float = 0.0
    # (z grid, raw v, validity mask) of reduced_ode's bracket scan, set on
    # the instance by its first scan: none of them depends on n
    _bracket_scan = None

    def _raw_v(self, z):
        raise NotImplementedError

    def _raw_q(self, z):
        raise NotImplementedError

    def _raw_vq(self, z):   # override where one pass yields both
        return self._raw_v(z), self._raw_q(z)

    def text(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"


class PowerLaw(RadialWeight):
    """v(z) = z**lam with exact derivative lam * z**(lam-1)."""

    def __init__(self, lam: float, domain_min: float = 0.0):
        self.lam = float(lam)
        self.domain_min = float(domain_min)

    def _raw_v(self, z):
        if self.lam == 0.0:
            return np.ones_like(z)
        return z ** self.lam

    def _raw_q(self, z):
        if self.lam == 0.0:
            return np.zeros_like(z)
        return self.lam * z ** (self.lam - 1.0)

    def text(self) -> str:
        return f"z^{self.lam!r}"


class ExpressionWeight(RadialWeight):
    """Weight given by a parsed expression tree over z."""

    def __init__(self, ast, source: str | None = None, domain_min: float = 0.0):
        self.ast = ast
        self.source = source if source is not None else expressions.render(ast)
        self.domain_min = float(domain_min)

    def _raw_v(self, z):
        return _shaped(expressions.evaluate(self.ast, z)[0], z)

    def _raw_vq(self, z):   # v: _raw_v's float operations, same bits
        v, q = expressions.evaluate(self.ast, z, np.ones_like(z))
        return _shaped(v, z), _shaped(0.0 if q is None else q, z)

    def text(self) -> str:
        return self.source


def _shaped(x, z: np.ndarray) -> np.ndarray:
    """An expression's value x as a float array of z's shape.  Only a
    constant (a scalar) is broadcast; the weight z returns z itself, which
    comes back as a read-only view, so no result aliases z."""
    x = np.asarray(x, dtype=float)
    if x.shape != z.shape or x is z:
        return np.broadcast_to(x, z.shape)
    return x


def _raw(w: RadialWeight, z, method):
    """z as a float array and method(z), warnings off, for z in the domain."""
    z = np.asarray(z, dtype=float)
    if not (float(z) > w.domain_min if z.ndim == 0
            else _every(z > w.domain_min)):
        _finish(w, z)
    with np.errstate(all="ignore"):
        return z, method(z)


def _every(mask) -> bool:
    """mask.all() counted in C; ndarray.all runs Python code in numpy 2."""
    return np.count_nonzero(mask) == mask.size


def _finish(w, z, v=None):
    """Raise the first failing check's error, in order: DomainError,
    EvalError (value), NonPositiveWeight, EvalError (derivative); only a
    failed fused test calls it, so one of them fails."""
    if not (z > w.domain_min).all():
        raise DomainError(
            f"z must exceed the weight's domain minimum {w.domain_min}")
    if not np.isfinite(v).all():
        raise EvalError(f"weight value is not finite for {w!r}")
    if not np.greater(v, 0.0).all():
        raise NonPositiveWeight(f"weight {w!r} is non-positive at some z")
    raise EvalError(f"weight derivative is not finite for {w!r}")


def masked_v(w: RadialWeight, z):
    """(raw v(z), mask where eval_v would succeed: v finite and positive, z
    inside the domain), raising nothing, for scans of where v turns bad."""
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        v = w._raw_v(z)
    return v, np.isfinite(v) & (v > 0.0) & (z > w.domain_min)


def eval_v(w: RadialWeight, z):
    """Weight value v(z); z may be a scalar or an array.

    Raises DomainError for z <= domain_min, EvalError on non-finite results,
    and NonPositiveWeight where v(z) <= 0.  A float for a scalar z.
    """
    z, v = _raw(w, z, w._raw_v)
    if z.ndim == 0 and 0.0 < float(v) < np.inf:
        return float(v)
    if z.ndim and _every(np.greater(v, 0.0) & np.less(v, np.inf)):
        return v
    _finish(w, z, v)


def eval_vq(w: RadialWeight, z):
    """(eval_v(w, z), eval_q(w, z)) bit for bit, from one raw pass and its
    fused test, raising what eval_q would, in _finish's order."""
    z, (v, q) = _raw(w, z, w._raw_vq)
    if z.ndim == 0 and 0.0 < float(v) < np.inf and abs(float(q)) < np.inf:
        return float(v), float(q)
    if z.ndim and _every(np.greater(v, 0.0) & np.less(v, np.inf)) \
            and _every(np.isfinite(q)):   # an empty q would hide a scalar v
        return v, q
    _finish(w, z, v)


def eval_q(w: RadialWeight, z):
    """Exact derivative q(z) = dv/dz; eval_v's checks, then q finite."""
    return eval_vq(w, z)[1]


def parse_weight(text: str) -> RadialWeight:
    """Parse an expression for v(z).

    A bare power ``z^<number>`` reduces to the exact PowerLaw variant;
    anything else becomes an ExpressionWeight.
    """
    if not text or not text.strip():
        raise DomainError("weight expression must be nonempty")
    ast = expressions.parse_expression(text)
    if isinstance(ast, expressions.Bin) and ast.op == "^" \
            and isinstance(ast.lhs, expressions.Var) \
            and isinstance(ast.rhs, expressions.Num):
        return PowerLaw(ast.rhs.value)
    return ExpressionWeight(ast, source=text)


def render(w: RadialWeight) -> str:
    """Parseable text form of a weight (round-trips through parse_weight)."""
    return w.text()
