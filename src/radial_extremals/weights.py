"""Radial weight functions v(z), their exact derivatives q(z) = dv/dz and
v''(z), and their slopes [v](z, z0) = (v(z) - v(z0))/(z - z0).

The weight multiplies arc length in the functional ``integral of v(z) ds``,
where z is the distance from the fixed pole.  Two variants exist: an exact
power law z**lam, and a parsed expression whose tree walk carries the
derivatives, or the slope, beside the value.  Both evaluate on scalars or
numpy arrays.  A slope is computed without cancellation, from the step
z - z0 itself, so it keeps its relative accuracy as z approaches z0.

A checked pass (eval_v, eval_vq, eval_vq2) tests z and its raw result
once: by Python comparisons for a scalar z, else by np.count_nonzero on
ufunc masks, which take a raw result of any type, Python floats included.
Only a failing test runs the separate checks, in order, to pick the error.
A z that is neither a float nor an int or float array goes through
errors.real_array first, so text, None and bools raise DomainError.
"""

from __future__ import annotations

import numpy as np

from . import expressions
from .errors import (DomainError, EvalError, NonPositiveWeight, real,
                     real_array)

__all__ = ["RadialWeight", "PowerLaw", "ExpressionWeight",
           "eval_v", "eval_q", "eval_vq", "eval_vq2", "eval_slope",
           "masked_v", "wide_v", "parse_weight"]


class RadialWeight:
    """The type of PowerLaw and ExpressionWeight, each of which supplies
    its raw passes _raw_v, _raw_vq2 and _raw_slope and its text().  The
    domain is z > 0."""

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"


class PowerLaw(RadialWeight):
    """v(z) = z**lam with exact derivatives lam * z**(lam-1) and
    lam*(lam-1) * z**(lam-2)."""

    def __init__(self, lam: float):
        self.lam = real("lam", lam)

    def _raw_v(self, z):
        if self.lam == 0.0:
            return np.ones_like(z)
        return z ** self.lam

    def _raw_vq2(self, z):   # v'' exactly 0 at lam 0 and 1, not 0*inf
        lam = self.lam
        if lam == 0.0:
            return np.ones_like(z), np.zeros_like(z), np.zeros_like(z)
        v2 = np.zeros_like(z) if lam == 1.0 \
            else lam * (lam - 1.0) * z ** (lam - 2.0)
        return z ** lam, lam * z ** (lam - 1.0), v2

    def _raw_slope(self, z, z0, dz):
        # z^lam - z0^lam = z0^lam*expm1(lam*log1p(u)), u = dz/z0; v is
        # _raw_v's, as v0 + step cancels where z^lam is far below z0^lam
        v0 = z0 ** self.lam
        step = v0 * np.expm1(self.lam * np.log1p(dz / z0))
        return self._raw_v(z), np.where(dz == 0.0, self.lam * v0 / z0,
                                        step / dz)

    def text(self) -> str:
        return f"z^{self.lam!r}"


class ExpressionWeight(RadialWeight):
    """Weight given by the text of an expression over z, parsed once into
    the tree ast; bad text raises expressions.parse_expression's
    ParseError."""

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise DomainError(f"weight expression must be a str, got {text!r}")
        self.ast = expressions.parse_expression(text)
        self.source = text

    def _raw_v(self, z):
        return _shaped(expressions.evaluate(self.ast, z)[0], z)

    def _raw_vq2(self, z):   # v: _raw_v's float operations, same bits
        v, q, v2 = expressions.evaluate(self.ast, z, np.ones_like(z),
                                        np.zeros_like(z))
        if q is None:   # a constant
            q = v2 = 0.0
        return _shaped(v, z), _shaped(q, z), _shaped(v2, z)

    def _raw_slope(self, z, z0, dz):
        v, _, s = expressions.evaluate_slope(self.ast, z, z0, dz)
        return _shaped(v, z), _shaped(0.0 if s is None else s, z)

    def text(self) -> str:
        return self.source


def _shaped(x, z: np.ndarray) -> np.ndarray:
    """An expression's value x as an array of z's shape and dtype.  Only a
    constant (a scalar) is broadcast; the weight z returns z itself, which
    comes back as a read-only view, so no result aliases z."""
    x = np.asarray(x, dtype=z.dtype)
    if x.shape != z.shape or x is z:
        return np.broadcast_to(x, z.shape)
    return x


def _floats(z) -> np.ndarray:
    """z as a float array: a float or an int or float array as numpy takes
    it, anything else through real_array's checks (+-inf pass, for the
    domain and value checks to refuse as they refuse a float)."""
    if isinstance(z, float) or isinstance(z, np.ndarray) \
            and z.dtype.kind in "iuf":
        return np.asarray(z, dtype=float)
    return real_array("z", z, infinite=True)


def _raw(w: RadialWeight, z, method):
    """z as a float array and method(z), warnings off, for z in the domain."""
    z = _floats(z)
    if not (float(z) > 0.0 if z.ndim == 0 else _every(z > 0.0)):
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
    if not (z > 0.0).all():
        raise DomainError("z must exceed the weight's domain minimum 0.0")
    if not np.isfinite(v).all():
        raise EvalError(f"weight value is not finite for {w!r}")
    if not np.greater(v, 0.0).all():
        raise NonPositiveWeight(f"weight {w!r} is non-positive at some z")
    raise EvalError(f"weight derivative is not finite for {w!r}")


def masked_v(w: RadialWeight, z):
    """(raw v(z), mask where eval_v would succeed: z > 0 and v finite and
    positive), raising nothing past _floats' checks, for scans of where v
    turns bad."""
    z = _floats(z)
    with np.errstate(all="ignore"):
        v = w._raw_v(z)
    return v, np.isfinite(v) & (v > 0.0) & (z > 0.0)


def eval_v(w: RadialWeight, z):
    """Weight value v(z); z may be a scalar or an array.

    Raises DomainError for z <= 0, EvalError on non-finite results,
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
    return eval_vq2(w, z)[:2]


def eval_vq2(w: RadialWeight, z):
    """(v, q, v'') from one raw pass: v and q with eval_vq's checks, and
    v'' = d2v/dz2 left unchecked, for a caller that tests what it builds
    from it."""
    z, (v, q, v2) = _raw(w, z, w._raw_vq2)
    return (*_checked_pair(w, z, (v, q)), float(v2) if z.ndim == 0 else v2)


def eval_slope(w: RadialWeight, z, z0: float, dz):
    """(v(z), [v](z, z0)) for z = z0 + dz, z0 > 0 a float, from one raw
    pass, with eval_vq's checks on z, v and the slope."""
    return _checked_pair(w, *_raw(w, z, lambda x: w._raw_slope(x, z0, dz)))


def _checked_pair(w, z, pair):
    """pair = (v, d) from a raw pass at z, as floats for a scalar z, once v
    is finite and positive and d finite; else _finish's error."""
    v, d = pair
    if z.ndim == 0 and 0.0 < float(v) < np.inf and abs(float(d)) < np.inf:
        return float(v), float(d)
    if z.ndim and _every(np.greater(v, 0.0) & np.less(v, np.inf)) \
            and _every(np.isfinite(d)):   # an empty d would hide a scalar v
        return v, d
    _finish(w, z, v)


def eval_q(w: RadialWeight, z):
    """Exact derivative q(z) = dv/dz; eval_v's checks, then q finite."""
    return eval_vq(w, z)[1]


def wide_v(w: RadialWeight, z: float) -> np.longdouble:
    """v(z) at a float z > 0 in numpy's long double, unchecked: the raw
    value pass evaluates in it (wider than float on x86-64 Linux, no wider
    on some platforms)."""
    with np.errstate(all="ignore"):
        return np.longdouble(w._raw_v(np.longdouble(z)))


def parse_weight(text: str) -> RadialWeight:
    """Parse an expression for v(z).

    A bare power ``z^<number>`` reduces to the exact PowerLaw variant;
    anything else becomes an ExpressionWeight.
    """
    if isinstance(text, str) and not text.strip():
        raise DomainError("weight expression must be nonempty")
    w = ExpressionWeight(text)
    match w.ast:
        case expressions.Chain(expressions.Var(),
                               (("^", expressions.Num(p)),)):
            return PowerLaw(p)
    return w

