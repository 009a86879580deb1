"""A reference for expression weights' (v, q, v''): second-order dual
numbers and the value-only tree walk, in the order of operations that the
library's single derivative walk must repeat bit for bit."""

import numpy as np

from radial_extremals import expressions


class Dual:
    """Second-order dual number val + der*eps + der2*eps^2/2, eps^3 = 0:
    a value with its first and second derivatives."""

    __slots__ = ("val", "der", "der2")

    def __init__(self, val, der, der2):
        self.val = val
        self.der = der
        self.der2 = der2

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.der + other.der,
                        self.der2 + other.der2)
        return Dual(self.val + other, self.der, self.der2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.der - other.der,
                        self.der2 - other.der2)
        return Dual(self.val - other, self.der, self.der2)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.der, -self.der2)

    def __neg__(self):
        return Dual(-self.val, -self.der, -self.der2)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.der * other.val + self.val * other.der,
                        self.der2 * other.val
                        + 2.0 * self.der * other.der
                        + self.val * other.der2)
        return Dual(self.val * other, self.der * other, self.der2 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):   # (a'' - 2 v' b' - v b'')/b
            val = self.val / other.val
            der = (self.der * other.val - self.val * other.der) \
                / (other.val * other.val)
            return Dual(val, der, (self.der2 - 2.0 * der * other.der
                                   - val * other.der2) / other.val)
        return Dual(self.val / other, self.der / other, self.der2 / other)

    def __rtruediv__(self, other):
        val = other / self.val
        der = -other * self.der / (self.val * self.val)
        return Dual(val, der,
                    -(2.0 * der * self.der + val * self.der2) / self.val)

    def __pow__(self, other):
        a, da, dda = self.val, self.der, self.der2
        if isinstance(other, Dual):   # a^b = exp(w), w = b*log(a)
            b, db, ddb = other.val, other.der, other.der2
            val = a ** b
            w1 = db * np.log(a) + b * da / a
            return Dual(val, val * w1,
                        val * (w1 * w1 + ddb * np.log(a)
                               + (2.0 * da * db + b * (dda - da * da / a))
                               / a))
        c = other * (other - 1.0)   # at p 0 or 1 no a^(p-2) term, not 0*inf
        return Dual(a ** other, other * a ** (other - 1) * da,
                    (c * a ** (other - 2.0) * da * da if c else 0.0)
                    + other * a ** (other - 1.0) * dda)

    def __rpow__(self, other):
        val = other ** self.val
        log_c = np.log(other)
        return Dual(val, val * log_c * self.der,
                    val * log_c * (self.der2 + log_c * self.der * self.der))


def _exp(x):
    if isinstance(x, Dual):
        v = np.exp(x.val)
        return Dual(v, v * x.der, v * (x.der * x.der + x.der2))
    return np.exp(x)


def _log(x):
    if isinstance(x, Dual):
        return Dual(np.log(x.val), x.der / x.val,
                    (x.der2 - x.der * x.der / x.val) / x.val)
    return np.log(x)


def _sqrt(x):
    if isinstance(x, Dual):
        v = np.sqrt(x.val)
        return Dual(v, 0.5 * x.der / v,
                    (0.5 * x.der2 - 0.25 * x.der * x.der / x.val) / v)
    return np.sqrt(x)


def _sin(x):
    if isinstance(x, Dual):
        v = np.sin(x.val)
        return Dual(v, np.cos(x.val) * x.der,
                    np.cos(x.val) * x.der2 - v * x.der * x.der)
    return np.sin(x)


def _cos(x):
    if isinstance(x, Dual):
        v = np.cos(x.val)
        return Dual(v, -np.sin(x.val) * x.der,
                    -np.sin(x.val) * x.der2 - v * x.der * x.der)
    return np.cos(x)


FUNCTIONS = {"exp": _exp, "log": _log, "sqrt": _sqrt, "sin": _sin,
             "cos": _cos}


_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: a * b, "/": lambda a, b: a / b,
        "^": lambda a, b: a ** b}


def walk(node, z):
    """A tree's value at z, a float, an ndarray or a Dual, recursively."""
    if isinstance(node, expressions.Num):
        return node.value
    if isinstance(node, expressions.Var):
        return z
    if isinstance(node, expressions.Neg):
        return -walk(node.operand, z)
    if isinstance(node, expressions.Fun):
        return FUNCTIONS[node.name](walk(node.arg, z))
    a = walk(node.first, z)
    for op, operand in node.ops:
        a = _OPS[op](a, walk(operand, z))
    return a


def raw_vq2(ast, z):
    """(v, q, v'') of a tree at z by one Dual pass, q and v'' 0.0 for a
    constant."""
    out = walk(ast, Dual(z, np.ones_like(z), np.zeros_like(z)))
    if isinstance(out, Dual):
        return out.val, out.der, out.der2
    return out, 0.0, 0.0


def raw_vq(ast, z):
    """(v, q) of a tree at z, raw_vq2's first two."""
    return raw_vq2(ast, z)[:2]
