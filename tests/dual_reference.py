"""A reference for expression weights' (v, q): first-order dual numbers and
the value-only tree walk, in the order of operations that the library's
single (value, derivative) walk must repeat bit for bit."""

import numpy as np

from radial_extremals import expressions


class Dual:
    """Dual number val + der*eps with eps^2 = 0."""

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.der + other.der)
        return Dual(self.val + other, self.der)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.der - other.der)
        return Dual(self.val - other, self.der)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.der)

    def __neg__(self):
        return Dual(-self.val, -self.der)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.der * other.val + self.val * other.der)
        return Dual(self.val * other, self.der * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val / other.val,
                        (self.der * other.val - self.val * other.der)
                        / (other.val * other.val))
        return Dual(self.val / other, self.der / other)

    def __rtruediv__(self, other):
        return Dual(other / self.val, -other * self.der / (self.val * self.val))

    def __pow__(self, other):
        if isinstance(other, Dual):
            val = self.val ** other.val
            return Dual(val, val * (other.der * np.log(self.val)
                                    + other.val * self.der / self.val))
        val = self.val ** other
        return Dual(val, other * self.val ** (other - 1) * self.der)

    def __rpow__(self, other):
        val = other ** self.val
        return Dual(val, val * np.log(other) * self.der)


def _exp(x):
    if isinstance(x, Dual):
        v = np.exp(x.val)
        return Dual(v, v * x.der)
    return np.exp(x)


def _log(x):
    if isinstance(x, Dual):
        return Dual(np.log(x.val), x.der / x.val)
    return np.log(x)


def _sqrt(x):
    if isinstance(x, Dual):
        v = np.sqrt(x.val)
        return Dual(v, 0.5 * x.der / v)
    return np.sqrt(x)


def _sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.val), np.cos(x.val) * x.der)
    return np.sin(x)


def _cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.val), -np.sin(x.val) * x.der)
    return np.cos(x)


FUNCTIONS = {"exp": _exp, "log": _log, "sqrt": _sqrt, "sin": _sin,
             "cos": _cos}


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
    a, b = walk(node.lhs, z), walk(node.rhs, z)
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
            "/": lambda: a / b, "^": lambda: a ** b}[node.op]()


def raw_vq(ast, z):
    """(v, q) of a tree at z by one Dual pass, q 0.0 for a constant."""
    out = walk(ast, Dual(z, np.ones_like(z)))
    if isinstance(out, Dual):
        return out.val, out.der
    return out, 0.0
