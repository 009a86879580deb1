"""First-order dual numbers for forward-mode differentiation.

A Dual carries a value and the derivative of that value with respect to the
single seed variable.  Components may be Python floats or numpy arrays, so an
expression tree can be differentiated at many points in one pass.
"""

from __future__ import annotations

import numpy as np


class Dual:
    """Dual number val + der*eps with eps^2 = 0."""

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __repr__(self):
        return f"Dual({self.val!r}, {self.der!r})"

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
            # general a^b = exp(b log a); requires a > 0
            val = self.val ** other.val
            return Dual(val, val * (other.der * np.log(self.val)
                                    + other.val * self.der / self.val))
        val = self.val ** other
        return Dual(val, other * self.val ** (other - 1) * self.der)

    def __rpow__(self, other):
        val = other ** self.val
        return Dual(val, val * np.log(other) * self.der)


def dual_exp(x):
    if isinstance(x, Dual):
        v = np.exp(x.val)
        return Dual(v, v * x.der)
    return np.exp(x)


def dual_log(x):
    if isinstance(x, Dual):
        return Dual(np.log(x.val), x.der / x.val)
    return np.log(x)


def dual_sqrt(x):
    if isinstance(x, Dual):
        v = np.sqrt(x.val)
        return Dual(v, 0.5 * x.der / v)
    return np.sqrt(x)


def dual_sin(x):
    if isinstance(x, Dual):
        return Dual(np.sin(x.val), np.cos(x.val) * x.der)
    return np.sin(x)


def dual_cos(x):
    if isinstance(x, Dual):
        return Dual(np.cos(x.val), -np.sin(x.val) * x.der)
    return np.cos(x)


FUNCTIONS = {
    "exp": dual_exp,
    "log": dual_log,
    "sqrt": dual_sqrt,
    "sin": dual_sin,
    "cos": dual_cos,
}

