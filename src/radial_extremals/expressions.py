"""Arithmetic expression trees over the single variable z.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)* ;
    term   := factor (('*'|'/') factor)* ;
    factor := '-' factor | power ;
    power  := atom ('^' factor)? ;          # '^' right-associative
    atom   := number | 'z' | func '(' expr ')' | '(' expr ')' ;
    func   := 'exp'|'log'|'sqrt'|'sin'|'cos' ;

An expr's, a term's or a power's run of operators is one Chain node, so a
tree nests only as deep as the text's parentheses, functions, unary minuses
and powers.

Trees evaluate over floats or numpy arrays, and one walk gives values and
exact first and second derivatives, or values at two points and the slope
between them (the divided difference), by slope arithmetic (R. Krawczyk and
A. Neumaier, SIAM J. Numer. Anal. 22, 1985): each rule takes the step of
its operands from their slopes, never from a difference of their values,
so a slope keeps its relative accuracy however close the two points are.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = ["Num", "Var", "Neg", "Chain", "Fun", "FUNCTIONS",
           "parse_expression", "evaluate", "evaluate_slope"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Chain:
    """An operator run as the grammar reads it: the operand first, then
    ops, the (operator, operand) pairs that follow it, left to right; a
    '^' is a chain of one pair."""
    first: object
    ops: tuple


@dataclass(frozen=True)
class Fun:
    name: str
    arg: object


FUNCTIONS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
             "cos": np.cos}

# f(x)'s two derivatives from x, v = f(x) and x's two derivatives
_CHAIN = {"exp": lambda x, v, dx, ddx: (v * dx, v * (dx * dx + ddx)),
          "log": lambda x, v, dx, ddx: (dx / x, (ddx - dx * dx / x) / x),
          "sqrt": lambda x, v, dx, ddx: (0.5 * dx / v,
                                         (0.5 * ddx - 0.25 * dx * dx / x) / v),
          "sin": lambda x, v, dx, ddx: ((c := np.cos(x)) * dx,
                                        c * ddx - v * dx * dx),
          "cos": lambda x, v, dx, ddx: ((s := -np.sin(x)) * dx,
                                        s * ddx - v * dx * dx)}

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": operator.pow}


def _step(op, a, da, dda, b, db, ddb):
    """(a op b, its derivative, its second derivative) from each operand's
    value and two derivatives, both None for an operand without z (one
    operand has z): second-order dual-number rules in their order of
    operations, so with z in b alone the reflected rule runs and c + z's
    value is z + c."""
    if op == "+":
        return (b + a, db, ddb) if da is None else (a + b, da, dda) \
            if db is None else (a + b, da + db, dda + ddb)
    if op == "-":
        return (a - b, -db, -ddb) if da is None else (a - b, da, dda) \
            if db is None else (a - b, da - db, dda - ddb)
    if op == "*":
        return (b * a, db * a, ddb * a) if da is None else \
            (a * b, da * b, dda * b) if db is None else \
            (a * b, da * b + a * db, dda * b + 2.0 * da * db + a * ddb)
    if op == "/":   # v'' = (a'' - 2 v' b' - v b'')/b
        v = a / b
        if db is None:
            return v, da / b, dda / b
        d = -a * db / (b * b) if da is None else (da * b - a * db) / (b * b)
        return v, d, -(2.0 * d * db + v * ddb) / b if da is None \
            else (dda - 2.0 * d * db - v * ddb) / b
    v = a ** b
    if db is None:   # a^p; at p 0 or 1 v'' has no a^(p-2) term, not 0*inf
        c, d1 = b * (b - 1.0), b * a ** (b - 1.0)
        return v, d1 * da, (c * a ** (b - 2.0) * da * da if c else 0.0) \
            + d1 * dda
    log_a = np.log(a)
    if da is None:   # c^b
        return v, v * log_a * db, v * log_a * (ddb + log_a * db * db)
    w = db * log_a + b * da / a   # v = exp(w), w = b*log(a)
    return v, v * w, v * (w * w + ddb * log_a
                          + (2.0 * da * db + b * (dda - da * da / a)) / a)


def evaluate(node, z, seed=None, seed2=None):
    """(value, derivative, second derivative) of a tree at z, a float or an
    ndarray, for z = z(t) with dz/dt = seed and d2z/dt2 = seed2, both given
    or neither: the derivative is v'*seed and the second v''*seed^2 +
    v'*seed2, so seeds 1 and 0 give v' and v''.  The derivatives are None
    without z in the subtree or without seeds, and their rules change no
    bit of the value."""
    if isinstance(node, Num):
        return node.value, None, None
    if isinstance(node, Var):
        return z, seed, seed2
    if isinstance(node, Neg):
        v, d, dd = evaluate(node.operand, z, seed, seed2)
        return (-v, None, None) if d is None else (-v, -d, -dd)
    if isinstance(node, Fun):
        x, dx, ddx = evaluate(node.arg, z, seed, seed2)
        v = FUNCTIONS[node.name](x)
        return (v, None, None) if dx is None \
            else (v, *_CHAIN[node.name](x, v, dx, ddx))
    v, d, dd = evaluate(node.first, z, seed, seed2)
    for op, operand in node.ops:
        b, db, ddb = evaluate(operand, z, seed, seed2)
        if d is None and db is None:
            v = _OPS[op](v, b)
        else:
            v, d, dd = _step(op, v, d, dd, b, db, ddb)
    return v, d, dd


def _ratio(num, h, at_zero):
    """num/h, with at_zero where h == 0 (num/h's limit there)."""
    return np.where(h == 0.0, at_zero, num / h)


def _log_slope(x0, sx, dx):
    """[log x] = log1p(r)/r * [x]/x0, r = dx/x0."""
    r = dx / x0
    return _ratio(np.log1p(r), r, 1.0) * sx / x0


def _sin_step(dx):
    """sin(dx/2)/(dx/2): (sin x - sin x0)/dx = cos((x + x0)/2) times it."""
    return _ratio(np.sin(0.5 * dx), 0.5 * dx, 1.0)


# the slope of f(x) from x, x0, f(x), f(x0), the slope sx of x and the
# step dx = sx*dz: secant rules whose only difference is the step itself
_SLOPE_CHAIN = {
    "exp": lambda x, x0, v, v0, sx, dx: v0 * _ratio(np.expm1(dx), dx, 1.0)
    * sx,
    "log": lambda x, x0, v, v0, sx, dx: _log_slope(x0, sx, dx),
    "sqrt": lambda x, x0, v, v0, sx, dx: sx / (v + v0),
    "sin": lambda x, x0, v, v0, sx, dx: np.cos(0.5 * (x + x0))
    * _sin_step(dx) * sx,
    "cos": lambda x, x0, v, v0, sx, dx: -np.sin(0.5 * (x + x0))
    * _sin_step(dx) * sx,
}


def _slope_pow(a, a0, sa, b, b0, sb, dz):
    """(a^b, a0^b0, slope of a^b).  A constant exponent p gives
    a0^p*expm1(p*log1p(r))/r * [a]/a0, r = [a]*dz/a0; otherwise a^b is
    exp(w), w = b*log(a), with [exp w] = a0^b0*expm1(dw)/dw * [w].  Where
    that is not finite (a base that starts at 0 or changes sign) the slope
    is the plain difference quotient, or at dz = 0 with a constant exponent
    its limit p*a0^(p-1)*[a]."""
    v, v0 = a ** b, a0 ** b0
    if sb is None:
        r = sa * dz / a0
        s = v0 * _ratio(np.expm1(b0 * np.log1p(r)), r, b0) * sa / a0
    else:
        sw = sb * np.log(a)
        if sa is not None:   # [b*log a] = [b]*log a(z) + b0*[log a]
            sw = sw + b0 * _log_slope(a0, sa, sa * dz)
        s = v0 * _ratio(np.expm1(sw * dz), sw * dz, 1.0) * sw
    bad = ~np.isfinite(s)
    if np.count_nonzero(bad):
        quotient = (v - v0) / dz
        if sb is None:
            quotient = np.where(dz == 0.0, b0 * a0 ** (b0 - 1.0) * sa,
                                quotient)
        s = np.where(bad, quotient, s)
    return v, v0, s


def evaluate_slope(node, z, z0, dz):
    """(value at z, value at z0, slope (value(z) - value(z0))/dz) of a tree,
    z = z0 + dz a float or an ndarray and z0 a float; the slope is None
    without z in the subtree, and its limit, the derivative, where dz is 0."""
    if isinstance(node, Num):
        return node.value, node.value, None
    if isinstance(node, Var):   # numpy's float: 1/0 is inf, not an error
        return z, np.float64(z0), 1.0
    if isinstance(node, Neg):
        v, v0, s = evaluate_slope(node.operand, z, z0, dz)
        return -v, -v0, None if s is None else -s
    if isinstance(node, Fun):
        x, x0, sx = evaluate_slope(node.arg, z, z0, dz)
        f = FUNCTIONS[node.name]
        v, v0 = f(x), f(x0)
        if sx is None:
            return v, v0, None
        return v, v0, _SLOPE_CHAIN[node.name](x, x0, v, v0, sx, sx * dz)
    a, a0, sa = evaluate_slope(node.first, z, z0, dz)
    for op, operand in node.ops:
        b, b0, sb = evaluate_slope(operand, z, z0, dz)
        if sa is None and sb is None:
            a, a0 = _OPS[op](a, b), _OPS[op](a0, b0)
            continue
        if op == "^":
            a, a0, sa = _slope_pow(a, a0, sa, b, b0, sb, dz)
            continue
        if op == "+":
            s = sb if sa is None else sa if sb is None else sa + sb
        elif op == "-":
            s = -sb if sa is None else sa if sb is None else sa - sb
        elif op == "*":   # [a*b] = [a]*b(z) + a(z0)*[b]
            s = a0 * sb if sa is None else sa * b if sb is None \
                else sa * b + a0 * sb
        elif sb is None:  # [a/b] = [a]/b; numpy's / gives [a]/0 as inf
            s = sa / b if b else np.divide(sa, b)
        else:             # [a/b] = ([a] - (a0/b0)*[b])/b(z)
            s = -(a0 / b0) * sb / b if sa is None \
                else (sa - (a0 / b0) * sb) / b
        a, a0, sa = _OPS[op](a, b), _OPS[op](a0, b0), s
    return a, a0, sa


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(\d+(\.\d+)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]+)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)

_ATOM_EXPECTED = ("number", "'z'", "function", "'('")
# The deepest nesting of a factor the parser accepts, in unary minuses,
# '^'s, function calls and parentheses: copy.deepcopy, the costliest of a
# tree's hash, repr, pickle and deepcopy, takes 10 frames per level of a
# '^' or of a parenthesised operator run (the parser 7 per parenthesis), so
# the deepest tree takes 640 of Python's default limit of 1000 frames.
_MAX_DEPTH = 64


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []  # (kind, text, offset)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"unexpected character {text[pos]!r}", pos,
                                 _ATOM_EXPECTED)
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            kind = m.lastgroup
            tok = m.group()
            if kind == "name":
                if tok == "z":
                    kind = "var"
                elif tok in FUNCTIONS:
                    kind = "func"
                else:
                    raise ParseError(f"unknown name {tok!r}", m.start(),
                                     ("'z'", "function"))
            self.tokens.append((kind, tok, m.start()))
        self.tokens.append(("end", "", len(text)))
        self.i = 0
        self.depth = -1   # the nesting of the factor being read

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, tok, off = self.peek()
        what = "end of input" if kind == "end" else repr(tok)
        raise ParseError(f"unexpected {what}", off, expected)

    def expect(self, tok: str):
        if self.peek()[1] != tok:
            self.fail((repr(tok),))
        self.advance()

    def expr(self):
        return self.chain(self.term, self.term, ("+", "-"))

    def term(self):
        return self.chain(self.factor, self.factor, ("*", "/"))

    def factor(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nests too deeply", 0)
        if self.peek()[1] == "-":
            self.advance()
            node, value = self.factor()
            out = Neg(node), self.fold(operator.neg, None, value)
        else:   # power: the factor after a '^' reads every '^' after it
            out = self.chain(self.atom, self.factor, ("^",))
        self.depth -= 1
        return out

    def chain(self, first, operand, ops):
        """(node, value): first's, or a Chain of it and the (operator,
        operand) pairs that follow it while the operator is in ops, each
        operator folded into the value as it is read."""
        node, value = first()
        pairs = []
        while self.peek()[1] in ops:
            _, op, off = self.advance()
            rhs, rhs_value = operand()
            pairs.append((op, rhs))
            value = self.fold(_OPS[op], off, value, rhs_value)
        return (Chain(node, tuple(pairs)) if pairs else node), value

    def fold(self, fn, off, *values):
        """fn(*values) in Python floats, or None where a value is None (its
        node has z); an operation that raises or goes complex is a
        ParseError at off, its operator's offset."""
        if None in values:
            return None
        try:
            value = fn(*values)
        except ZeroDivisionError:
            raise ParseError("constant subexpression divides by zero",
                             off) from None
        except OverflowError:
            raise ParseError("constant subexpression overflows", off) from None
        if isinstance(value, complex):
            raise ParseError("constant subexpression has no real value", off)
        return value

    def atom(self):
        kind, tok, off = self.peek()
        if kind == "num":
            self.advance()
            value = float(tok)
            if value == math.inf:
                raise ParseError(f"number {tok!r} overflows to inf", off)
            return Num(value), value
        if kind == "var":
            self.advance()
            return Var(), None
        if kind == "func" or tok == "(":
            self.advance()
            if kind == "func":
                self.expect("(")
            node, value = self.expr()
            self.expect(")")
            if kind == "func":
                return Fun(tok, node), self.fold(FUNCTIONS[tok], None, value)
            return node, value
        self.fail(_ATOM_EXPECTED)


def parse_expression(text: str):
    """Parse text into an expression tree; raises ParseError on bad input,
    among it nesting deeper than 64 levels (_MAX_DEPTH) and a subexpression
    without z that divides by zero, overflows or has no real value in
    Python floats (numpy's inf and nan are left to the weight's checks)."""
    parser = _Parser(text)
    try:
        with np.errstate(all="ignore"):
            node = parser.expr()[0]
            if parser.peek()[0] != "end":
                parser.fail(("operator", "end of input"))
    except RecursionError:   # a caller deep in its stack: offset 0 too
        raise ParseError("expression nests too deeply", 0) from None
    return node
