"""Arithmetic expression trees over the single variable z.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)* ;
    term   := factor (('*'|'/') factor)* ;
    factor := '-' factor | power ;
    power  := atom ('^' factor)? ;          # '^' right-associative
    atom   := number | 'z' | func '(' expr ')' | '(' expr ')' ;
    func   := 'exp'|'log'|'sqrt'|'sin'|'cos' ;

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

__all__ = ["Num", "Var", "Neg", "Bin", "Fun", "FUNCTIONS", "parse_expression",
           "evaluate", "evaluate_slope"]


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
class Bin:
    """A binary operation.  == and hash loop down the left spine of a
    chain of them, as evaluate does, so a long sum does not recurse."""
    op: str
    lhs: object
    rhs: object

    def __eq__(self, other):
        if type(other) is not Bin:
            return NotImplemented
        a, b = self, other
        while type(a) is Bin and type(b) is Bin and a is not b:
            if a.op != b.op or a.rhs != b.rhs:
                return False
            a, b = a.lhs, b.lhs
        return a is b or a == b

    def __hash__(self):
        node, ops = self, []
        while type(node) is Bin:
            ops.append((node.op, node.rhs))
            node = node.lhs
        return hash((node, *ops))


@dataclass(frozen=True)
class Fun:
    name: str
    arg: object


FUNCTIONS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin,
             "cos": np.cos}

# the derivative of f(x) from x, v = f(x) and the derivative dx of x
_CHAIN = {"exp": lambda x, v, dx: v * dx,
          "log": lambda x, v, dx: dx / x,
          "sqrt": lambda x, v, dx: 0.5 * dx / v,
          "sin": lambda x, v, dx: np.cos(x) * dx,
          "cos": lambda x, v, dx: -np.sin(x) * dx}

# the second derivative of f(x) from x, v = f(x) and x's two derivatives
_CHAIN2 = {"exp": lambda x, v, dx, ddx: v * (dx * dx + ddx),
           "log": lambda x, v, dx, ddx: (ddx - dx * dx / x) / x,
           "sqrt": lambda x, v, dx, ddx: (0.5 * ddx - 0.25 * dx * dx / x) / v,
           "sin": lambda x, v, dx, ddx: np.cos(x) * ddx - v * dx * dx,
           "cos": lambda x, v, dx, ddx: -np.sin(x) * ddx - v * dx * dx}

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "^": operator.pow}

# (a op b, its derivative) with z in both operands, in a only, in b only:
# first-order dual-number rules in their order of operations, so with z in
# b alone the reflected rule runs and c + z's value is z + c
_RULES = {
    "+": (lambda a, da, b, db: (a + b, da + db),
          lambda a, da, b, db: (a + b, da),
          lambda a, da, b, db: (b + a, db)),
    "-": (lambda a, da, b, db: (a - b, da - db),
          lambda a, da, b, db: (a - b, da),
          lambda a, da, b, db: (a - b, -db)),
    "*": (lambda a, da, b, db: (a * b, da * b + a * db),
          lambda a, da, b, db: (a * b, da * b),
          lambda a, da, b, db: (b * a, db * a)),
    "/": (lambda a, da, b, db: (a / b, (da * b - a * db) / (b * b)),
          lambda a, da, b, db: (a / b, da / b),
          lambda a, da, b, db: (a / b, -a * db / (b * b))),
    "^": (lambda a, da, b, db: ((v := a ** b),
                                v * (db * np.log(a) + b * da / a)),
          lambda a, da, b, db: (a ** b, b * a ** (b - 1) * da),
          lambda a, da, b, db: ((v := a ** b), v * np.log(a) * db)),
}


def _second(op, a, da, dda, b, db, ddb, v, d):
    """The second derivative of v = a op b, whose derivative is d, from each
    operand's value and two derivatives (both None without z)."""
    if op == "+":
        return ddb if da is None else dda if db is None else dda + ddb
    if op == "-":
        return -ddb if da is None else dda if db is None else dda - ddb
    if op == "*":
        return ddb * a if da is None else dda * b if db is None \
            else dda * b + 2.0 * da * db + a * ddb
    if op == "/":   # (a'' - 2 v' b' - v b'')/b
        return dda / b if db is None else -(2.0 * d * db + v * ddb) / b \
            if da is None else (dda - 2.0 * d * db - v * ddb) / b
    if db is None:   # a^p; at p 0 or 1 its first term is 0, not 0*inf
        c = b * (b - 1.0)
        return (c * a ** (b - 2.0) * da * da if c else 0.0) \
            + b * a ** (b - 1.0) * dda
    log_a = np.log(a)
    if da is None:   # c^b
        return v * log_a * (ddb + log_a * db * db)
    w1 = db * log_a + b * da / a   # v = exp(w), w = b*log(a)
    return v * (w1 * w1 + ddb * log_a
                + (2.0 * da * db + b * (dda - da * da / a)) / a)


def evaluate(node, z, seed=None, seed2=None):
    """(value, derivative, second derivative) of a tree at z, a float or an
    ndarray, for z = z(t) with dz/dt = seed and d2z/dt2 = seed2: the
    derivative is v'*seed and the second v''*seed^2 + v'*seed2, so seeds 1
    and 0 give v' and v''.  Each is None where it is zero: without z in the
    subtree, with no seed, or (the second) with no seed2, which needs a
    seed.  The second derivative's rules run beside the first's and change
    no bit of the value or the derivative.  The left spine of a chain of
    binary operators is a loop, so a long sum or product does not
    recurse."""
    if isinstance(node, Num):
        return node.value, None, None
    if isinstance(node, Var):
        return z, seed, seed2
    if isinstance(node, Neg):
        v, d, dd = evaluate(node.operand, z, seed, seed2)
        return -v, None if d is None else -d, None if dd is None else -dd
    if isinstance(node, Fun):
        x, dx, ddx = evaluate(node.arg, z, seed, seed2)
        v = FUNCTIONS[node.name](x)
        d = None if dx is None else _CHAIN[node.name](x, v, dx)
        dd = None if ddx is None else _CHAIN2[node.name](x, v, dx, ddx)
        return v, d, dd
    spine = [node]
    while isinstance(node.lhs, Bin):
        node = node.lhs
        spine.append(node)
    v, d, dd = evaluate(node.lhs, z, seed, seed2)
    for node in reversed(spine):
        b, db, ddb = evaluate(node.rhs, z, seed, seed2)
        if d is None and db is None:
            v = _OPS[node.op](v, b)
        else:
            a, da = v, d
            rule = _RULES[node.op][2 * (da is None) + (db is None)]
            v, d = rule(a, da, b, db)
            if seed2 is not None:
                dd = _second(node.op, a, da, dd, b, db, ddb, v, d)
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
    without z in the subtree, and its limit, the derivative, where dz is 0.
    The left spine of a chain of binary operators is a loop, as in
    evaluate."""
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
    spine = [node]
    while isinstance(node.lhs, Bin):
        node = node.lhs
        spine.append(node)
    a, a0, sa = evaluate_slope(node.lhs, z, z0, dz)
    for node in reversed(spine):
        b, b0, sb = evaluate_slope(node.rhs, z, z0, dz)
        op = node.op
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
        else:             # [a/b] = ([a] - (a0/b0)*[b])/b(z)
            s = sa / b if sb is None else -(a0 / b0) * sb / b \
                if sa is None else (sa - (a0 / b0) * sb) / b
        a, a0, sa = _OPS[op](a, b), _OPS[op](a0, b0), s
    return a, a0, sa


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>(\d+(\.\d+)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_]+)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)

_ATOM_EXPECTED = ("number", "'z'", "function", "'('")


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
        self.values = {}   # id of each node without z -> its value

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
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            node = self.bin(self.advance(), node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            node = self.bin(self.advance(), node, self.factor())
        return node

    def factor(self):
        if self.peek()[1] == "-":
            self.advance()
            node = self.factor()
            return self.fold(Neg(node), operator.neg, node)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            return self.bin(self.advance(), base, self.factor())
        return base

    def bin(self, tok, lhs, rhs):
        return self.fold(Bin(tok[1], lhs, rhs), _OPS[tok[1]], lhs, rhs,
                         off=tok[2])

    def fold(self, node, fn, *operands, off=None):
        """node, its value fn(*values) in Python floats recorded where every
        operand has one; an operation that raises or goes complex is a
        ParseError at off, its operator's offset."""
        try:
            values = [self.values[id(x)] for x in operands]
        except KeyError:    # an operand has z
            return node
        try:
            value = fn(*values)
        except ZeroDivisionError:
            raise ParseError("constant subexpression divides by zero",
                             off) from None
        except OverflowError:
            raise ParseError("constant subexpression overflows", off) from None
        if isinstance(value, complex):
            raise ParseError("constant subexpression has no real value", off)
        self.values[id(node)] = value
        return node

    def atom(self):
        kind, tok, off = self.peek()
        if kind == "num":
            self.advance()
            value = float(tok)
            if value == math.inf:
                raise ParseError(f"number {tok!r} overflows to inf", off)
            node = Num(value)
            self.values[id(node)] = value
            return node
        if kind == "var":
            self.advance()
            return Var()
        if kind == "func" or tok == "(":
            self.advance()
            if kind == "func":
                self.expect("(")
            node = self.expr()
            self.expect(")")
            if kind == "func":
                return self.fold(Fun(tok, node), FUNCTIONS[tok], node)
            return node
        self.fail(_ATOM_EXPECTED)


def parse_expression(text: str):
    """Parse text into an expression tree; raises ParseError on bad input,
    among it a subexpression without z that divides by zero, overflows or
    has no real value in Python floats (numpy's inf and nan are left to the
    weight's checks)."""
    parser = _Parser(text)
    try:
        with np.errstate(all="ignore"):
            node = parser.expr()
            if parser.peek()[0] != "end":
                parser.fail(("operator", "end of input"))
    except RecursionError:   # where depends on the caller's stack: offset 0
        raise ParseError("expression nests too deeply", 0) from None
    return node
