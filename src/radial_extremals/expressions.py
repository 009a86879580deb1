"""Arithmetic expression trees over the single variable z.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)* ;
    term   := factor (('*'|'/') factor)* ;
    factor := '-' factor | power ;
    power  := atom ('^' factor)? ;          # '^' right-associative
    atom   := number | 'z' | func '(' expr ')' | '(' expr ')' ;
    func   := 'exp'|'log'|'sqrt'|'sin'|'cos' ;

Trees evaluate over floats or numpy arrays, and one walk gives both values
and exact first derivatives.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

__all__ = ["Num", "Var", "Neg", "Bin", "Fun", "FUNCTIONS", "parse_expression",
           "evaluate"]


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
    op: str
    lhs: object
    rhs: object


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


def evaluate(node, z, seed=None):
    """(value, derivative) of a tree at z, a float or an ndarray.  The
    derivative is d(value)/dz times seed, None where it is zero: without z
    in the subtree, or with no seed.  The left spine of a chain of binary
    operators is a loop, so a long sum or product does not recurse."""
    if isinstance(node, Num):
        return node.value, None
    if isinstance(node, Var):
        return z, seed
    if isinstance(node, Neg):
        v, d = evaluate(node.operand, z, seed)
        return -v, None if d is None else -d
    if isinstance(node, Fun):
        x, dx = evaluate(node.arg, z, seed)
        v = FUNCTIONS[node.name](x)
        return v, None if dx is None else _CHAIN[node.name](x, v, dx)
    spine = [node]
    while isinstance(node.lhs, Bin):
        node = node.lhs
        spine.append(node)
    v, d = evaluate(node.lhs, z, seed)
    for node in reversed(spine):
        b, db = evaluate(node.rhs, z, seed)
        if d is None and db is None:
            v = _OPS[node.op](v, b)
        else:
            rule = _RULES[node.op][2 * (d is None) + (db is None)]
            v, d = rule(v, d, b, db)
    return v, d


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
