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
           "evaluate", "render"]


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

_FUNC_NAMES = frozenset(FUNCTIONS)

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
                elif tok in _FUNC_NAMES:
                    kind = "func"
                else:
                    raise ParseError(f"unknown name {tok!r}", m.start(),
                                     ("'z'", "function"))
            self.tokens.append((kind, tok, m.start()))
        self.tokens.append(("end", "", len(text)))
        self.i = 0

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

    # each method returns (node, value): the value of a subtree without z,
    # computed once as evaluate computes it, else None
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
            node, c = self.factor()
            return Neg(node), None if c is None else -c
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            return self.bin(self.advance(), base, self.factor())
        return base

    def bin(self, tok, lhs, rhs):
        """(Bin, value) for the operator token tok; a constant operation
        that raises or goes complex in Python floats is a ParseError at tok."""
        (a, ca), (b, cb), (_, op, off) = lhs, rhs, tok
        if ca is None or cb is None:
            return Bin(op, a, b), None
        try:
            c = _OPS[op](ca, cb)
        except ZeroDivisionError:
            raise ParseError("constant subexpression divides by zero",
                             off) from None
        except OverflowError:
            raise ParseError("constant subexpression overflows",
                             off) from None
        if isinstance(c, complex):
            raise ParseError("constant subexpression has no real value", off)
        return Bin(op, a, b), c

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
            node, c = self.expr()
            self.expect(")")
            if kind != "func":
                return node, c
            return Fun(tok, node), None if c is None else FUNCTIONS[tok](c)
        self.fail(_ATOM_EXPECTED)


def parse_expression(text: str):
    """Parse text into an expression tree; raises ParseError on bad input,
    among it a subexpression without z that divides by zero, overflows or
    has no real value in Python floats (numpy's inf and nan are left to the
    weight's checks)."""
    parser = _Parser(text)
    try:
        with np.errstate(all="ignore"):
            node, _ = parser.expr()
    except RecursionError:   # where depends on the caller's stack: offset 0
        raise ParseError("expression nests too deeply", 0) from None
    if parser.peek()[0] != "end":
        parser.fail(("operator", "end of input"))
    return node


# precedence levels used when rendering: additive 1, multiplicative 2,
# unary minus 3, exponent 4, atoms 5
def _prec(node) -> int:
    if isinstance(node, Bin):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def render(node) -> str:
    """Re-render a tree as parseable text (inverse of parse_expression)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Fun):
        return f"{node.name}({render(node.arg)})"
    if isinstance(node, Neg):
        inner = render(node.operand)
        if _prec(node.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    lhs, rhs = render(node.lhs), render(node.rhs)
    p = _prec(node)
    if node.op == "^":
        # base of '^' must be an atom; exponent is a factor
        if _prec(node.lhs) < 5:
            lhs = f"({lhs})"
        if isinstance(node.rhs, Bin):
            rhs = f"({rhs})"
        return f"{lhs}^{rhs}"
    if _prec(node.lhs) < p:
        lhs = f"({lhs})"
    if _prec(node.rhs) <= p:
        rhs = f"({rhs})"
    return f"{lhs} {node.op} {rhs}"
