"""Arithmetic expression trees over the single variable z.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)* ;
    term   := factor (('*'|'/') factor)* ;
    factor := '-' factor | power ;
    power  := atom ('^' factor)? ;          # '^' right-associative
    atom   := number | 'z' | func '(' expr ')' | '(' expr ')' ;
    func   := 'exp'|'log'|'sqrt'|'sin'|'cos' ;

Trees evaluate over floats, numpy arrays, or Dual numbers, so one tree gives
both values and exact first derivatives.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .dual import FUNCTIONS
from .errors import ParseError

__all__ = ["Num", "Var", "Neg", "Bin", "Fun", "parse_expression", "evaluate", "render"]


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


def evaluate(node, z):
    """Evaluate an expression tree at z (float, ndarray, or Dual)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return z
    if isinstance(node, Neg):
        return -evaluate(node.operand, z)
    if isinstance(node, Fun):
        return FUNCTIONS[node.name](evaluate(node.arg, z))
    a = evaluate(node.lhs, z)
    b = evaluate(node.rhs, z)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    if node.op == "^":
        return a ** b
    raise ValueError(f"unknown operator {node.op!r}")


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

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self):
        kind, tok, off = self.peek()
        if kind == "num":
            self.advance()
            value = float(tok)
            if value == math.inf:
                raise ParseError(f"number {tok!r} overflows to inf", off)
            return Num(value)
        if kind == "var":
            self.advance()
            return Var()
        if kind == "func" or tok == "(":
            self.advance()
            if kind == "func":
                self.expect("(")
            node = self.expr()
            self.expect(")")
            return Fun(tok, node) if kind == "func" else node
        self.fail(_ATOM_EXPECTED)


def parse_expression(text: str):
    """Parse text into an expression tree; raises ParseError on bad input."""
    parser = _Parser(text)
    try:
        node = parser.expr()
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
