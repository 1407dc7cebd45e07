"""Recursive-descent parser and evaluator for the analytic-function grammar.

Grammar, loosest binding first::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)*
    atom   := NUMBER | VAR | 'exp' '(' expr ')' | '(' expr ')'

``NUMBER`` is a decimal literal with an optional trailing ``i`` (imaginary
part); a bare ``i`` is the imaginary unit. Variables are ``z`` (alias
``lambda``) and ``h``. ``^`` takes a literal integer exponent in 0..64 and
binds tighter than unary minus, so ``-z^2`` is ``-(z^2)``. Whitespace is
ignored everywhere.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, is_dataclass
from typing import Mapping, Union

from .errors import DivisionNearZero, ExprError, ParseError, UnboundVariable

DENOM_FLOOR = 1e-300
MAX_EXPONENT = 64


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str  # "z" or "h"


@dataclass(frozen=True)
class Add:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Sub:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Mul:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Div:
    left: "FuncExpr"
    right: "FuncExpr"


@dataclass(frozen=True)
class Neg:
    operand: "FuncExpr"


@dataclass(frozen=True)
class IntPow:
    base: "FuncExpr"
    exponent: int


@dataclass(frozen=True)
class Exp:
    operand: "FuncExpr"


FuncExpr = Union[Const, Var, Add, Sub, Mul, Div, Neg, IntPow, Exp]

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)

_VAR_NAMES = {"z": "z", "lambda": "z", "h": "h"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", the operator character, or "end"
    text: str
    pos: int


def _lex(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at,
                             ("number", "identifier", "operator"))
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _lex(src)
        self.idx = 0

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def take(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"got {tok.text or 'end of input'!r}", tok.pos, (what,))
        return self.take()

    def expr(self) -> FuncExpr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> FuncExpr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            node = Mul(node, rhs) if op.kind == "*" else Div(node, rhs)
        return node

    def unary(self) -> FuncExpr:
        if self.peek().kind == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> FuncExpr:
        node = self.atom()
        while self.peek().kind == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ParseError(f"got {tok.text or 'end of input'!r}", tok.pos,
                                 ("integer exponent",))
            self.take()
            exponent = int(tok.text)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} above {MAX_EXPONENT}", tok.pos,
                                 ("integer exponent <= 64",))
            node = IntPow(node, exponent)
        return node

    def atom(self) -> FuncExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            if tok.text.endswith("i"):
                return Const(complex(0.0, float(tok.text[:-1])))
            return Const(complex(float(tok.text), 0.0))
        if tok.kind == "ident":
            self.take()
            if tok.text == "i":
                return Const(1j)
            if tok.text in _VAR_NAMES:
                return Var(_VAR_NAMES[tok.text])
            if tok.text == "exp":
                self.expect("(", "'('")
                inner = self.expr()
                self.expect(")", "')'")
                return Exp(inner)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos,
                             ("z", "lambda", "h", "i", "exp"))
        if tok.kind == "(":
            self.take()
            inner = self.expr()
            self.expect(")", "')'")
            return inner
        raise ParseError(f"got {tok.text or 'end of input'!r}", tok.pos,
                         ("number", "variable", "'('", "'-'", "exp"))


def parse_expr(src: str) -> FuncExpr:
    """Parse ``src`` into an expression tree; raises :class:`ParseError`."""
    parser = _Parser(src)
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("end of input",))
    return node


def free_variables(expr: FuncExpr) -> set[str]:
    """Names of the variables an expression tree reads ("z" for ``lambda``)."""
    if isinstance(expr, Var):
        return {expr.name}
    return set().union(*(free_variables(v) for v in vars(expr).values() if is_dataclass(v)))


def eval_expr(expr: FuncExpr, bindings: Mapping[str, complex]) -> complex:
    """Evaluate an expression tree under variable bindings (keys "z", "h").

    A power or exp that overflows raises ExprError.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return complex(bindings[expr.name])
        except KeyError:
            raise UnboundVariable(f"variable {expr.name!r} is not bound") from None
    if isinstance(expr, Add):
        return eval_expr(expr.left, bindings) + eval_expr(expr.right, bindings)
    if isinstance(expr, Sub):
        return eval_expr(expr.left, bindings) - eval_expr(expr.right, bindings)
    if isinstance(expr, Mul):
        return eval_expr(expr.left, bindings) * eval_expr(expr.right, bindings)
    if isinstance(expr, Div):
        denom = eval_expr(expr.right, bindings)
        if abs(denom) < DENOM_FLOOR:
            raise DivisionNearZero(f"denominator magnitude {abs(denom)!r} below {DENOM_FLOOR}")
        return eval_expr(expr.left, bindings) / denom
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, bindings)
    if isinstance(expr, IntPow):
        base = eval_expr(expr.base, bindings)
        try:
            return base**expr.exponent
        except OverflowError:
            raise ExprError(f"({base:.6g})^{expr.exponent} overflows") from None
    if isinstance(expr, Exp):
        operand = eval_expr(expr.operand, bindings)
        try:
            return cmath.exp(operand)
        except OverflowError:
            raise ExprError(f"exp({operand:.6g}) overflows") from None
    raise TypeError(f"not an expression node: {expr!r}")


def parse_constant(src: str) -> complex:
    """Parse and evaluate a variable-free expression (CLI complex literals)."""
    return eval_expr(parse_expr(src), {})
