"""Tiny deterministic expression language for scenario files.

Grammar (classic recursive descent):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'

Variables are ``x``, ``t``, ``u``, ``v``; functions are ``sin``, ``cos``,
``exp``, ``abs`` and the builtin ``enzyme(z) = -z / (1 + |z|)``.  Evaluators
broadcast over numpy arrays.  All parse errors carry the 0-based character
position at which they occurred.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["ExpressionError", "Expression", "expression_parse"]


def _enzyme(z):
    """The built-in enzyme reaction -z / (1 + |z|): the expression function
    ``enzyme`` and ``semilinear.enzyme_kinetics``."""
    z = np.asarray(z, dtype=float)
    return -z / (1.0 + np.abs(z))


_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
    "enzyme": _enzyme,
}
_VARIABLES = ("x", "t", "u", "v")

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class ExpressionError(ValueError):
    """Syntax or name error in an expression; ``position`` is 0-based."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Token(NamedTuple):
    kind: str  # "num" | "name" | one of "+-*/^()" | "end"
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(text, i)
            if m is None:
                raise ExpressionError(f"malformed number {text[i:i+8]!r}", i)
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
        elif ch.isalpha() or ch == "_":
            m = _IDENT.match(text, i)
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
        elif ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.names: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = repr(tok.value) if tok.kind != "end" else "end of input"
            raise ExpressionError(f"expected {kind!r}, found {got}", tok.pos)
        return self.advance()

    def parse(self) -> Callable:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {tok.value!r}", tok.pos)
        return node

    def expr(self) -> Callable:
        node = self.term()
        while self.peek().kind in "+-":
            op = self.advance().kind
            rhs = self.term()
            if op == "+":
                node = (lambda a, b: lambda env: a(env) + b(env))(node, rhs)
            else:
                node = (lambda a, b: lambda env: a(env) - b(env))(node, rhs)
        return node

    def term(self) -> Callable:
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.advance().kind
            rhs = self.unary()
            if op == "*":
                node = (lambda a, b: lambda env: a(env) * b(env))(node, rhs)
            else:
                node = (lambda a, b: lambda env: a(env) / b(env))(node, rhs)
        return node

    def unary(self) -> Callable:
        if self.peek().kind == "-":
            self.advance()
            inner = self.unary()
            return lambda env: -inner(env)
        return self.power()

    def power(self) -> Callable:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            exponent = self.unary()  # right-associative
            return lambda env: np.power(base(env), exponent(env))
        return base

    def atom(self) -> Callable:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.value)
            return lambda env: value
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            name = tok.value
            if name in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                fn = _FUNCTIONS[name]
                return lambda env: fn(arg(env))
            if name in _VARIABLES:
                self.names.add(name)
                return lambda env: env[name]
            raise ExpressionError(f"unknown identifier {name!r}", tok.pos)
        got = repr(tok.value) if tok.kind != "end" else "end of input"
        raise ExpressionError(f"expected a value, found {got}", tok.pos)


class Expression:
    """Compiled expression; callable with keyword arguments x, t, u, v.

    ``names`` is the set of variables the expression actually references,
    which callers use to decide what kind of coefficient or semilinear
    term the expression represents.  The result is broadcast against the
    supplied array arguments so constants produce full-size fields.
    """

    def __init__(self, text: str):
        parser = _Parser(text)
        self._root = parser.parse()
        self.text = text
        self.names = frozenset(parser.names)

    def __call__(self, x=0.0, t=0.0, u=0.0, v=0.0):
        out = self._root({"x": x, "t": t, "u": u, "v": v})
        shape = np.broadcast(x, t, u, v).shape
        if shape and np.shape(out) != shape:
            out = np.broadcast_to(np.asarray(out, dtype=float), shape).copy()
        return out

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Expression({self.text!r})"


def expression_parse(text: str) -> Expression:
    """Parse ``text`` into a deterministic evaluator (see module docstring)."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    return Expression(text)
