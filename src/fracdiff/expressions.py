"""Tiny deterministic expression language for scenario files.

Grammar (classic recursive descent):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'

The variables are the names the caller declares, passed positionally in
that order; functions are ``sin``, ``cos``, ``exp``, ``abs`` and the builtin
``enzyme(z) = -z / (1 + |z|)``.  Evaluators act elementwise on numpy arrays
(a constant returns its scalar).  All parse and name errors carry the
0-based character position at which they occurred.
"""

from __future__ import annotations

import operator
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
_OPERATORS: dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": np.power,
}

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


def _binary(op: str, lhs: Callable, rhs: Callable) -> Callable:
    fn = _OPERATORS[op]
    return lambda args: fn(lhs(args), rhs(args))


class _Parser:
    def __init__(self, text: str, names: tuple):
        self.tokens = _tokenize(text)
        self.k = 0
        self.names = names

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
            node = _binary(self.advance().kind, node, self.term())
        return node

    def term(self) -> Callable:
        node = self.unary()
        while self.peek().kind in "*/":
            node = _binary(self.advance().kind, node, self.unary())
        return node

    def unary(self) -> Callable:
        if self.peek().kind == "-":
            self.advance()
            inner = self.unary()
            return lambda args: -inner(args)
        return self.power()

    def power(self) -> Callable:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return _binary("^", base, self.unary())  # right-associative
        return base

    def atom(self) -> Callable:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.value)
            return lambda args: value
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            name = tok.value
            if name in _FUNCTIONS:
                self.expect("(")
                operand = self.expr()
                self.expect(")")
                fn = _FUNCTIONS[name]
                return lambda args: fn(operand(args))
            if name in self.names:
                k = self.names.index(name)
                return lambda args: args[k]
            raise ExpressionError(
                f"unknown name {name!r}: only {list(self.names)} are allowed", tok.pos
            )
        got = repr(tok.value) if tok.kind != "end" else "end of input"
        raise ExpressionError(f"expected a value, found {got}", tok.pos)


class Expression:
    """Compiled expression over the variables ``names``; called with their
    values as positional arguments, in that order."""

    def __init__(self, text: str, names: tuple):
        self.text = text
        self.names = names
        self._root = _Parser(text, names).parse()

    def __call__(self, *values):
        if len(values) != len(self.names):
            raise TypeError(f"{self!r} takes the values of {list(self.names)}, "
                            f"got {len(values)}")
        return self._root(values)

    def __repr__(self):
        return f"Expression({self.text!r})"


def expression_parse(text: str, names: tuple) -> Expression:
    """Parse ``text`` into a deterministic evaluator of the variables
    ``names`` (see module docstring)."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    return Expression(text, tuple(names))
