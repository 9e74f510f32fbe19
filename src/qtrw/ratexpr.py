"""Tiny exact-rational expression language for rule-schema parameters.

Schema rules carry symbol indices and weights that depend on rational
parameters (``{e1}``, ``{n}`` ...).  Expressions support +, -, *, /, unary
minus, abs(...), rational and decimal literals, and parentheses.  Side
conditions are conjunctions of (chained) comparisons.  Everything evaluates
with ``fractions.Fraction``; there is no floating point.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, FrozenSet, Optional, Pattern, Tuple, TypeAlias,
                    Union)

Env = Dict[str, Fraction]


class ExprError(Exception):
    pass


# the operators by their spelling; "<=" and ">=" are tried before "<" and ">"
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}
_CMP = {"<=": operator.le, ">=": operator.ge, "!=": operator.ne,
        "<": operator.lt, ">": operator.gt, "=": operator.eq}


@dataclass(frozen=True)
class Lit:
    value: Fraction

    def evaluate(self, env: Env) -> Fraction:
        return self.value

    def params(self) -> FrozenSet[str]:
        return frozenset()

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Param:
    name: str

    def evaluate(self, env: Env) -> Fraction:
        try:
            return env[self.name]
        except KeyError:
            raise ExprError(f"unbound parameter {self.name!r}") from None

    def params(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"

    def evaluate(self, env: Env) -> Fraction:
        try:
            return _ARITH[self.op](self.left.evaluate(env),
                                   self.right.evaluate(env))
        except ZeroDivisionError:
            raise ExprError(f"division by zero in {self}") from None

    def params(self) -> FrozenSet[str]:
        return self.left.params() | self.right.params()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Abs:
    arg: "Expr"

    def evaluate(self, env: Env) -> Fraction:
        return abs(self.arg.evaluate(env))

    def params(self) -> FrozenSet[str]:
        return self.arg.params()

    def __str__(self) -> str:
        return f"abs({self.arg})"


# a string, as ``typing`` would cache the alias with this import's classes
Expr: TypeAlias = "Union[Lit, Param, BinOp, Abs]"


@dataclass(frozen=True)
class Comparison:
    """A chained comparison such as ``0 < e1 < 1``; all links must hold."""

    terms: Tuple[Expr, ...]
    ops: Tuple[str, ...]  # len(terms) - 1

    def holds(self, env: Env) -> bool:
        vals = [t.evaluate(env) for t in self.terms]
        return all(_CMP[op](a, b)
                   for op, a, b in zip(self.ops, vals, vals[1:]))

    def params(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for t in self.terms:
            out |= t.params()
        return out

    def __str__(self) -> str:
        parts = [str(self.terms[0])]
        for op, t in zip(self.ops, self.terms[1:]):
            parts.append(f"{op} {t}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing: recursive descent over one scanner, which ``dsl`` shares to read
# terms and the parameter expressions inside their symbols


class _Scanner:
    """A position in ``text``; every read skips whitespace first."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise ExprError(
                f"expected {token!r} at offset {self.pos} in {self.text!r}")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def match(self, pattern: Pattern[str]) -> Optional[str]:
        """Consume and return what ``pattern`` matches here, if anything."""
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()


def _parse_number(sc: _Scanner) -> Expr:
    sc.skip_ws()
    start = sc.pos
    while sc.pos < len(sc.text) and (sc.text[sc.pos].isdigit() or sc.text[sc.pos] == "."):
        sc.pos += 1
    if sc.pos == start:
        raise ExprError(f"expected number at offset {start} in {sc.text!r}")
    try:
        return Lit(Fraction(sc.text[start:sc.pos]))
    except ValueError:
        raise ExprError(f"bad number {sc.text[start:sc.pos]!r} at offset"
                        f" {start} in {sc.text!r}") from None


_NAME_RE = re.compile(r"\w+")  # the characters of str.isalnum(), and "_"


def _parse_name(sc: _Scanner) -> str:
    name = sc.match(_NAME_RE)
    if name is None:
        raise ExprError(f"expected name at offset {sc.pos} in {sc.text!r}")
    return name


def _parse_atom(sc: _Scanner) -> Expr:
    c = sc.peek()
    if c == "(":
        sc.expect("(")
        e = _parse_sum(sc)
        sc.expect(")")
        return e
    if c == "-":
        sc.expect("-")
        return BinOp("-", Lit(Fraction(0)), _parse_atom(sc))
    if c.isdigit() or c == ".":
        return _parse_number(sc)
    name = _parse_name(sc)
    if name == "abs":
        sc.expect("(")
        e = _parse_sum(sc)
        sc.expect(")")
        return Abs(e)
    return Param(name)


def _parse_product(sc: _Scanner) -> Expr:
    e = _parse_atom(sc)
    while True:
        if sc.take("*"):
            e = BinOp("*", e, _parse_atom(sc))
        elif sc.take("/"):
            e = BinOp("/", e, _parse_atom(sc))
        else:
            return e


def _parse_sum(sc: _Scanner) -> Expr:
    e = _parse_product(sc)
    while True:
        sc.skip_ws()
        if sc.take("+"):
            e = BinOp("+", e, _parse_product(sc))
        elif sc.peek() == "-" and not sc.text.startswith("->", sc.pos):
            sc.expect("-")
            e = BinOp("-", e, _parse_product(sc))
        else:
            return e


def parse_expr(text: str) -> Expr:
    sc = _Scanner(text)
    e = _parse_sum(sc)
    if not sc.at_end():
        raise ExprError(f"trailing input at offset {sc.pos} in {text!r}")
    return e


def parse_comparison(text: str) -> Comparison:
    sc = _Scanner(text)
    terms = [_parse_sum(sc)]
    ops = []
    while not sc.at_end():
        for op in _CMP:
            if sc.take(op):
                ops.append(op)
                break
        else:
            raise ExprError(
                f"expected comparison operator at offset {sc.pos} in {text!r}")
        terms.append(_parse_sum(sc))
    if not ops:
        raise ExprError(f"no comparison operator in {text!r}")
    return Comparison(tuple(terms), tuple(ops))
