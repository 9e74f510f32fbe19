"""Quantity lattices: the algebraic structures all weights and distances live in.

A quantity lattice here is a commutative, integral (unit = top), non-trivial
ordered monoid with finite joins and a residual operation adjoint to the
tensor.  All shipped instances are totally ordered.  The cost-style instances
("lawvere", "strong-lawvere", "nat-inf") carry exact non-negative rationals
plus a distinguished infinity; no floating point is ever involved.  Their
integral values are made plain ``int``s where this module creates them
(parsed literals, the unit, residuals), since ``int`` arithmetic is far
cheaper than ``Fraction``'s; other rationals stay ``Fraction``s, and the two
types compare, hash and print alike.

Beware the order convention on the cost-style instances: ``leq(a, b)`` holds
iff ``a >= b`` numerically (smaller costs sit higher in the lattice), joins
are numeric infima, and the bottom element is infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Optional, TypeAlias, Union


class QuantaleError(Exception):
    """Raised on instance mismatches or unsupported instance operations."""


class _Infinity:
    """The distinguished top cost.  Compares above every rational."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Infinity)

    def __hash__(self) -> int:
        return hash("qtrw.inf")

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return isinstance(other, _Infinity)

    def __gt__(self, other: object) -> bool:
        return not isinstance(other, _Infinity)

    def __ge__(self, other: object) -> bool:
        return True


INF = _Infinity()

# a string, as ``typing`` would cache the alias with this import's classes
Value: TypeAlias = "Union[bool, int, Fraction, _Infinity]"


def _cost(v: Value) -> Value:
    """``v``, as an ``int`` when it is a non-negative integer."""
    if v is not INF and v >= 0 and v.denominator == 1:
        return int(v)
    return v


def _ext_add(a: Value, b: Value) -> Value:
    if a is INF or b is INF:
        return INF
    return a + b


def _ext_max(a: Value, b: Value) -> Value:
    return a if a >= b else b


def _ext_sub(b: Value, a: Value) -> Value:
    """Truncated subtraction b - a on [0, inf]."""
    if b is INF:
        return 0 if a is INF else INF
    if a is INF:
        return 0
    return _cost(b - a) if b > a else 0


@dataclass(frozen=True)
class QuantaleSpec:
    """One concrete quantity lattice: order, tensor, unit, joins, residual.

    ``lawverian`` records integrality + cointegrality + non-triviality, the
    ambient assumption needed by iteration/closure operations.  ``sort_key``
    maps a value to something ``heapq``-orderable so that popping ascending
    keys visits values in descending lattice order (best first).
    """

    name: str
    unit: Value
    bottom: Value
    top: Value
    leq: Callable[[Value, Value], bool]
    tensor: Callable[[Value, Value], Value]
    residual: Callable[[Value, Value], Value]
    idempotent: bool
    totally_ordered: bool
    lawverian: bool
    sort_key: Callable[[Value], object]
    is_value: Callable[[Value], bool]
    format_value: Callable[[Value], str]
    parse_value: Callable[[str], Value]

    def check_value(self, v: Value) -> Value:
        if not self.is_value(v):
            raise QuantaleError(f"{v!r} is not a value of quantale {self.name}")
        return v

    def check_same(self, other: "QuantaleSpec") -> None:
        if self.name != other.name:
            raise QuantaleError(
                f"quantale mismatch: {self.name} vs {other.name}")

    def join(self, values: Iterable[Value]) -> Value:
        """Finite join; the empty join is the bottom element."""
        out = self.bottom
        for v in values:
            out = self.join2(out, v)
        return out

    def join2(self, a: Value, b: Value) -> Value:
        if self.leq(a, b):
            return b
        if self.leq(b, a):
            return a
        raise QuantaleError(
            f"join of incomparable values in {self.name}")  # pragma: no cover

    def strictly_below(self, a: Value, b: Value) -> bool:
        return self.leq(a, b) and a != b


# ---------------------------------------------------------------------------
# value parsing helpers


def parse_rational(text: str) -> Value:
    text = text.strip()
    if text in ("inf", "INF", "oo"):
        return INF
    return Fraction(text)


def _parse_cost(text: str) -> Value:
    return _cost(parse_rational(text))


def _format_cost(v: Value) -> str:
    if v is INF:
        return "inf"
    return str(v)


def _is_rational(v: Value) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _is_cost(v: Value) -> bool:
    return v is INF or (_is_rational(v) and v >= 0)


def _is_nat_cost(v: Value) -> bool:
    return v is INF or (_is_rational(v) and v >= 0 and v.denominator == 1)


def _is_unit_interval(v: Value) -> bool:
    return isinstance(v, Fraction) and 0 <= v <= 1


def _cost_sort_key(v: Value) -> object:
    # ascending numeric = descending lattice order (0 = unit = top first)
    return (1, 0) if v is INF else (0, v)


def _fuzzy_sort_key(v: Value) -> object:
    # 1 = unit = top must pop first
    return -v


def _bool_sort_key(v: Value) -> object:
    return 0 if v else 1


def _parse_bool(text: str) -> Value:
    text = text.strip().lower()
    if text in ("true", "top", "1"):
        return True
    if text in ("false", "bot", "0"):
        return False
    raise QuantaleError(f"not a boolean quantale literal: {text!r}")


def _parse_unit_interval(text: str) -> Value:
    v = parse_rational(text)
    if not _is_unit_interval(v):
        raise QuantaleError(f"not in [0,1]: {text!r}")
    return v


# ---------------------------------------------------------------------------
# the shipped instances


BOOL = QuantaleSpec(
    name="bool",
    unit=True,
    bottom=False,
    top=True,
    leq=lambda a, b: (not a) or b,
    tensor=lambda a, b: a and b,
    residual=lambda a, b: (not a) or b,
    idempotent=True,
    totally_ordered=True,
    lawverian=True,
    sort_key=_bool_sort_key,
    is_value=lambda v: isinstance(v, bool),
    format_value=lambda v: "true" if v else "false",
    parse_value=_parse_bool,
)

LAWVERE = QuantaleSpec(
    name="lawvere",
    unit=0,
    bottom=INF,
    top=0,
    leq=lambda a, b: a >= b,          # reversed numeric order
    tensor=_ext_add,
    residual=lambda a, b: _ext_sub(b, a),
    idempotent=False,
    totally_ordered=True,
    lawverian=True,
    sort_key=_cost_sort_key,
    is_value=_is_cost,
    format_value=_format_cost,
    parse_value=_parse_cost,
)


def _strong_residual(a: Value, b: Value) -> Value:
    # join {h | max(a,h) >= b numerically} under reversed order = inf of them
    return 0 if a >= b else b


STRONG_LAWVERE = replace(
    LAWVERE,
    name="strong-lawvere",
    tensor=_ext_max,
    residual=_strong_residual,
    idempotent=True,
)

NAT_INF = replace(LAWVERE, name="nat-inf", is_value=_is_nat_cost)

FUZZY_PRODUCT = QuantaleSpec(
    name="fuzzy-product",
    unit=Fraction(1),
    bottom=Fraction(0),
    top=Fraction(1),
    leq=lambda a, b: a <= b,
    tensor=lambda a, b: a * b,
    residual=lambda a, b: Fraction(1) if a == 0 else min(Fraction(1), b / a),
    idempotent=False,
    totally_ordered=True,
    lawverian=True,
    sort_key=_fuzzy_sort_key,
    is_value=_is_unit_interval,
    format_value=str,
    parse_value=_parse_unit_interval,
)

# t-norm max(0, a + b - 1): not cointegral (1/2 (x) 1/2 = 0 with both != 0),
# so operations that need a Lawverian base must reject this instance.
FUZZY_LUKASIEWICZ = replace(
    FUZZY_PRODUCT,
    name="fuzzy-lukasiewicz",
    tensor=lambda a, b: max(Fraction(0), a + b - 1),
    residual=lambda a, b: min(Fraction(1), Fraction(1) - a + b),
    lawverian=False,
)

FUZZY_GODEL = replace(
    FUZZY_PRODUCT,
    name="fuzzy-godel",
    tensor=lambda a, b: min(a, b),
    residual=lambda a, b: Fraction(1) if a <= b else b,
    idempotent=True,
)


QUANTALES = {
    spec.name: spec
    for spec in (
        BOOL,
        LAWVERE,
        STRONG_LAWVERE,
        NAT_INF,
        FUZZY_PRODUCT,
        FUZZY_LUKASIEWICZ,
        FUZZY_GODEL,
    )
}


def get_quantale(name: str) -> QuantaleSpec:
    try:
        return QUANTALES[name]
    except KeyError:
        raise QuantaleError(
            f"unknown quantale {name!r}; known: {', '.join(sorted(QUANTALES))}"
        ) from None


def require_lawverian(spec: QuantaleSpec, operation: str) -> None:
    if not spec.lawverian:
        raise QuantaleError(
            f"{operation} needs a Lawverian (integral, cointegral, non-trivial)"
            f" quantale; {spec.name} is not cointegral")
