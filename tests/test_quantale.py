"""Property tests for the quantale laws on every shipped instance.

The exhaustive sweep checks every law on 1000 deterministically sampled
value triples per instance; the hypothesis tests re-run the same laws under
adversarial shrinking at a smaller example count.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtrw.quantale import (
    INF,
    QUANTALES,
    QuantaleError,
    get_quantale,
    parse_rational,
    require_lawverian,
)

INSTANCES = sorted(QUANTALES)


def _sample(name, rng):
    if name == "bool":
        return rng.random() < 0.5
    if name == "nat-inf":
        return INF if rng.random() < 0.1 else Fraction(rng.randrange(0, 30))
    if name.startswith("fuzzy"):
        return Fraction(rng.randrange(0, 13), 12)
    if rng.random() < 0.1:
        return INF
    return Fraction(rng.randrange(0, 61), rng.randrange(1, 7))


def _check_laws(q, a, b, c):
    # commutative monoid with unit
    assert q.tensor(a, b) == q.tensor(b, a)
    assert q.tensor(q.tensor(a, b), c) == q.tensor(a, q.tensor(b, c))
    assert q.tensor(a, q.unit) == a
    # partial order with top and bottom
    assert q.leq(a, a)
    if q.leq(a, b) and q.leq(b, a):
        assert a == b
    if q.leq(a, b) and q.leq(b, c):
        assert q.leq(a, c)
    assert q.leq(q.bottom, a) and q.leq(a, q.top)
    # monotone, integral tensor; unit = top
    if q.leq(a, b):
        assert q.leq(q.tensor(a, c), q.tensor(b, c))
    assert q.leq(q.tensor(a, b), a)
    assert q.unit == q.top
    # distributivity over binary and empty joins
    assert q.tensor(a, q.join2(b, c)) == q.join2(q.tensor(a, b), q.tensor(a, c))
    assert q.join(()) == q.bottom
    assert q.tensor(a, q.bottom) == q.bottom
    # adjunction, all three directions on the sampled triple
    r = q.residual(a, b)
    assert q.leq(q.tensor(a, r), b)
    if q.leq(q.tensor(a, c), b):
        assert q.leq(c, r)
    if q.leq(c, r):
        assert q.leq(q.tensor(a, c), b)
    # flags
    if q.idempotent:
        assert q.tensor(a, a) == a
    if q.lawverian and q.tensor(a, b) == q.bottom:
        assert a == q.bottom or b == q.bottom
    assert q.unit != q.bottom
    # ascending sort keys enumerate values in descending lattice order
    if q.leq(a, b):
        assert q.sort_key(b) <= q.sort_key(a)
    assert q.totally_ordered and (q.leq(a, b) or q.leq(b, a))


@pytest.mark.parametrize("name", INSTANCES)
def test_law_sweep_1000_samples(name):
    q = QUANTALES[name]
    rng = random.Random(f"laws-{name}")
    for _ in range(1000):
        a, b, c = (_sample(name, rng) for _ in range(3))
        _check_laws(q, a, b, c)


_rationals = st.fractions(min_value=0, max_value=100)
_cost_values = st.one_of(_rationals, st.just(INF))
_unit_values = st.fractions(min_value=0, max_value=1)

VALUE_STRATEGIES = {
    "bool": st.booleans(),
    "lawvere": _cost_values,
    "strong-lawvere": _cost_values,
    "nat-inf": st.one_of(
        st.integers(min_value=0, max_value=100).map(Fraction), st.just(INF)),
    "fuzzy-product": _unit_values,
    "fuzzy-lukasiewicz": _unit_values,
    "fuzzy-godel": _unit_values,
}


@pytest.mark.parametrize("name", INSTANCES)
@settings(deadline=None)
@given(data=st.data())
def test_laws_hypothesis(name, data):
    q = QUANTALES[name]
    v = VALUE_STRATEGIES[name]
    a, b, c = data.draw(st.tuples(v, v, v))
    _check_laws(q, a, b, c)


def test_idempotent_witnesses():
    for name in ("strong-lawvere", "bool", "fuzzy-godel"):
        assert QUANTALES[name].idempotent
    for name in ("lawvere", "nat-inf", "fuzzy-product"):
        q = QUANTALES[name]
        assert not q.idempotent
        half = Fraction(1, 2) if name == "fuzzy-product" else Fraction(1)
        assert q.tensor(half, half) != half  # concrete witness


def test_shipped_examples():
    L = QUANTALES["lawvere"]
    assert L.leq(Fraction(3), Fraction(1))
    assert L.tensor(Fraction(2), Fraction(3)) == Fraction(5)
    assert QUANTALES["strong-lawvere"].tensor(Fraction(2), Fraction(3)) == Fraction(3)
    assert L.join([Fraction(2), Fraction(5), Fraction(3)]) == Fraction(2)
    assert L.residual(Fraction(2), Fraction(5)) == Fraction(3)
    assert L.residual(Fraction(5), Fraction(2)) == Fraction(0)
    B = QUANTALES["bool"]
    assert B.leq(False, True)
    assert B.residual(True, False) is False
    P = QUANTALES["fuzzy-product"]
    assert P.leq(Fraction(3, 10), Fraction(7, 10))


def test_value_parsing_and_formatting():
    L = QUANTALES["lawvere"]
    assert parse_rational("inf") is INF
    assert parse_rational("1/2") == Fraction(1, 2)
    assert L.parse_value("0.25") == Fraction(1, 4)
    assert L.format_value(INF) == "inf"
    assert L.format_value(Fraction(1, 2)) == "1/2"
    with pytest.raises(QuantaleError):
        L.check_value(Fraction(-1))
    with pytest.raises(QuantaleError):
        QUANTALES["fuzzy-product"].check_value(Fraction(2))


COSTS = ("lawvere", "strong-lawvere", "nat-inf")


@pytest.mark.parametrize("name", COSTS)
def test_integral_costs_are_plain_ints(name):
    q = QUANTALES[name]
    for v in (q.unit, q.top, q.parse_value("3"), q.parse_value(" 4/2 "),
              q.residual(Fraction(2), 5), q.residual(Fraction(5), 2),
              q.residual(INF, INF), q.sort_key(INF)[1]):
        assert type(v) is int, v
    if name != "strong-lawvere":  # truncated subtraction
        assert type(q.residual(Fraction(1, 2), Fraction(5, 2))) is int
    assert q.parse_value("inf") is INF
    assert type(q.parse_value("-1")) is Fraction  # rejected with its repr
    assert not q.is_value(q.parse_value("-1"))
    assert not q.is_value(True) and not q.is_value(False)
    assert q.is_value(7) and q.is_value(Fraction(7))
    if name != "nat-inf":
        assert q.parse_value("1/2") == Fraction(1, 2)
        assert q.is_value(Fraction(1, 2))
    assert q.format_value(q.parse_value("6/3")) == "2"


@pytest.mark.parametrize("name", COSTS)
def test_laws_hold_across_int_and_fraction_costs(name):
    q = QUANTALES[name]
    rng = random.Random(f"mixed-{name}")
    for _ in range(300):
        a, b, c = (_sample(name, rng) for _ in range(3))
        a, b = (v if v is INF or v.denominator != 1 else int(v)
                for v in (a, b))
        _check_laws(q, a, b, c)


def test_other_instances_keep_their_types():
    assert QUANTALES["bool"].parse_value("1") is True
    for name in ("fuzzy-product", "fuzzy-lukasiewicz", "fuzzy-godel"):
        q = QUANTALES[name]
        assert type(q.unit) is Fraction
        assert type(q.parse_value("1")) is Fraction


def test_instance_registry_and_lawverian_gate():
    assert set(INSTANCES) == {
        "bool", "lawvere", "strong-lawvere", "nat-inf",
        "fuzzy-product", "fuzzy-lukasiewicz", "fuzzy-godel"}
    assert get_quantale("lawvere") is QUANTALES["lawvere"]
    with pytest.raises(QuantaleError):
        get_quantale("tropical")
    with pytest.raises(QuantaleError):
        require_lawverian(QUANTALES["fuzzy-lukasiewicz"], "star")
    require_lawverian(QUANTALES["lawvere"], "star")
    with pytest.raises(QuantaleError):
        QUANTALES["lawvere"].check_same(QUANTALES["bool"])
