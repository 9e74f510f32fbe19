"""Tests for distance search, normalization, and witness checking."""

import random
from fractions import Fraction

import pytest

from qtrw.search import (
    BUDGET_EXHAUSTED,
    EXACT,
    UNREACHABLE,
    UPPER_BOUND,
    DistanceAnswer,
    SearchBudget,
    convertibility_distance,
    epsilon_reachability,
    normalize,
    reachability,
    reduction_distance,
    strategy_path,
    validate_witness,
    valley_distance,
)
from qtrw.systems import (
    DNA_BASES,
    dna_term,
    make_dna,
    make_nat,
    nat_term,
    oracle_hamming,
    oracle_levenshtein,
)
from qtrw.qtrs import one_step
from qtrw.term import Application, Symbol, term_key


def _add(a, b):
    return Application(Symbol("A", 2), (a, b))


NAT_BUDGET = SearchBudget(max_expanded=5000, max_depth=20, max_term_size=8)


def _dna_budget(*strings):
    cap = max(len(s) for s in strings) + 1
    return SearchBudget(max_expanded=200000, max_depth=30, max_term_size=cap)


# ---------------------------------------------------------------------------
# reduction distance


def test_reduction_distance_zero_cost_computation():
    sys = make_nat()
    ans = reduction_distance(sys, _add(nat_term(2), nat_term(3)), nat_term(5))
    assert ans.kind == EXACT and ans.value == Fraction(0)
    assert validate_witness(sys, _add(nat_term(2), nat_term(3)), nat_term(5),
                            ans.witness)


def test_reduction_distance_counts_deletions():
    sys = make_nat()
    ans = reduction_distance(sys, nat_term(3), nat_term(1))
    assert ans.kind == EXACT and ans.value == Fraction(2)
    assert len(ans.witness) == 2
    assert all(w.direction == "forward" for w in ans.witness)


def test_reduction_distance_unreachable():
    sys = make_nat()
    # numerals only shrink under forward rewriting
    ans = reduction_distance(sys, nat_term(1), nat_term(3))
    assert ans.kind == UNREACHABLE and ans.value is None


# ---------------------------------------------------------------------------
# convertibility and valley distances


def test_convertibility_matches_absolute_difference():
    sys = make_nat()
    for n in range(5):
        for m in range(5):
            ans = convertibility_distance(sys, nat_term(n), nat_term(m),
                                          NAT_BUDGET)
            assert ans.value == Fraction(abs(n - m)), (n, m)
            assert validate_witness(sys, nat_term(n), nat_term(m), ans.witness)


def test_valley_distance_on_numerals():
    sys = make_nat()
    ans = valley_distance(sys, nat_term(2), nat_term(4), NAT_BUDGET)
    assert ans.value == Fraction(2)
    assert validate_witness(sys, nat_term(2), nat_term(4), ans.witness)


def test_levenshtein_small_pairs():
    sys = make_dna("levenshtein")
    rng = random.Random("lev-small")
    pairs = [("", "A"), ("A", "A"), ("AC", "CA"), ("ACG", "")]
    for _ in range(12):
        n, m = rng.randrange(4), rng.randrange(4)
        pairs.append(("".join(rng.choice(DNA_BASES) for _ in range(n)),
                      "".join(rng.choice(DNA_BASES) for _ in range(m))))
    for s, t in pairs:
        ans = convertibility_distance(sys, dna_term(s), dna_term(t),
                                      _dna_budget(s, t))
        assert ans.value == Fraction(oracle_levenshtein(s, t)), (s, t)


def test_hamming_distances_and_unreachability():
    sys = make_dna("hamming")
    rng = random.Random("ham-small")
    for _ in range(10):
        n = rng.randrange(1, 5)
        s = "".join(rng.choice(DNA_BASES) for _ in range(n))
        t = "".join(rng.choice(DNA_BASES) for _ in range(n))
        ans = convertibility_distance(sys, dna_term(s), dna_term(t),
                                      _dna_budget(s, t))
        assert ans.kind == EXACT
        assert ans.value == Fraction(oracle_hamming(s, t))
    ans = convertibility_distance(sys, dna_term("AC"), dna_term("ACG"),
                                  _dna_budget("AC", "ACG"))
    assert ans.kind == UNREACHABLE and ans.value is None


# ---------------------------------------------------------------------------
# budgets and tri-state queries


def test_budget_exhaustion_reported():
    sys = make_nat()
    ans = convertibility_distance(sys, nat_term(0), nat_term(6),
                                  SearchBudget(max_expanded=3, max_depth=30))
    assert ans.kind == BUDGET_EXHAUSTED and ans.value is None


def test_reachability_tristate():
    nat = make_nat()
    assert reachability(nat, nat_term(1), nat_term(3), NAT_BUDGET) == "reachable"
    ham = make_dna("hamming")
    assert reachability(ham, dna_term("A"), dna_term("AC"),
                        _dna_budget("A", "AC")) == "unreachable"
    assert reachability(nat, nat_term(0), nat_term(6),
                        SearchBudget(max_expanded=3)) == "unknown"


def test_epsilon_reachability():
    sys = make_nat()
    s, t = nat_term(0), nat_term(2)
    assert epsilon_reachability(sys, s, t, Fraction(2), NAT_BUDGET) == "true"
    assert epsilon_reachability(sys, s, t, Fraction(3), NAT_BUDGET) == "true"
    assert epsilon_reachability(sys, s, t, Fraction(1), NAT_BUDGET) != "true"
    ham = make_dna("hamming")
    assert epsilon_reachability(ham, dna_term("A"), dna_term("AC"),
                                Fraction(5), _dna_budget("A", "AC")) == "false"


# ---------------------------------------------------------------------------
# normalization


def test_normalize_deterministic_strategies():
    sys = make_nat()
    t = _add(nat_term(1), nat_term(2))
    for strategy in ("leftmost-innermost", "leftmost-outermost"):
        res = normalize(sys, t, strategy)
        assert not res.exhausted
        ((nf, weight),) = res.normal_forms
        assert term_key(nf) == term_key(nat_term(0))  # Z is the only NF
        assert sys.quantale.is_value(weight)


def test_normalize_all_keeps_best_weight():
    sys = make_nat()
    res = normalize(sys, _add(nat_term(1), nat_term(2)), "all")
    assert not res.exhausted
    ((nf, weight),) = res.normal_forms
    assert term_key(nf) == term_key(nat_term(0))
    assert weight == Fraction(3)  # delete three successors, additions free


def test_normalize_finds_normal_form_exactly_max_depth_away():
    sys = make_nat()
    t = _add(nat_term(1), nat_term(2))  # four steps from Z at best weight 3
    for strategy in ("leftmost-innermost", "all"):
        res = normalize(sys, t, strategy, SearchBudget(max_depth=4))
        assert not res.exhausted
        ((nf, weight),) = res.normal_forms
        assert term_key(nf) == term_key(nat_term(0)) and weight == 3
        short = normalize(sys, t, strategy, SearchBudget(max_depth=3))
        assert short.exhausted and short.normal_forms == ()


def test_strategy_path_picks_leftmost_innermost_or_outermost_redexes():
    sys = make_nat()
    t = _add(nat_term(1), nat_term(1))
    inner = list(strategy_path(sys, t, "leftmost-innermost"))
    outer = list(strategy_path(sys, t, "leftmost-outermost"))
    for path in (inner, outer):
        assert one_step(sys, path[-1].target) == []
        assert all(a.target == b.source for a, b in zip(path, path[1:]))
    # S(Z) inside A(S(Z), S(Z)) is innermost; addS at the root is outermost
    assert inner[0].position == (1,) and inner[0].rule_id == "sdel"
    assert outer[0].position == () and outer[0].rule_id == "addS"
    for step in inner + outer:
        alternatives = one_step(sys, step.source)
        depth = len(step.position)
        assert step in alternatives
        if step in inner:
            assert depth == max(len(s.position) for s in alternatives)
        if step in outer:
            assert depth == min(len(s.position) for s in alternatives)


def test_strategy_path_rejects_unknown_strategy_at_once():
    with pytest.raises(ValueError):
        strategy_path(make_nat(), nat_term(1), "outside-in")


def test_normalize_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        normalize(make_nat(), nat_term(1), "outside-in")


# ---------------------------------------------------------------------------
# witnesses


def test_witness_validation_rejects_tampering():
    sys = make_nat()
    s, t = nat_term(3), nat_term(1)
    ans = reduction_distance(sys, s, t)
    assert validate_witness(sys, s, t, ans.witness)
    assert not validate_witness(sys, s, nat_term(2), ans.witness)
    cheaper = [w.__class__(w.direction, w.source, w.target, w.position,
                           w.rule_id, Fraction(0)) for w in ans.witness]
    assert not validate_witness(sys, s, t, cheaper)


def test_answer_json_round_trip():
    import json

    sys = make_nat()
    ans = convertibility_distance(sys, nat_term(2), nat_term(0), NAT_BUDGET)
    payload = json.loads(ans.to_json(sys.quantale.format_value))
    assert payload["kind"] in (EXACT, UPPER_BOUND)
    assert payload["value"] == "2"
    assert len(payload["witness"]) == 2
