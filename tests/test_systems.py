"""Tests for the bundled system catalog and the reference oracles."""

import dataclasses
import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qtrw import qtrs, systems
from qtrw.dsl import parse_system, parse_term
from qtrw.qtrs import (Rule, RewriteSystem, _renamed, critical_pairs,
                       one_step, subterm_pool)
from qtrw.search import _relaxations
from qtrw.systems import (
    CATALOG,
    DNA_BASES,
    dna_string,
    dna_term,
    make_barycentric,
    make_bck,
    make_bck_nat,
    make_bck_w,
    make_dna,
    make_graded_combinators,
    make_linearity_example,
    make_nat,
    make_semilattice,
    nat_term,
    oracle_abs_diff,
    oracle_hamming,
    oracle_levenshtein,
)
from qtrw.term import term_key, term_size

from test_cli_golden import SEEDS

_table_of = qtrs._RuleTable.of


def test_catalog_entries_construct():
    for name, make in CATALOG.items():
        base = make()
        assert isinstance(base, RewriteSystem)
        assert base.rules, name
        rids = [r.rid for r in base.rules]
        assert len(rids) == len(set(rids)), name
        if base.has_schemas:
            ground = base.instantiate()
            assert ground.rules and not ground.has_schemas, name


def _rendered_peaks(sysm):
    fmt = sysm.quantale.format_value
    return [(term_key(p.source), term_key(p.left[0]), fmt(p.left[1]),
             term_key(p.right[0]), fmt(p.right[1]), p.position,
             p.inner_rule, p.outer_rule) for p in critical_pairs(sysm)]


def _rendered_steps(sysm, t, pool=None, backward=False):
    return [(term_key(s.target), s.weight, s.position, s.rule_id)
            for s in one_step(sysm, t, pool, backward=backward)]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_rules_built_in_code_behave_like_loaded_ones(name):
    # a rule reads its schema parameters off itself, so the same rule built
    # without the parser has the same parameters, peaks and steps
    loaded = CATALOG[name]()
    built = RewriteSystem(
        loaded.name, loaded.quantale, loaded.signature,
        tuple(Rule(r.rid, r.lhs, r.rhs, r.weight, conditions=r.conditions)
              for r in loaded.rules),
        loaded.grid)
    assert [r.params for r in built.rules] == [r.params for r in loaded.rules]
    assert _rendered_peaks(built) == _rendered_peaks(loaded)
    seed = parse_term(SEEDS[name], loaded.signature)
    assert _rendered_steps(built, seed) == _rendered_steps(loaded, seed)


def test_each_call_builds_a_fresh_system():
    for make in (make_nat, make_barycentric, make_bck, make_bck_nat,
                 make_bck_w, make_semilattice, make_graded_combinators,
                 make_linearity_example, make_dna,
                 lambda: make_dna("hamming"),
                 lambda: make_dna("eigen_mccaskill")):
        first, second = make(), make()
        assert first == second and first is not second, first.name
        assert first.relaxations is not second.relaxations, first.name


@pytest.mark.usefixtures("fresh_catalog")
def test_copies_compile_the_rules_once(monkeypatch):
    tables, renamings = [], []
    monkeypatch.setattr(qtrs._RuleTable, "of", classmethod(
        lambda cls, *args: tables.append(args) or _table_of(*args)))
    monkeypatch.setattr(qtrs, "_renamed",
                        lambda *ts: renamings.append(ts) or _renamed(*ts))
    t = dna_term("ACGT")
    for i in range(5):
        sysm = make_dna()
        assert "forward" not in vars(sysm)
        assert "self_inverse" not in vars(sysm)
        assert one_step(sysm, t, backward=bool(i % 2))
        assert sysm.self_inverse and sysm.invariants and sysm.potential
        if i == 0:
            once = len(renamings)
    # forward and backward once each; 2 renamings per rule, once
    assert len(tables) == 2
    assert once == len(renamings) == 2 * len(sysm.rules)


def test_copies_own_their_step_caches():
    copies = [make_dna() for _ in range(3)]
    copies.append(copies[0].copy())
    assert len({id(s.relaxations) for s in copies}) == 4
    t, pool = dna_term("AC"), subterm_pool(dna_term("AC"))
    assert _relaxations(copies[0], True, t, pool).steps
    assert [len(s.relaxations) for s in copies] == [1, 0, 0, 0]


def _compiled_values(sysm, seed):
    pool = subterm_pool(seed)
    return ([_rendered_steps(sysm, seed, pool, backward)
             for backward in (False, True)],
            _rendered_peaks(sysm), sysm.self_inverse, sysm.invariants,
            None if sysm.potential is None else (
                sysm.potential.size_rate, sysm.potential.count_rate,
                sysm.potential.deltas))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_copies_before_and_after_first_use_agree(name):
    text = (systems.SAMPLES / f"{name}.qtrs").read_text()
    original = parse_system(text)
    early = original.copy()
    seed = parse_term(SEEDS[name], original.signature)
    first = _compiled_values(original, seed)
    late = original.copy()
    assert early == late == original
    assert (_compiled_values(early, seed) == _compiled_values(late, seed)
            == first)
    # nothing shared: the same values, compiled anew
    assert _compiled_values(parse_system(text), seed) == first


def test_a_replaced_grid_builds_its_own_backward_table():
    sysm = make_barycentric()
    wide = sysm.backward
    grid = (Fraction(0), Fraction(1, 2), Fraction(1))
    narrow = dataclasses.replace(sysm, grid=grid).backward
    # comm's right-hand side +{(1 - e)} is inverted instance by instance
    text = (systems.SAMPLES / "barycentric.qtrs").read_text().replace(
        "option grid 0 1/4 1/3 1/2 2/3 3/4 1", "option grid 0 1/2 1")
    assert narrow is not wide and narrow == parse_system(text).backward
    assert ([r.rid for r in narrow.by_root["+"]].count("comm")
            < [r.rid for r in wide.by_root["+"]].count("comm"))


def test_unknown_dna_variant_is_rejected():
    with pytest.raises(ValueError, match="unknown DNA variant 'rna'"):
        make_dna("rna")


def test_nat_and_dna_encodings():
    assert term_size(nat_term(0)) == 1
    assert term_size(nat_term(3)) == 4
    for s in ("", "A", "ACGT"):
        assert dna_string(dna_term(s)) == s
    assert term_key(dna_term("AC")) != term_key(dna_term("CA"))


def _naive_levenshtein(s: str, t: str) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(s):
            return len(t) - j
        if j == len(t):
            return len(s) - i
        return min(rec(i + 1, j) + 1,
                   rec(i, j + 1) + 1,
                   rec(i + 1, j + 1) + (s[i] != t[j]))

    return rec(0, 0)


def test_levenshtein_oracle_against_naive_recursion():
    rng = random.Random("oracle-lev")
    cases = [("", ""), ("", "ACG"), ("AAAA", "AA"), ("ACGT", "TGCA")]
    for _ in range(60):
        n, m = rng.randrange(6), rng.randrange(6)
        cases.append(("".join(rng.choice(DNA_BASES) for _ in range(n)),
                      "".join(rng.choice(DNA_BASES) for _ in range(m))))
    for s, t in cases:
        assert oracle_levenshtein(s, t) == _naive_levenshtein(s, t), (s, t)


def test_levenshtein_oracle_is_a_metric():
    rng = random.Random("oracle-metric")
    words = ["".join(rng.choice(DNA_BASES) for _ in range(rng.randrange(5)))
             for _ in range(8)]
    for s, t, u in itertools.product(words, repeat=3):
        d = oracle_levenshtein
        assert d(s, t) == d(t, s)
        assert (d(s, t) == 0) == (s == t)
        assert d(s, u) <= d(s, t) + d(t, u)


def test_hamming_oracle():
    assert oracle_hamming("", "") == 0
    assert oracle_hamming("ACG", "ACG") == 0
    assert oracle_hamming("ACG", "ATG") == 1
    assert oracle_hamming("AC", "ACG") is None
    rng = random.Random("oracle-ham")
    for _ in range(40):
        n = rng.randrange(7)
        s = "".join(rng.choice(DNA_BASES) for _ in range(n))
        t = "".join(rng.choice(DNA_BASES) for _ in range(n))
        expected = sum(a != b for a, b in zip(s, t))
        assert oracle_hamming(s, t) == expected
        assert oracle_levenshtein(s, t) <= expected


def test_abs_diff_oracle():
    for n in range(7):
        for m in range(7):
            assert oracle_abs_diff(n, m) == abs(n - m)


def test_dna_variants_differ():
    lev = make_dna("levenshtein")
    ham = make_dna("hamming")
    eigen = make_dna("eigen_mccaskill")
    lev_ids = {r.rid.split("[")[0] for r in lev.rules}
    ham_ids = {r.rid.split("[")[0] for r in ham.rules}
    # hamming keeps substitutions only: no insertions or deletions
    assert ham_ids < lev_ids
    # transitions within a purine/pyrimidine class mutate for free
    weights = {r.rid: r.weight for r in eigen.rules}
    assert weights["mutAG"] == Fraction(0)
    assert weights["mutCT"] == Fraction(0)
    assert weights["mutAC"] == Fraction(1)
