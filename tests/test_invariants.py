"""Soundness of the count potential of ``qtrw.invariants``: h(d) never
exceeds the distance of two terms whose counts differ by d, its two rates
are feasible points of the dual of the marking equation's LP, and it is
defined only where the tensor adds and every step weighs its rule's
weight."""

import itertools
import random
from pathlib import Path

from qtrw import invariants
from qtrw.dsl import parse_system, parse_term
from qtrw.qtrs import one_step
from qtrw.systems import (
    DNA_BASES,
    dna_term,
    make_dna,
    oracle_hamming,
    oracle_levenshtein,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _h(sys, s, t):
    """h(#s − #t) on ``sys``."""
    return sys.potential(invariants.gap(s, invariants.counts(t, -1)))


def _pairs(seed, equal_length):
    rng = random.Random(seed)
    for _ in range(300):
        n = rng.randrange(8)
        m = n if equal_length else rng.randrange(8)
        yield ("".join(rng.choice(DNA_BASES) for _ in range(n)),
               "".join(rng.choice(DNA_BASES) for _ in range(m)))


def test_the_potential_never_exceeds_the_edit_distance():
    lev = make_dna("levenshtein")
    tight = 0
    for s, t in _pairs("potential-levenshtein", False):
        h = _h(lev, dna_term(s), dna_term(t))
        assert h <= oracle_levenshtein(s, t), (s, t)
        assert h == _h(lev, dna_term(t), dna_term(s)), (s, t)
        tight += h == oracle_levenshtein(s, t)
    assert tight > 0


def test_the_potential_never_exceeds_the_mismatch_count():
    ham = make_dna("hamming")
    for s, t in _pairs("potential-hamming", True):
        h = _h(ham, dna_term(s), dna_term(t))
        assert h <= oracle_hamming(s, t), (s, t)
    # two mismatches that swap two bases change no count
    assert _h(ham, dna_term("AC"), dna_term("CA")) == 0
    assert _h(ham, dna_term("AA"), dna_term("CC")) == 2


def _samples():
    for path in sorted(SAMPLES.glob("*.qtrs")):
        yield path.stem, parse_system(path.read_text())


def test_both_rates_are_feasible_dual_points_on_every_sample():
    """|y·δ_r| ≤ w_r for every rule r, for y = λ·1 and for y = μ on any
    set of families, and each rate is the largest so: some rule pays it in
    full."""
    defined = set()
    for name, sys in _samples():
        h = sys.potential
        if h is None:
            continue
        defined.add(name)
        families = [f.name for f in sys.signature]
        size_tight = count_tight = False
        for rule in sys.rules:
            delta, w = rule.delta, rule.weight
            change = sum(delta.values())
            assert h.size_rate * abs(change) <= w, (name, rule.rid)
            size_tight |= change != 0 and h.size_rate * abs(change) == w
            for k in range(len(families) + 1):
                for chosen in itertools.combinations(families, k):
                    moved = abs(sum(delta.get(f, 0) for f in chosen))
                    assert h.count_rate * moved <= w, (name, rule.rid, chosen)
                    count_tight |= moved != 0 and h.count_rate * moved == w
        assert size_tight or h.size_rate == 0, name
        assert count_tight or h.count_rate == 0, name
    assert defined == {"dna-levenshtein", "dna-hamming", "tick"}


def test_a_move_prices_the_target_it_would_build():
    """h at a term's gap moved by a step's rule and direction is h at the
    gap of the step's target, for every step forward and backward."""
    rng = random.Random("potential-moves")
    for variant in ("levenshtein", "hamming"):
        sys = make_dna(variant)
        h = sys.potential
        for _ in range(20):
            x = dna_term("".join(rng.choice(DNA_BASES)
                                 for _ in range(rng.randrange(5))))
            other = invariants.counts(dna_term("".join(
                rng.choice(DNA_BASES) for _ in range(rng.randrange(5)))), -1)
            g = invariants.gap(x, other)
            for backward in (False, True):
                for step in one_step(sys, x, backward=backward):
                    assert h(g, (step.rule_id, backward)) == h(
                        invariants.gap(step.target, other)), str(step)


def test_a_terms_variables_are_not_counted():
    lev = make_dna("levenshtein")

    def term(src):
        return parse_term(src, lev.signature)

    assert invariants.counts(term("A(C(x))")) == {"A": 1, "C": 1}
    assert invariants.counts(term("A(x)"), -1, {"A": 1}) == {"A": 0}
    # x on one side only: one A to remove, and x is free
    assert _h(lev, term("A(x)"), term("y")) == 1
    assert _h(lev, term("A(C(x))"), term("G(x)")) == 2
