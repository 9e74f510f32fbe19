"""A side search prices each move's potential once per expansion
(``_SideSearch._h``), and every tie it pushes is the one read from
scratch off the step's source and rule."""

import pytest

from qtrw import invariants, search
from qtrw.search import convertibility_distance
from qtrw.systems import dna_term, make_dna

PAIRS = [("ACGTAC", "TTGCA"), ("GATTACA", "GATCACA"), ("ACGT", "TGCA"),
         ("AAAA", "CCCC"), ("CAT", "ACGTT")]


@pytest.mark.parametrize("variant", ["levenshtein", "hamming"])
def test_every_tie_is_the_potential_read_from_scratch(monkeypatch, variant):
    pushed, priced, calls = [], set(), []
    push, h_of = search._SideSearch._push, search._SideSearch._h
    call = invariants.Potential.__call__

    def recording_push(self, term, label, tie=0):
        pushed.append((self, label[2], tie))
        push(self, term, label, tie)

    def recording_h(self, term, move=None):
        priced.add((self, term, move))
        return h_of(self, term, move)

    def counted_call(self, g, move=None):
        calls.append(move)
        return call(self, g, move)

    monkeypatch.setattr(search._SideSearch, "_push", recording_push)
    monkeypatch.setattr(search._SideSearch, "_h", recording_h)
    monkeypatch.setattr(invariants.Potential, "__call__", counted_call)
    sys = make_dna(variant)
    h = sys.potential
    assert h is not None
    steps = 0
    for s, t in PAIRS:
        if variant == "hamming" and len(s) != len(t):
            continue
        convertibility_distance(sys, dna_term(s), dna_term(t))
    for side, step, tie in pushed:
        if step is None:
            assert tie == 0
            continue
        steps += 1
        move = (step.rule_id, step.direction == "backward")
        want = call(h, invariants.gap(step.source,
                                      invariants.counts(side.other, -1)),
                    move)
        assert tie == want and type(tie) is type(want), (step, tie, want)
    # each (side, expanded term, move) is priced once, however many steps
    # and pruned branches share it
    assert steps > len(calls) == len(priced) > 0
