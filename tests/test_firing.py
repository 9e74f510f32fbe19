"""Rules without parameters fire straight from the rule: ``_rule_matches``
yields for them what the general schema path (``_firing``) yields, and no
query on a system without schemas reaches that path."""

import pytest

from qtrw import qtrs
from qtrw.dsl import parse_system
from qtrw.qtrs import (_rule_matches, critical_pairs, one_step,
                       strong_closure_pass)
from qtrw.search import (SearchBudget, convertibility_distance,
                         reduction_distance)
from qtrw.systems import CATALOG, dna_term, make_dna, make_nat, nat_term
from qtrw.term import Application, Symbol, subterms

from test_qtrs import BOUNDED_PEAKS

# constant conditions: one holds, one fails and one is undefined (1 / 0),
# which ``_firing`` skips as a failed one
CONDITIONS = parse_system("\n".join([
    "system conditions", "quantale lawvere", "symbol f/1", "symbol g/1",
    "symbol a/0",
    "rule holds: f(x) -[1]-> g(x) where 1 < 2",
    "rule fails: f(x) -[2]-> x where 2 < 1",
    "rule undefined: g(x) -[1]-> x where 1 / 0 < 1",
    "rule plain: g(a) -[3]-> a"]))


def _general(sys, rule, sub):
    """How ``rule`` fires on ``sub`` through the general schema path,
    ``_firing``: the reference for rules without parameters."""
    m = qtrs.match(rule.lhs, sub)
    if m is None:
        return []
    sigma, env = m
    return [(sigma, full, w, rhs,
             qtrs._instance_id(rule, full) if rule.params else rule.rid)
            for full, w, (rhs,) in qtrs._firing(sys.quantale, sys.grid, rule,
                                                env, (rule.rhs,))]


def _assert_the_firings_agree(sys, terms):
    """For every subterm of ``terms``, both rule tables and with and without
    a firing memo, ``_rule_matches`` yields what ``_firing`` yields; returns
    how many firings of rules without parameters were compared."""
    plain = 0
    for table in (sys.forward, sys.backward):
        firings = {}
        for t in terms:
            for _, sub in subterms(t):
                rules = table.var_rules
                if isinstance(sub, Application):
                    rules += table.by_root.get(sub.symbol.name, ())
                for rule in rules:
                    want = _general(sys, rule, sub)
                    for memo in (None, firings):
                        got = list(_rule_matches(sys.quantale, sys.grid, rule,
                                                 sub, memo))
                        assert got == want, (rule.rid, str(sub))
                    if not rule.params:
                        plain += len(want)
    return plain


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_rules_without_parameters_fire_as_the_schema_path_does(name):
    sys = CATALOG[name]()
    terms = [t for peak in critical_pairs(sys)[:BOUNDED_PEAKS]
             for t in (peak.source, peak.left[0], peak.right[0])]
    plain = _assert_the_firings_agree(sys, terms)
    assert plain > 0 or all(r.params for r in sys.rules) or not terms


def test_a_constant_condition_decides_every_match():
    sys = CONDITIONS
    f, g, a = Symbol("f", 1), Symbol("g", 1), Application(Symbol("a", 0), ())
    terms = [Application(f, (Application(g, (a,)),)),
             Application(g, (Application(f, (a,)),))]
    assert _assert_the_firings_agree(sys, terms) > 0
    fired = {s.rule_id for t in terms for s in one_step(sys, t)}
    assert fired == {"holds", "plain"}
    backward = {s.rule_id for t in terms for s in one_step(sys, t,
                                                           backward=True)}
    assert "fails" not in backward and "undefined" not in backward
    assert backward >= {"holds", "plain"}


def test_no_query_without_schemas_reaches_the_schema_path(monkeypatch):
    # bck has no critical peak; bck-nat adds numerals to it, and one peak
    nat, lev, bck = make_nat(), make_dna("levenshtein"), CATALOG["bck-nat"]()
    add = Application(Symbol("A", 2), (nat_term(2), nat_term(3)))
    peaks = critical_pairs(bck)

    def queries():
        return (convertibility_distance(lev, dna_term("ACGT"),
                                        dna_term("AGTT")),
                reduction_distance(nat, add, nat_term(5)),
                reduction_distance(nat, add, nat_term(5),
                                   SearchBudget(weight_cutoff=0)),
                strong_closure_pass(bck, peaks, 3))

    want = queries()
    assert want[0].value == 2 and want[1].value == 0 and want[3]

    def refuse(*args, **kwargs):
        raise AssertionError("a rule without parameters reached _firing")

    monkeypatch.setattr(qtrs, "_firing", refuse)
    # fresh copies: nothing cached by the first round serves the second
    nat, lev, bck = make_nat(), make_dna("levenshtein"), CATALOG["bck-nat"]()
    assert queries() == want
