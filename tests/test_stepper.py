"""Tests for a system's one-step relation: ``one_step`` in both directions,
the rule indexes and the search's step cache the system keeps."""

import dataclasses
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from qtrw import qtrs
from qtrw import term as term_module
from qtrw.cli import main
from qtrw.dsl import parse_system
from qtrw.graded import multi_step
from qtrw.qtrs import Rule, RewriteSystem, SymbolFamily, one_step, subterm_pool
from qtrw.quantale import LAWVERE
from qtrw.search import (EXACT, SearchBudget, _relaxations,
                         convertibility_distance)
from qtrw.systems import (app2, dna_term, make_barycentric, make_dna,
                          make_graded_combinators, make_nat, nat_term)
from qtrw.term import (
    Application,
    Symbol,
    Variable,
    apply_substitution,
    instantiate_params,
    positions,
    replace_at,
    subterm_at,
    term_key,
    variables,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
NAMES = sorted(p.stem for p in SAMPLES.glob("*.qtrs"))


def _load(name):
    return parse_system((SAMPLES / f"{name}.qtrs").read_text())


def _random_term(rng, sysm, depth):
    leaves = [f for f in sysm.signature if f.arity == 0]
    if depth == 0 or rng.random() < 0.3:
        if not leaves or rng.random() < 0.4:
            return Variable(rng.choice("xy"))
        fam = rng.choice(leaves)
    else:
        fam = rng.choice(sysm.signature)
    grid = sysm.grid or (Fraction(1, 2),)
    return Application(
        Symbol(fam.name, fam.arity,
               tuple(rng.choice(grid) for _ in fam.param_names)),
        tuple(_random_term(rng, sysm, depth - 1) for _ in range(fam.arity)))


def _params_within(t, grid):
    if isinstance(t, Variable):
        return True
    return (all(p in grid for p in t.symbol.params)
            and all(_params_within(a, grid) for a in t.args))


def _seeded_terms(name, count=12):
    """Random terms, and instances of each rule's sides in random contexts,
    so that every rule has redexes in both directions."""
    sysm = _load(name)
    rng = random.Random(name)
    grid = sysm.grid or (Fraction(1, 2),)
    terms = [_random_term(rng, sysm, 3) for _ in range(count)]
    for rule in sysm.rules:
        for side in (rule.lhs, rule.rhs):
            env = {p: rng.choice(grid) for p in rule.params}
            sigma = {x: _random_term(rng, sysm, 1)
                     for x in sorted(variables(side))}
            try:
                core = apply_substitution(instantiate_params(side, env), sigma)
            except Exception:  # a parameter expression undefined at env
                continue
            if not _params_within(core, grid):
                continue  # e.g. w{(n + m)} beyond the declared grid
            outer = _random_term(rng, sysm, 2)
            p = rng.choice(positions(outer))
            terms.append(replace_at(outer, p, core))
            terms.append(core)
    return sysm, terms


def _bare(rule_id):
    return rule_id.split("[", 1)[0]


def _transpose_misses(name):
    """Forward steps missing from their targets' backward steps, and
    backward steps no forward step confirms, as (direction, rule id)."""
    sysm, terms = _seeded_terms(name)
    q = sysm.quantale
    missing = []
    checked = 0
    for u in terms:
        pool = subterm_pool(u)
        for fwd in one_step(sysm, u, pool):
            checked += 1
            back = one_step(
                sysm, fwd.target, subterm_pool(u, fwd.target), backward=True)
            if not any(b.position == fwd.position
                       and b.rule_id == _bare(fwd.rule_id)
                       and term_key(b.target) == term_key(u)
                       and not q.strictly_below(b.weight, fwd.weight)
                       for b in back):
                missing.append(("forward", _bare(fwd.rule_id)))
        for bwd in one_step(sysm, u, pool, backward=True):
            checked += 1
            if not any(f.position == bwd.position
                       and _bare(f.rule_id) == bwd.rule_id
                       and term_key(f.target) == term_key(u)
                       and not q.strictly_below(f.weight, bwd.weight)
                       for f in one_step(sysm, bwd.target, pool)):
                missing.append(("backward", bwd.rule_id))
    return missing, checked


@pytest.mark.parametrize("name", NAMES)
def test_backward_steps_are_transposes_of_forward_steps(name):
    # rules with a compound right-hand-side parameter, such as +{(1 - e)} or
    # w{(n + m)}, included: they are inverted instance by instance
    missing, checked = _transpose_misses(name)
    assert checked > 20
    assert missing == []


INVERSE = "\n".join([
    "system inverse", "quantale lawvere", "symbol f{e}/1", "symbol a/0",
    "rule inv: f{e}(x) -[1]-> f{(1 / e)}(x)"])


def _f(e, arg=Variable("x")):
    return Application(Symbol("f", 1, (Fraction(e),)), (arg,))


def test_compound_parameter_rules_without_grid_instances_keep_the_schema():
    # without a grid there are no instances at all: the inverted schema
    # stays and never fires
    sys = parse_system(INVERSE)
    assert one_step(sys, _f(Fraction(1, 2)), backward=True) == []
    (step,) = one_step(sys, _f(2))
    assert step.target is _f(Fraction(1, 2))
    # with a grid, the instances that are defined (e = 1, 2; not 1 / 0)
    # are inverted, so f{1/2}(x) steps back to f{2}(x)
    sys = parse_system(INVERSE + "\noption grid 0 1 2")
    assert one_step(sys, _f(2), backward=True) == []
    (back,) = one_step(sys, _f(Fraction(1, 2)), backward=True)
    assert (back.target, back.rule_id, back.weight) == (_f(2), "inv", 1)


def test_undefined_rule_instances_do_not_fire():
    sys = parse_system(INVERSE + "\noption grid 0 1 2")
    a = Application(Symbol("a", 0), ())
    assert one_step(sys, _f(0, a)) == []
    assert [r.rid for r in sys.instantiate().rules] == ["inv[e=1]", "inv[e=2]"]


@pytest.mark.usefixtures("fresh_catalog")
def test_forward_only_callers_leave_the_backward_table_unbuilt(monkeypatch):
    built = []
    real = qtrs._inverses
    monkeypatch.setattr(qtrs, "_inverses",
                        lambda *args: built.append(args) or real(*args))
    bary = make_barycentric()
    peaks = qtrs.critical_pairs(bary)
    assert qtrs.strongly_closed_check(bary, peaks[0], 2).holds
    qtrs.confluence_report(make_nat(), [nat_term(2)], 2)
    gsys = make_graded_combinators()
    i = Application(Symbol("I", 0), ())
    assert multi_step(gsys, app2(i, i))
    for what in ("local-confluence", "strong-closure", "orthogonal"):
        main(["check", str(SAMPLES / "barycentric.qtrs"), "--what", what,
              "--depth", "1"])
    assert built == []
    assert "backward" not in vars(bary)
    assert "backward" not in vars(gsys)
    one_step(bary, peaks[0].source, backward=True)
    assert "backward" in vars(bary) and built


def test_rules_without_parameters_are_used_as_they_are(monkeypatch):
    calls = []
    monkeypatch.setattr(qtrs, "instantiate_params",
                        lambda *args: calls.append(args) or instantiate_params(*args))
    assert len(one_step(make_nat(), nat_term(3))) == 3
    assert calls == []


def test_steps_on_a_numeral_deeper_than_the_recursion_limit():
    steps = one_step(make_nat(), nat_term(1200))
    assert [s.position for s in steps] == [(1,) * k for k in range(1200)]
    assert all(s.target is nat_term(1199) for s in steps)


def test_stepper_is_built_on_the_first_step_and_kept():
    sys = make_nat()
    assert "forward" not in vars(sys)
    one_step(sys, Application(Symbol("S", 1), (Variable("x"),)))
    forward = vars(sys)["forward"]
    assert sys.forward is forward
    # the rule index lives beside the fields, not in them, and a replaced
    # system starts without one
    assert sys == make_nat() and hash(sys) == hash(make_nat())
    assert "forward" not in vars(dataclasses.replace(sys))


def test_dropped_system_frees_its_stepper_at_once():
    def combi():
        return parse_system((SAMPLES / "graded-combinators.qtrs").read_text())

    redex = app2(Application(Symbol("D", 0), ()),
                 Application(Symbol("!", 1, (Fraction(1),)), (Variable("x"),)))
    for make, t in [(make_nat, Application(Symbol("S", 1), (Variable("x"),))),
                    (combi, redex)]:  # grades scale the steps of combi
        sys = make()
        assert one_step(sys, t)
        assert _relaxations(sys, True, t, subterm_pool(t)).steps
        assert {"forward", "backward", "relaxations"} <= set(vars(sys))
        ref = weakref.ref(sys)
        gc.disable()
        try:
            del sys
            assert ref() is None  # no reference cycle keeps the caches alive
        finally:
            gc.enable()


def test_graded_steps_scale_both_directions_alike():
    a, b = Application(Symbol("a", 0), ()), Application(Symbol("b", 0), ())
    sys = RewriteSystem(
        name="amplifier",
        quantale=LAWVERE,
        signature=(SymbolFamily("g", 1, grades=(Fraction(2),)),
                   SymbolFamily("a", 0), SymbolFamily("b", 0)),
        rules=(Rule("step", a, b, Fraction(1)),),
    )
    g = Symbol("g", 1)
    source = Application(g, (Application(g, (a,)),))
    target = Application(g, (Application(g, (b,)),))
    (fwd,) = one_step(sys, source)
    (bwd,) = one_step(sys, target, backward=True)
    assert fwd.weight == bwd.weight == Fraction(4)  # two contexts of grade 2
    assert term_key(bwd.target) == term_key(source)
    ans = convertibility_distance(sys, target, source)
    assert (ans.kind, ans.value) == (EXACT, Fraction(4))
    assert [(w.direction, w.weight) for w in ans.witness] == [
        ("backward", Fraction(4))]


# ---------------------------------------------------------------------------
# self-inverse systems and the redex memo

SELF_INVERSE = ["dna-hamming", "dna-levenshtein"]


def test_self_inverse_holds_exactly_for_the_hamming_and_levenshtein_systems():
    assert make_dna("hamming").self_inverse
    assert make_dna("levenshtein").self_inverse
    assert not make_dna("eigen_mccaskill").self_inverse
    assert [n for n in NAMES if _load(n).self_inverse] == SELF_INVERSE


CHEAPEST_STEP = {"dna-hamming": 1, "dna-levenshtein": 1, "tick": 1}


@pytest.mark.parametrize("name", NAMES)
def test_cheapest_step_is_the_join_of_the_rule_weights(name):
    # graded and schema systems get the unit: a context degree can shrink
    # a step, and a schema's weight is read off the term
    sysm = _load(name)
    assert sysm.cheapest_step == CHEAPEST_STEP.get(name, 0)
    if sysm.graded or sysm.has_schemas:
        assert sysm.cheapest_step == sysm.quantale.unit


def test_cheapest_step_of_graded_and_plain_systems():
    text = ["system g", "quantale lawvere", "symbol a/0", "symbol b/0",
            "rule r: a -[2]-> b", "rule s: b -[3]-> a"]
    assert parse_system("\n".join(text)).cheapest_step == 2
    graded = text[:2] + ["symbol h/1 grades [1/2]"] + text[2:]
    assert parse_system("\n".join(graded)).cheapest_step == 0


def test_self_inverse_needs_every_inverse_to_weigh_no_better_than_its_twin():
    def pair(back_weight):
        return parse_system("\n".join([
            "system pair", "quantale lawvere", "symbol a/0", "symbol b/0",
            "rule ab: a -[1]-> b", f"rule ba: b -[{back_weight}]-> a"]))

    # b -> a costs 2 forward but 1 backward (as ab inverted): not a twin
    assert not pair(2).self_inverse
    assert pair(1).self_inverse
    # a cheaper twin still covers the backward step
    assert parse_system("\n".join([
        "system pair", "quantale lawvere", "symbol a/0", "symbol b/0",
        "rule ab: a -[1]-> b", "rule ba: b -[1/2]-> a",
        "rule ab2: a -[1/2]-> b"])).self_inverse


def _two_pass_relaxations(sysm, t, pool):
    """Relaxations as generated before the self-inverse skip: forward steps,
    then backward ones, the first best step per target kept."""
    q = sysm.quantale
    best = {}
    for s in (one_step(sysm, t, pool)
              + one_step(sysm, t, pool, backward=True)):
        old = best.get(s.target)
        if old is None or q.strictly_below(old.weight, s.weight):
            best[s.target] = s
    return [best[u] for u in sorted(best, key=str)]


@pytest.mark.parametrize("name", SELF_INVERSE)
def test_forward_only_relaxations_equal_forward_plus_backward(name):
    sysm, terms = _seeded_terms(name)
    compared = 0
    for t in terms:
        pool = subterm_pool(t)
        entry = _relaxations(sysm, True, t, pool)
        got = entry.steps
        # no term-size limit and no invented variable, so nothing left out
        assert entry.past == entry.invented == ()
        assert got == _two_pass_relaxations(sysm, t, pool)
        assert all(step.direction == "forward" for step in got)
        compared += len(got)
    assert compared > 100
    # convertibility and valley searches share the cached step lists
    assert all(key[0] is False for key in sysm.relaxations)


@pytest.mark.usefixtures("fresh_catalog")
def test_conversions_on_self_inverse_systems_leave_the_backward_table_unbuilt(
        monkeypatch):
    built = []
    real = qtrs._inverses
    monkeypatch.setattr(qtrs, "_inverses",
                        lambda *args: built.append(args) or real(*args))
    for variant, s, t, want in (("hamming", "ACGTAC", "ACCTAG", 2),
                                ("levenshtein", "ACGTA", "CGTAA", 2)):
        sysm = make_dna(variant)
        ans = convertibility_distance(sysm, dna_term(s), dna_term(t))
        assert (ans.kind, ans.value) == ("exact", want)
        assert "backward" not in vars(sysm)
    assert built == []


def _memo_cases(name):
    sysm, terms = _seeded_terms(name)
    if name == "barycentric":
        # the fresh variable of perturb is named after the term: w0, w1
        plus = Symbol("+", 2, (Fraction(1, 2),))
        a = Application(Symbol("+", 2, (Fraction(1, 3),)),
                        (Variable("x"), Variable("w0")))
        terms += [Application(plus, (a, Variable("y"))),
                  Application(plus, (Variable("x"), Variable("y")))]
    return sysm, terms


@pytest.mark.parametrize("name", NAMES)
def test_a_shared_redex_memo_returns_what_memo_less_steps_return(name):
    # graded-combinators scales weights per position after the lookup;
    # barycentric's perturb picks from the pool or names a fresh variable
    sysm, terms = _memo_cases(name)
    memo = {}
    checked = 0
    for backward in (False, True):
        for t in terms:
            for pool in (subterm_pool(t), None):
                got = one_step(sysm, t, pool, backward, memo=memo)
                want = one_step(sysm, t, pool, backward)
                assert got == want
                checked += len(got)
    assert checked > 20
    assert {b for b, _ in memo} == {False, True}


@pytest.mark.parametrize("name", NAMES)
def test_a_shared_firing_memo_returns_what_memo_less_steps_return(name):
    # one firing memo serves both directions: an inverted rule keeps the
    # bare rule id, so only the rule itself tells its firings apart
    sysm, terms = _memo_cases(name)
    firings = {}
    for backward in (False, True):
        for t in terms:
            for pool in (subterm_pool(t), None):
                got = one_step(sysm, t, pool, backward, firings=firings)
                assert got == one_step(sysm, t, pool, backward)
    rules = {rule for rule, _ in firings}
    assert all(rule.params for rule in rules)  # plain rules skip the memo
    if sysm.has_schemas:
        assert rules & set(sysm.rules) and rules - set(sysm.rules)


def test_queries_keep_no_cache_beyond_their_results():
    bary = make_barycentric()
    peak = qtrs.critical_pairs(bary)[0]
    s, t = dna_term("ACGTAC"), dna_term("CCGTCC")
    budget = SearchBudget(max_expanded=400)
    bary.forward  # the rule index holds only the rules' terms
    gc.collect()
    gc.disable()
    try:
        before = len(term_module._TABLE)
        verdict = qtrs.strongly_closed_check(bary, peak, 2)
        assert verdict.holds
        del verdict
        assert len(term_module._TABLE) == before
        for variant in ("levenshtein", "eigen_mccaskill"):
            ans = convertibility_distance(make_dna(variant), s, t, budget)
            assert (ans.kind, ans.value) == ("exact", 2)
            del ans
            assert len(term_module._TABLE) == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the order of tied steps


def _rendering_after(t, p):
    """The rendering of ``t`` that follows its subterm at ``p``."""
    tails = []
    for i in p:
        tails.append("".join(["," + str(a) for a in t.args[i:]]) + ")")
        t = t.args[i - 1]
    return "".join(reversed(tails))


def _tie_reference(steps):
    """``steps`` by position and rule id, and steps of one rule at one
    position by the rendering of the target from that position on, the
    rest of the term included: the contractum with the suffix that
    ``one_step``'s order leaves out."""
    ties = Counter((s.position, s.rule_id) for s in steps)

    def key(s):
        p, rid = s.position, s.rule_id
        if ties[p, rid] == 1:
            return p, rid, ""
        return p, rid, str(subterm_at(s.target, p)) + _rendering_after(
            s.source, p)

    return sorted(steps, key=key)


def test_tied_steps_keep_the_order_of_their_whole_renderings():
    # the first peaks of every sample, their sides and seeded terms, then
    # their reducts, in both directions, with and without a pool
    compared = tied = 0
    for name in NAMES:
        sysm, layer = _seeded_terms(name)
        layer += [t for peak in qtrs.critical_pairs(sysm)[:20]
                  for t in (peak.source, peak.left[0], peak.right[0])]
        for _ in range(2):
            reducts = []
            for t in dict.fromkeys(layer):
                for backward in (False, True):
                    for pool in (subterm_pool(t), None):
                        steps = one_step(sysm, t, pool, backward)
                        assert steps == _tie_reference(steps), (name, str(t))
                        compared += len(steps)
                        tied += sum(n for n in Counter(
                            (s.position, s.rule_id) for s in steps).values()
                            if n > 1)
                        if pool is None and not backward:
                            reducts += [s.target for s in steps]
            layer = reducts[:200]
    assert compared > 80000 and tied > 30000


def test_tied_steps_on_a_deep_barycentric_chain():
    # perturb invents a variable: each of its redexes steps to one target
    # per pool term, all tied at one position
    x, y = Variable("x"), Variable("y")
    third = Symbol("+", 2, (Fraction(1, 3),))
    t = x
    for _ in range(60):
        t = Application(third, (x, t))
    pool = [x, y, Application(third, (x, y))]
    steps = one_step(make_barycentric(), t, pool)
    assert len(steps) == 240
    assert Counter(Counter((s.position, s.rule_id) for s in steps).values()) == {
        1: 60, 3: 60}
    assert steps == _tie_reference(steps)
