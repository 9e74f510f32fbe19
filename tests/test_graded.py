"""Tests for graded signatures, degrees, balance, and multi-steps."""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from qtrw.graded import (
    _best_per_target,
    multi_step,
    multistep_diamond_probe,
    substitution_lemma_probe,
)
from qtrw import qtrs
from qtrw.dsl import parse_system
from qtrw.quantale import INF, LAWVERE, QuantaleError
from qtrw.qtrs import (
    GradedError,
    Rule,
    RewriteSystem,
    SymbolFamily,
    balanced_check,
    degree_at_position,
    degree_of_variable,
    one_step,
    orthogonality_check,
    scale,
)
from qtrw.systems import (
    make_graded_combinators,
    make_linearity_example,
    make_nat,
    nat_term,
)
from qtrw.term import (
    Application,
    Symbol,
    Variable,
    apply_substitution,
    instantiate_params,
    replace_at,
    term_key,
    variables,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _app(a, b):
    return Application(Symbol("app", 2), (a, b))


def _bang(n, t):
    return Application(Symbol("!", 1, (Fraction(n),)), (t,))


def _c(name):
    return Application(Symbol(name, 0), ())


# ---------------------------------------------------------------------------
# sensitivities and degrees


def test_sensitivity_algebra():
    two = Fraction(2)
    assert scale(LAWVERE, two, Fraction(1, 2)) == Fraction(1)
    assert scale(LAWVERE, Fraction(0), Fraction(7)) == LAWVERE.unit
    assert scale(LAWVERE, Fraction(0), INF) == LAWVERE.unit
    assert scale(LAWVERE, two, INF) is INF
    with pytest.raises(QuantaleError):
        scale(LAWVERE, two, Fraction(-1))


def test_degrees_in_nested_bang_term():
    sig = make_graded_combinators()
    x = Variable("x")
    t = _bang(3, _app(x, _bang(2, _app(_c("I"), x))))
    assert degree_at_position(sig, t, (1, 1)) == Fraction(3)
    assert degree_at_position(sig, t, (1, 2, 1, 2)) == Fraction(6)
    assert degree_of_variable(sig, t, "x") == Fraction(9)
    assert degree_of_variable(sig, t, "absent") == Fraction(0)
    # a context's degree is its hole's: the filling does not count
    ctx = replace_at(t, (1, 2), Variable("hole"))
    assert degree_at_position(sig, ctx, (1, 2)) == Fraction(3)


# ---------------------------------------------------------------------------
# balance


def test_graded_combinators_balanced():
    gsys = make_graded_combinators()
    entries = balanced_check(gsys)
    assert entries and all(e.balanced for e in entries)
    assert gsys.balanced


def test_duplicating_rule_is_unbalanced():
    gsys = make_linearity_example()
    bad = [e for e in balanced_check(gsys) if not e.balanced]
    assert bad
    entry = bad[0]
    assert entry.rule_id == "collapse" and entry.variable == "x"
    assert entry.lhs_degree == Fraction(2)
    assert entry.rhs_degree == Fraction(1)
    assert not gsys.balanced
    with pytest.raises(GradedError):
        multi_step(gsys, _c("e"))


# ---------------------------------------------------------------------------
# orthogonality


def test_orthogonality():
    ok, evidence = orthogonality_check(make_graded_combinators())
    assert ok
    assert evidence["critical_pairs"] == 0 and evidence["left_linear"]
    ok, evidence = orthogonality_check(make_linearity_example())
    assert not ok and not evidence["left_linear"]


# ---------------------------------------------------------------------------
# graded steps


def test_graded_one_step_scales_by_context_degree():
    sys = RewriteSystem(
        name="amplifier",
        quantale=LAWVERE,
        signature=(
            SymbolFamily("g", 1, grades=(Fraction(2),)),
            SymbolFamily("a", 0),
            SymbolFamily("b", 0),
        ),
        rules=(Rule("step", _c("a"), _c("b"), Fraction(1)),),
    )
    t = Application(Symbol("g", 1), (Application(Symbol("g", 1), (_c("a"),)),))
    (step,) = one_step(sys, t)
    assert step.position == (1, 1)
    assert step.weight == Fraction(4)  # two nested contexts of grade 2


@pytest.mark.parametrize("grade, peak, joins", [
    ("1/2", Fraction(1), False), ("2", Fraction(4), True)])
def test_critical_peaks_weigh_the_inner_step_as_it_steps(grade, peak, joins):
    # the inner step of f(g(a)) sits under g: its weight is 2 scaled by the
    # grade, and only a peak of weight at least 3/2 is joined by the valley
    sys = parse_system("\n".join([
        "system half", "quantale lawvere", "symbol a/0", "symbol b/0",
        "symbol c/0", "symbol f/1", f"symbol g/1 grades [{grade}]",
        "rule ab: a -[2]-> b", "rule fga: f(g(a)) -[0]-> c",
        "rule fgb: f(g(b)) -[3/2]-> c"]))
    (p,) = qtrs.critical_pairs(sys)
    assert p.left[1] == peak
    assert [(s.target, s.weight) for s in one_step(sys, p.source)
            if s.rule_id == p.inner_rule] == [p.left]
    assert (qtrs.join_check(sys, p, 3).kind == "joinable") is joins
    assert qtrs.strongly_closed_check(sys, p, 3).holds is joins


def test_trivial_grades_agree_with_plain_steps():
    sys = make_nat()
    gsys = replace(sys, signature=tuple(
        replace(f, grades=(Fraction(1), Fraction(1))) if f.name == "A" else f
        for f in sys.signature))
    assert gsys.graded  # A declares grades [1, 1]
    rng = random.Random("trivial-grades")
    f = lambda a, b: Application(Symbol("A", 2), (a, b))
    for _ in range(25):
        t = f(nat_term(rng.randrange(4)), nat_term(rng.randrange(4)))
        plain = {(s.position, s.rule_id, term_key(s.target)): s.weight
                 for s in one_step(sys, t)}
        graded = {(s.position, s.rule_id, term_key(s.target)): s.weight
                  for s in one_step(gsys, t)}
        assert plain == graded


# ---------------------------------------------------------------------------
# multi-steps


def test_multi_step_enumeration():
    gsys = make_graded_combinators()
    # two disjoint redexes: D!1(I) on both sides of an application
    redex = _app(_c("D"), _bang(1, _c("I")))
    t = _app(redex, redex)
    steps = multi_step(gsys, t, width_budget=4)
    best = _best_per_target(steps, gsys.quantale)
    assert best[t].nredex == 0                         # the empty multi-step
    both = best[_app(_c("I"), _c("I"))]
    assert both.nredex == 2                            # contracted in parallel
    assert max(s.nredex for s in steps) <= 4


def test_multistep_diamond_probe_small():
    gsys = make_graded_combinators()
    t = _app(_app(_c("D"), _bang(1, _c("I"))), _app(_c("D"), _bang(1, _c("I"))))
    report = multistep_diamond_probe(gsys, t, width_budget=4)
    assert report.holds
    assert report.peaks_checked == report.peaks_closed > 0


def test_diamond_probe_rejects_non_orthogonal():
    with pytest.raises(GradedError):
        multistep_diamond_probe(make_linearity_example(), _c("e"))


def test_substitution_lemma_probe():
    gsys = make_graded_combinators()
    x = Variable("x")
    body = _bang(2, x)
    component = _app(_c("D"), _bang(1, _c("I")))
    report = substitution_lemma_probe(gsys, [(body, {"x": component})])
    assert report.holds and report.cases_checked > 0


def _one_step_terms(gsys, count=20):
    """Seeded terms of ``gsys``: instances of its rules' left-hand sides over
    the grid, with leaves or earlier instances as arguments."""
    rng = random.Random("one-step-multi-step")
    grid = gsys.grid or (Fraction(1),)
    terms = [Variable("x")] + [
        Application(Symbol(f.name, 0, tuple(
            rng.choice(grid) for _ in f.param_names)), ())
        for f in gsys.signature if f.arity == 0]
    for _ in range(count):
        rule = rng.choice(gsys.rules)
        lhs = instantiate_params(
            rule.lhs, {p: rng.choice(grid) for p in rule.params})
        terms.append(apply_substitution(
            lhs, {x: rng.choice(terms) for x in sorted(variables(lhs))}))
    return terms


def test_every_single_step_is_a_one_redex_multi_step():
    # a bare-variable left-hand side binds the node itself
    inserting = parse_system("\n".join([
        "system insert", "quantale lawvere", "symbol g/1 grades [1]",
        "symbol a/0", "rule ins: x -[1]-> g(x)"]))
    samples = [parse_system(path.read_text())
               for path in sorted(SAMPLES.glob("*.qtrs"))]
    cases = [(g, _one_step_terms(g)) for g in samples
             if any(f.grades is not None for f in g.signature)] + [
        (inserting, [_c("a"), Application(Symbol("g", 1), (_c("a"),))])]
    assert len(cases) > 1
    checked = 0
    for gsys, terms in cases:
        for t in terms:
            multi = multi_step(gsys, t, width_budget=1)
            for s in one_step(gsys, t):
                checked += 1
                assert any(m.target == s.target and m.nredex == 1
                           and m.weight == s.weight for m in multi), (t, s)
    assert checked > 20
    steps = multi_step(inserting, _c("a"))
    assert [(term_key(m.target), m.weight, m.nredex) for m in steps] == [
        ("a", 0, 0), ("g(a)", 1, 1)]


def test_graded_facts_are_computed_once(monkeypatch):
    gsys = make_graded_combinators()
    t = _app(_c("D"), _bang(1, _c("I")))
    calls = []
    monkeypatch.setattr(qtrs, "critical_pairs",
                        lambda sys: calls.append(sys) or [])
    monkeypatch.setattr(qtrs, "balanced_check",
                        lambda g: calls.append(g) or [])
    for _ in range(3):
        assert multistep_diamond_probe(gsys, t).holds
        multi_step(gsys, t)
    assert len(calls) == 2
