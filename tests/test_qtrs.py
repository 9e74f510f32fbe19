"""Tests for rewrite systems: steps, critical peaks, joins, confluence."""

import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from qtrw.quantale import BOOL, FUZZY_PRODUCT, LAWVERE, NAT_INF, QuantaleError
from qtrw import qtrs
from qtrw.qtrs import (
    CriticalPeak,
    Rule,
    RewriteSystem,
    SymbolFamily,
    _layered_relaxation,
    confluence_report,
    critical_pairs,
    cross_critical_pairs,
    degree_at_position,
    join_check,
    one_step,
    scale,
    sn_probe,
    strong_closure_pass,
    strongly_closed_check,
    subterm_pool,
    sum_systems,
    term_graph,
)
from qtrw.dsl import parse_grid, parse_system, parse_term
from qtrw.search import UNREACHABLE, valley_distance
from qtrw.systems import (
    CATALOG,
    DNA_BASES,
    dna_term,
    make_barycentric,
    make_bck,
    make_dna,
    make_linearity_example,
    make_nat,
    make_semilattice,
    nat_term,
)
from qtrw.term import (
    Application,
    Symbol,
    TermError,
    Variable,
    match,
    positions,
    replace_at,
    subterm_at,
    subterms,
    term_key,
    term_size,
)


def _base_rid(rid: str) -> str:
    return rid.split("[", 1)[0]


def _const(name: str):
    return Application(Symbol(name, 0), ())


def _f(name, *args):
    return Application(Symbol(name, len(args)), tuple(args))


# ---------------------------------------------------------------------------
# one_step


def test_one_step_soundness_on_nat():
    sys = make_nat()
    rng = random.Random("one-step")
    for _ in range(40):
        t = _f("A", nat_term(rng.randrange(4)), nat_term(rng.randrange(4)))
        steps = one_step(sys, t)
        seen = set()
        for step in steps:
            assert term_key(step.source) == term_key(t)
            assert step.position in positions(t)
            # outside the rewrite position, source and target agree
            patched = replace_at(t, step.position,
                                 subterm_at(step.target, step.position))
            assert term_key(patched) == term_key(step.target)
            assert sys.quantale.is_value(step.weight)
            key = (step.position, step.rule_id, term_key(step.target))
            assert key not in seen, "duplicate step"
            seen.add(key)


def test_one_step_weights_match_rules():
    sys = make_nat()
    t = _f("S", _f("A", _const("Z"), _const("Z")))
    by_rule = {_base_rid(s.rule_id): s.weight for s in one_step(sys, t)}
    assert by_rule["addZ"] == Fraction(0)
    assert by_rule["sdel"] == Fraction(1)


def test_fresh_rhs_variables_use_pool():
    bary = make_barycentric().instantiate()
    w = Variable("w")
    t = Application(Symbol("+", 2, (Fraction(1, 2),)), (w, w))
    plain = one_step(bary, t)
    pooled = one_step(bary, t, fresh_pool=[w, t])
    # the pool enlarges the choice of perturbation targets
    assert len(pooled) > len(plain)


# ---------------------------------------------------------------------------
# critical pairs


def test_barycentric_critical_peak_shapes():
    sys = make_barycentric()
    peaks = critical_pairs(sys)
    shapes = {(_base_rid(p.inner_rule), _base_rid(p.outer_rule), p.position)
              for p in peaks}
    expected = {
        ("proj", "comm", ()),
        ("proj", "perturb", ()),
        ("perturb", "assoc", (1,)),
        ("perturb", "assoc", ()),
        ("assoc", "assoc", (1,)),
        ("comm", "assoc", (1,)),
    }
    assert expected <= shapes


def test_barycentric_peaks_strongly_closed():
    sys = make_barycentric()
    peaks = critical_pairs(sys)
    assert peaks
    sample = peaks[: 5]
    for peak in sample:
        verdict = strongly_closed_check(sys, peak, depth_budget=6)
        assert verdict.holds, (peak.inner_rule, peak.outer_rule, peak.position)


def test_nat_critical_pair_joinable():
    sys = make_nat()
    peaks = critical_pairs(sys)
    assert len(peaks) == 1
    peak = peaks[0]
    assert {_base_rid(peak.inner_rule), _base_rid(peak.outer_rule)} == {
        "sdel", "addS"}
    verdict = join_check(sys, peak, depth_budget=4)
    assert verdict.kind == "joinable"
    assert verdict.best_total == peak.tensor(sys.quantale)


def test_nonlinear_overlap_fails_quantitative_join():
    sys = make_linearity_example()
    e, i = _const("e"), _const("i")
    source = _f("f", e, e)
    peak = CriticalPeak(
        source=source,
        left=(_f("f", i, e), Fraction(1)),   # decay inside
        right=(e, Fraction(0)),              # collapse at the root
        position=(1,),
        inner_rule="decay",
        outer_rule="collapse",
    )
    verdict = join_check(sys, peak, depth_budget=6)
    assert verdict.kind == "unknown"
    assert verdict.peak_total == Fraction(1)
    assert verdict.best_total == Fraction(2)
    assert verdict.meet is not None and term_key(verdict.meet) == term_key(i)


def _reference_join(sys, peak, depth):
    """The join as a second algorithm: relax each side layer by layer with
    ``one_step`` to ``depth``, then take the best common reduct.  Returns
    the verdict's kind and best total."""
    q = sys.quantale
    pool = subterm_pool(peak.source, peak.left[0], peak.right[0])
    tables = []
    for side in (peak.left[0], peak.right[0]):
        best, frontier = {side: q.unit}, [side]
        for _ in range(depth):
            improved = []
            for term in frontier:
                for step in one_step(sys, term, pool):
                    w = q.tensor(best[term], step.weight)
                    if step.target not in best or q.strictly_below(
                            best[step.target], w):
                        best[step.target] = w
                        improved.append(step.target)
            frontier = improved
        tables.append(best)
    lred, rred = tables
    total = None
    for u in lred.keys() & rred.keys():
        w = q.tensor(lred[u], rred[u])
        if total is None or q.strictly_below(total, w):
            total = w
    joins = total is not None and q.leq(peak.tensor(q), total)
    return ("joinable" if joins else "unknown"), total


def _assert_valley_replays(sys, peak, verdict):
    """Both valley paths replay through ``one_step`` with the peak's pool,
    from the peak's sides to the meet, and tensor to the best total."""
    q = sys.quantale
    pool = subterm_pool(peak.source, peak.left[0], peak.right[0])
    total = q.unit
    for start, path in ((peak.left[0], verdict.left_path),
                        (peak.right[0], verdict.right_path)):
        cur = start
        for step in path:
            assert step.source == cur and step.direction == "forward"
            assert step in one_step(sys, cur, pool)
            cur, total = step.target, q.tensor(total, step.weight)
        assert cur == verdict.meet
    assert total == verdict.best_total


# the golden harness's smaller grids for the samples with hundreds of peaks
SMALL_GRIDS = {"barycentric": "0 1/2 1", "ticking": "0 1 2",
               "ticking-terminating": "0 1 2"}


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_join_check_agrees_with_the_layered_reference(name, depth):
    sys = CATALOG[name]()
    if depth > 1 and name in SMALL_GRIDS:
        sys = replace(sys, grid=parse_grid(SMALL_GRIDS[name]))
    for peak in critical_pairs(sys):
        verdict = join_check(sys, peak, depth)
        assert (verdict.kind, verdict.best_total) == _reference_join(
            sys, peak, depth), (peak.inner_rule, peak.outer_rule)
        if verdict.best_total is None:
            assert verdict.meet is None
            assert verdict.left_path == verdict.right_path == ()
        else:
            _assert_valley_replays(sys, peak, verdict)


# joinable peaks out of all peaks at depth 6; every other sample is all
# joinable
DEPTH_6_JOINS = {"barycentric": (293, 293), "semilattice": (4, 4),
                 "dna-levenshtein": (48, 48), "ticking": (1031, 1031),
                 "ticking-terminating": (477, 537)}


def test_join_check_ends_at_the_default_depth():
    for name in sorted(CATALOG):
        sys = CATALOG[name]()
        peaks = critical_pairs(sys)
        joinable = sum(join_check(sys, p, 6).kind == "joinable"
                       for p in peaks)
        expected = DEPTH_6_JOINS.get(name, (len(peaks), len(peaks)))
        assert (joinable, len(peaks)) == expected, name


# ---------------------------------------------------------------------------
# sums and modularity


def test_disjoint_sum_has_no_cross_peaks():
    bck = make_bck()
    bary = make_barycentric()
    combined = sum_systems(bck, bary)
    assert len(combined.rules) == len(bck.rules) + len(bary.rules)
    assert cross_critical_pairs(bck, bary) == []


def test_a_sum_may_not_widen_a_schema_component_grid():
    ticking = CATALOG["ticking"]()
    text = ["system seven", "quantale lawvere", "symbol s/0", "symbol u/0",
            "rule su: s -[1]-> u"]
    seven = parse_system("\n".join(text + ["option grid 7"]))
    # summed with ``seven``, ``recount`` would step w{0}(nil) to w{7}(nil),
    # which ticking alone cannot
    for pair in ((ticking, seven), (seven, ticking)):
        with pytest.raises(TermError, match="widen the grid of ticking"):
            sum_systems(*pair)
        with pytest.raises(TermError, match="widen the grid of ticking"):
            cross_critical_pairs(*pair)
    # grids are compared as sets: the union here is ordered 5 0 3 1 2 4
    same = parse_system("\n".join(text + ["option grid 5 0 3"]))
    assert set(sum_systems(same, ticking).grid) == set(ticking.grid)


# ---------------------------------------------------------------------------
# schemas and instantiation


def test_schema_instantiation():
    sys = make_barycentric()
    assert sys.has_schemas
    ground = sys.instantiate()
    assert not ground.has_schemas
    comm_ids = [r.rid for r in ground.rules if _base_rid(r.rid) == "comm"]
    assert comm_ids and all("[e=" in rid for rid in comm_ids)
    # conditions filter the grid: assoc excludes the endpoints 0 and 1
    assoc_ids = [r.rid for r in ground.rules if _base_rid(r.rid) == "assoc"]
    assert assoc_ids
    assert not any("e1=0" in rid or "e1=1]" in rid for rid in assoc_ids)


# ---------------------------------------------------------------------------
# bounded reducts and term graphs


@pytest.mark.parametrize("quantale, weight", [
    (LAWVERE, Fraction(-1)), (NAT_INF, Fraction(1, 2)),
    (FUZZY_PRODUCT, Fraction(2)), (BOOL, Fraction(1))],
    ids=["lawvere", "nat-inf", "fuzzy-product", "bool"])
def test_rule_weights_outside_the_quantale_are_rejected(quantale, weight):
    a, b = Application(Symbol("a", 0), ()), Application(Symbol("b", 0), ())
    sig = (SymbolFamily("a", 0), SymbolFamily("b", 0))
    with pytest.raises(QuantaleError, match="^rule r: .* is not a value of"):
        RewriteSystem("w", quantale, sig, (Rule("r", a, b, weight),))


def test_bounded_reducts_grow_with_depth():
    sys = make_nat()
    q = sys.quantale
    t = _f("A", nat_term(2), nat_term(2))
    shallow, deep = [list(_layered_relaxation(sys, t, depth))
                     for depth in (1, 6)]
    assert {u for u, _ in shallow} <= {u for u, _ in deep}
    assert deep[0] == (t, q.unit)
    # every improvement is one step on from a weight yielded before it
    for i, (u, w) in enumerate(deep[1:], 1):
        assert any(step.target == u and q.tensor(wv, step.weight) == w
                   for v, wv in deep[:i] for step in one_step(sys, v))


def _relaxation_pruned_after(sys, t, depth, pool, weight_bound, size_bound):
    """``_layered_relaxation`` built the plain way: every step of each
    expanded term is generated, then the bounds prune it."""
    q = sys.quantale
    best = {t: q.unit}
    yield t, q.unit
    frontier = [t]
    for _ in range(depth):
        next_frontier = []
        for term in frontier:
            w = best[term]
            for step in one_step(sys, term, pool):
                nw = q.tensor(w, step.weight)
                u = step.target
                if not q.leq(weight_bound, nw) or term_size(u) > size_bound:
                    continue
                old = best.get(u)
                if old is None or q.strictly_below(old, nw):
                    best[u] = nw
                    next_frontier.append(u)
                    yield u, nw
        if not next_frontier:
            break
        frontier = next_frontier


BOUNDED_PEAKS = 100  # the first peaks of each sample
BOUNDED_DEPTH = 2


def _redexes_scaled(sys, t):
    """Every (position, redex) of ``t`` in pre-order, its weight scaled by
    the context's degree where ``sys`` is graded: what ``one_step`` under
    ``within`` keeps or skips, read off the rule table directly."""
    q = sys.quantale
    out = []
    for p, sub in subterms(t):
        for rid, w, fresh, contractum in sys._redexes(sub, False):
            if sys.graded:
                w = scale(q, degree_at_position(sys, t, p), w)
            out.append((p, (rid, w, fresh, contractum)))
    return out


def _assert_bounded_steps_filter(sys, t, pool, done, bound):
    """``one_step`` under ``within`` = (done, bound) returns the unbounded
    steps in bounds, and, asked for them, reports every redex out of
    bounds, in pre-order."""
    q = sys.quantale
    every = one_step(sys, t, pool)
    kept = [s for s in every if q.leq(bound, q.tensor(done, s.weight))]
    assert one_step(sys, t, pool, within=(done, bound)) == kept
    skipped = []
    assert one_step(sys, t, pool, within=(done, bound),
                    _skipped=skipped) == kept
    assert skipped == [(p, r) for p, r in _redexes_scaled(sys, t)
                       if not q.leq(bound, q.tensor(done, r[1]))]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_weight_bounded_steps_are_the_unbounded_steps_filtered(name):
    sys = CATALOG[name]()
    q = sys.quantale
    for peak in critical_pairs(sys)[:BOUNDED_PEAKS]:
        bound = peak.tensor(q)
        pool = subterm_pool(peak.source, peak.left[0], peak.right[0])
        for t in (peak.source, peak.left[0], peak.right[0]):
            for done in dict.fromkeys(
                    (q.unit, peak.left[1], peak.right[1], bound)):
                _assert_bounded_steps_filter(sys, t, pool, done, bound)
        for side in (peak.left[0], peak.right[0]):
            size = 2 + term_size(side)
            assert list(_layered_relaxation(
                sys, side, BOUNDED_DEPTH, pool, bound, size)) == list(
                _relaxation_pruned_after(
                    sys, side, BOUNDED_DEPTH, pool, bound, size))


def _nat_sums(k, n, m):
    """S^k(A(S^n(Z), S^m(Z)))."""
    t = _f("A", nat_term(n), nat_term(m))
    for _ in range(k):
        t = _f("S", t)
    return t


def test_weight_bounded_steps_are_the_unbounded_steps_filtered_on_sums():
    # sdel weighs 1, so at (0, 0) every S root is out of bounds
    sys = make_nat()
    for k, n, m in itertools.product((0, 1, 3), (0, 2), (0, 1, 3)):
        t = _nat_sums(k, n, m)
        for done, bound in [(0, 0), (0, 1), (1, 1), (Fraction(1, 2), 2)]:
            _assert_bounded_steps_filter(sys, t, subterm_pool(t), done, bound)


def _match_calls(monkeypatch, sys, t, **kwargs):
    """How many times ``one_step(sys, t, **kwargs)`` calls ``match``."""
    calls = []

    def counted(pattern, subject):
        calls.append(subject)
        return match(pattern, subject)

    with monkeypatch.context() as m:
        m.setattr(qtrs, "match", counted)
        one_step(sys, t, **kwargs)
    return len(calls)


def test_no_rule_is_matched_at_a_root_out_of_bounds(monkeypatch):
    sys = make_nat()
    t = _nat_sums(20, 30, 30)
    # sdel at each of the 50 distinct S subterms (the two S^30(Z) are one
    # in the redex memo), addZ and addS at the one A
    assert _match_calls(monkeypatch, sys, t) == 52
    # at (0, 0) every S root weighs 1: out of bounds
    assert _match_calls(monkeypatch, sys, t, within=(0, 0)) == 2
    # a caller that asks for the redexes out of bounds has every root
    # matched
    assert _match_calls(monkeypatch, sys, t, within=(0, 0),
                        _skipped=[]) == 52


def _walked(monkeypatch, sys, t, **kwargs):
    """The positions ``one_step(sys, t, **kwargs)`` walks to, in order, and
    the subterms whose redexes it looked up in its memo."""
    walked, memo = [], {}

    def recorded(walk):
        def wrapper(*args):
            for p, sub in walk(*args):
                walked.append(p)
                yield p, sub
        return wrapper

    with monkeypatch.context() as m:
        for name in ("subterms", "subterms_meeting"):
            m.setattr(qtrs, name, recorded(getattr(qtrs, name)))
        one_step(sys, t, memo=memo, **kwargs)
    return walked, {sub for _, sub in memo}


def _hfg_system():
    return parse_system("\n".join([
        "system hfg", "quantale lawvere", "symbol h/2", "symbol f/1",
        "symbol g/1", "symbol a/0", "rule proj: h(x, y) -[0]-> x",
        "rule drop: f(x) -[1]-> x"]))


def _hfg_term():
    """h(f^30(g^30(a)), a)."""
    t = _const("a")
    for name in ("g", "f"):
        for _ in range(30):
            t = _f(name, t)
    return _f("h", t, _const("a"))


def test_no_subterm_without_a_root_in_bounds_is_walked(monkeypatch):
    # at (0, 0) f's rule weighs 1, out of bounds, and g and a have no
    # rules: of the roots only h can fire, and only the root holds an h
    sys, t = _hfg_system(), _hfg_term()
    walked, looked_up = _walked(monkeypatch, sys, t, within=(0, 0))
    assert looked_up == {t}
    assert walked == [()]
    assert [s.rule_id for s in one_step(sys, t, within=(0, 0))] == ["proj"]
    # a caller that asks for the redexes out of bounds has every subterm
    # walked
    skipped = []
    walked, looked_up = _walked(monkeypatch, sys, t, within=(0, 0),
                                _skipped=skipped)
    assert walked == positions(t)
    assert len(looked_up) == 62  # h, 30 f and 30 g subterms, and a
    assert [p for p, _ in skipped] == positions(t)[1:31]


@pytest.mark.parametrize("name", ["dna-levenshtein", "graded-combinators"])
def test_every_subterm_is_walked_where_any_root_may_fire(monkeypatch, name):
    # dna-levenshtein's insertions have a bare-variable left side, so they
    # fire at every subterm; graded-combinators scales a step's weight by
    # its context, so no root's bound holds
    sys = CATALOG[name]()
    if name == "dna-levenshtein":
        cases = [(dna_term(w), within) for w in ("ACGT", "GATTACA")
                 for within in ((0, 0), (1, 1))]
    else:
        cases = _bounded_cases(name)[1]
    for t, within in cases:
        for backward in (False, True):
            walked, _ = _walked(monkeypatch, sys, t, within=within,
                                backward=backward)
            assert walked == positions(t)


def _bounded_cases(name):
    """(term, ``within``) pairs of sample ``name`` under which some steps
    are out of bounds."""
    sys = CATALOG[name]()
    q = sys.quantale
    if name == "barycentric":
        # the peaks' own bounds, from the unit: each + root has perturb,
        # whose weight e is read off the term, so no root is out of bounds
        return sys, [(t, (q.unit, peak.tensor(q)))
                     for peak in critical_pairs(sys)[:20]
                     for t in (peak.source, peak.left[0], peak.right[0])]
    # every rule weighs 0, so from 1 every step is out of bounds under 0;
    # but a context's grade scales the step, not the rule
    return sys, [(parse_term(t, sys.signature), (1, 0)) for t in (
        "app(app(K, D), !{0}(B))", "app(D, !{1}(D))",
        "!{2}(app(D, !{1}(K)))", "app(app(app(B, K), D), !{1}(C))")]


@pytest.mark.parametrize("name", ["barycentric", "graded-combinators"])
def test_roots_are_all_matched_where_a_step_may_weigh_the_unit(
        monkeypatch, name):
    sys, cases = _bounded_cases(name)
    pruned = 0
    for t, within in cases:
        every = _match_calls(monkeypatch, sys, t)
        assert _match_calls(monkeypatch, sys, t, within=within) == every
        pruned += len(one_step(sys, t)) - len(one_step(sys, t, within=within))
    assert pruned > 0  # the bounds do prune steps


def test_a_root_whose_rule_weight_is_read_off_the_term_is_matched():
    # the one rule at f weighs e, so f's bound is the unit: from 0 under
    # 0, f{0} steps in bounds and f{1} out of them
    sys = parse_system("\n".join([
        "system e", "quantale lawvere", "symbol a/0", "symbol f{e}/1",
        "rule shrink: f{e}(x) -[e]-> x"]))
    t = parse_term("f{1}(f{0}(a))", sys.signature)
    _assert_bounded_steps_filter(sys, t, None, 0, 0)
    assert [(s.position, s.weight) for s in one_step(
        sys, t, within=(0, 0))] == [((1,), 0)]


def _barycentric_peak(inner, outer, position):
    sys = make_barycentric()
    return sys, next(p for p in critical_pairs(sys)
                     if (p.inner_rule, p.outer_rule, p.position)
                     == (inner, outer, position))


def _candidates(sys, peak, side, bound=None):
    """The short side's candidates as ``_one_sided_closure`` relaxes them:
    one step deep, under ``bound``."""
    pool = subterm_pool(peak.source, peak.left[0], peak.right[0])
    return list(dict(_layered_relaxation(sys, side, 1, pool, bound,
                                         memo={})).items())


@pytest.mark.parametrize("inner, outer, position", [
    ("assoc[e1=1/2,e2=1/2]", "assoc[e1=1/2,e2=1/2]", (1,)),
    ("perturb[e=0]", "comm[e=0]", ())])
def test_bounded_candidates_are_the_dominating_unbounded_ones(
        inner, outer, position):
    sys, peak = _barycentric_peak(inner, outer, position)
    q, total = sys.quantale, peak.tensor(sys.quantale)
    assert total == 0
    dropped = 0
    for side in (peak.left[0], peak.right[0]):
        every = _candidates(sys, peak, side)
        kept = [(u, w) for u, w in every if q.leq(total, w)]
        assert _candidates(sys, peak, side, total) == kept
        dropped += len(every) - len(kept)
    assert dropped > 0  # perturb's contracta weigh e > 0 or assoc's do


def test_bounded_candidates_move_a_target_first_reached_out_of_bounds():
    # perturb[e=1/2] at the root reaches +{1/2}(+{1/3}(x0,y1),z) at weight
    # 1/2, out of bounds, before perturb[e=1/3] at (1,) reaches it at 1/3
    sys, peak = _barycentric_peak("perturb[e=1/3]", "assoc[e1=1/3,e2=1/2]",
                                  (1,))
    q, total = sys.quantale, peak.tensor(sys.quantale)
    side = peak.left[0]
    kept = [(u, w) for u, w in _candidates(sys, peak, side)
            if q.leq(total, w)]
    bounded = _candidates(sys, peak, side, total)
    assert bounded != kept and dict(bounded) == dict(kept)
    # the order of the candidates picks the meet, not whether one exists
    assert strongly_closed_check(sys, peak, 6).holds


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_shared_firing_memo_changes_no_strong_closure_verdict(name):
    sys = CATALOG[name]()
    peaks = critical_pairs(sys)
    lone = [strongly_closed_check(sys, p, 2) for p in peaks]
    assert strong_closure_pass(sys, peaks, 2) == lone


def test_weight_bounded_steps_weigh_the_scaled_step():
    sys = parse_system("\n".join([
        "system scaled", "quantale lawvere", "symbol f/1 grades [2]",
        "symbol g/1 grades [1/2]", "symbol a/0", "symbol b/0",
        "rule ab: a -[1]-> b", "rule ba: b -[3]-> a"]))
    q, a, b = sys.quantale, _const("a"), _const("b")
    for t in (_f("f", a), _f("g", a), _f("g", b), _f("f", _f("g", _f("f", a)))):
        every = one_step(sys, t)
        for done, bound in [(0, Fraction(1, 2)), (0, Fraction(3, 2)),
                            (1, 2), (Fraction(1, 2), 3), (0, 0)]:
            kept = [s for s in every if q.leq(bound, q.tensor(done, s.weight))]
            assert one_step(sys, t, within=(done, bound)) == kept
    # the rule weighs 1; the bound is applied to the step, 2 under f and
    # 1/2 under g
    assert one_step(sys, _f("f", a), within=(0, Fraction(3, 2))) == []
    assert [s.weight for s in one_step(
        sys, _f("g", a), within=(0, Fraction(1, 2)))] == [Fraction(1, 2)]


def test_term_graph_of_nat_is_confluent():
    sys = make_nat()
    seeds = [_f("A", nat_term(2), nat_term(2))]
    rel, exhausted = term_graph(sys, seeds, max_terms=500)
    assert exhausted
    assert rel.confluent_check()
    assert rel.strongly_normalizing_check()


def test_term_graph_truncation_flag():
    sys = make_nat()
    seeds = [_f("A", nat_term(3), nat_term(3))]
    _, exhausted = term_graph(sys, seeds, max_terms=3)
    assert not exhausted


def test_term_graph_keeps_the_nearest_terms_under_a_node_cap():
    rel, exhausted = term_graph(make_dna("levenshtein"), [dna_term("")],
                                max_terms=30)
    assert not exhausted and len(rel.carrier) == 30
    near = {term_key(dna_term("".join(w)))
            for n in range(3) for w in itertools.product(DNA_BASES, repeat=n)}
    assert len(near) == 21 and near <= set(rel.carrier)
    # a dna term has one opening parenthesis per base
    assert max(key.count("(") for key in rel.carrier) == 3


def test_term_graph_depth_bound():
    sys = make_nat()
    seed = _f("A", nat_term(1), nat_term(1))
    full, exhausted = term_graph(sys, [seed], max_terms=None)
    assert exhausted
    layer1, exhausted = term_graph(sys, [seed], max_terms=None, depth=1)
    assert not exhausted  # the first layer was left unexpanded
    assert set(layer1.carrier) == {term_key(seed)} | {
        term_key(s.target) for s in one_step(sys, seed)}
    assert term_graph(sys, [seed], max_terms=None, depth=0)[0].carrier == (
        term_key(seed),)
    deep, exhausted = term_graph(sys, [seed], max_terms=None, depth=50)
    assert exhausted and deep == full


def test_sn_probe_statuses():
    nat = make_nat()
    seed = _f("A", nat_term(2), nat_term(2))
    status, rel = sn_probe(nat, [seed], 500)
    assert status == "passes on explored" and rel.strongly_normalizing_check()
    status, rel = sn_probe(nat, [seed], 3)
    assert status == "inconclusive (truncated)" and len(rel.carrier) == 3
    semilattice = make_semilattice()
    a = _const(semilattice.signature[0].name)
    status, _ = sn_probe(semilattice, [a], 50)
    assert status == "cycle found"


# ---------------------------------------------------------------------------
# confluence reports


def test_confluence_report_nat():
    sys = make_nat()
    seeds = [_f("A", nat_term(2), nat_term(1))]
    report = confluence_report(sys, seeds, depth_budget=4)
    assert report.certificate == "confluent by CP+Newman at explored scale"
    assert report.evidence["critical_pairs"] == 1


def test_confluence_report_semilattice():
    # non-left-linear, but the idempotent quantale opens the critical-pair
    # routes; the report must say so and record the peaks it examined
    sys = make_semilattice()
    report = confluence_report(sys, depth_budget=3)
    assert "relaxed: idempotent quantale" in str(
        report.evidence.get("linearity_gate"))
    assert report.evidence["critical_pairs"] == 4


def test_confluence_report_modular_route():
    bck = make_bck()
    bary = make_barycentric()
    combined = sum_systems(bck, bary)
    report = confluence_report(
        combined, depth_budget=6, components=(bck, bary))
    assert report.evidence["cross_critical_pairs"] == 0
    assert report.certificate == "confluent by Hindley-Rosen"


# ROADMAP item 1: a strong-closure meet accepts a term that one side only
# matches, so a side that is a bare peak variable "meets" any term
@pytest.mark.xfail(strict=True, reason="a strong-closure meet may bind a "
                   "peak variable (ROADMAP item 1)")
def test_no_certificate_for_two_distinct_normal_forms_of_one_term():
    sys = parse_system("\n".join([
        "system t", "quantale lawvere", "symbol a/0", "symbol b/0",
        "symbol f/1", "symbol h/2", "rule r1: f(x) -[0]-> x",
        "rule r2: f(h(x, y)) -[2]-> x"]))
    # f(h(a, b)) reduces to h(a, b) and to a, two normal forms
    a, b = _const("a"), _const("b")
    assert valley_distance(sys, _f("h", a, b), a).kind == UNREACHABLE
    assert not any(join_check(sys, p, 6).kind == "joinable"
                   for p in critical_pairs(sys))
    assert confluence_report(sys).certificate == "inconclusive"


@pytest.mark.xfail(strict=True, reason="a strong-closure meet may bind a "
                   "peak variable (ROADMAP item 1)")
def test_barycentric_projection_peaks_are_not_strongly_closed():
    # +{1}(x0,y1) steps to x0 by proj and to +{0}(y1,x0) by comm[e=1] (or
    # to +{1}(z,y1) by perturb[e=1]); x0 reaches neither, and the other
    # side reaches x0 only in two steps, comm or perturb and then proj
    sys = make_barycentric()
    peaks = [p for p in critical_pairs(sys)
             if {p.inner_rule, p.outer_rule} in ({"comm[e=1]", "proj"},
                                                  {"perturb[e=1]", "proj"})]
    assert len(peaks) == 4  # each pair in both orders
    assert not any(strongly_closed_check(sys, p, 6).holds for p in peaks)


# ---------------------------------------------------------------------------
# a certificate oracle: each certificate checked on the ground terms it covers

NEWMAN = "confluent by CP+Newman at explored scale"
STRONG = "confluent by strong closure"


def _random_term(rng, size, leaf):
    """A random term of ``size`` symbols over f/1 and h/2 above the leaves
    ``leaf()`` draws."""
    if size == 1:
        return leaf()
    if size == 2 or rng.random() < 0.5:
        return f"f({_random_term(rng, size - 1, leaf)})"
    k = rng.randrange(1, size - 1)
    return (f"h({_random_term(rng, k, leaf)}, "
            f"{_random_term(rng, size - 1 - k, leaf)})")


def _symbols(side):
    return sum(map(side.count, "abcfh"))


def _random_linear_rule(rng, rid):
    """A linear rule over a, b, c, f/1 and h/2 of weight 0 to 2, whose left
    side has 2 to 4 symbols and whose right side has no more non-variable
    symbols and neither invents nor duplicates a variable: so no step
    makes a ground term larger."""
    size, names = rng.randrange(2, 5), iter("xyz")
    lhs = _random_term(rng, size, lambda: (
        next(names) if rng.random() < 0.5 else rng.choice("abc")))
    while True:
        free = [v for v in "xyz" if v in lhs]
        rng.shuffle(free)
        rhs = _random_term(rng, rng.randrange(1, size + 1), lambda: (
            free.pop() if free and rng.random() < 0.5 else rng.choice("abc")))
        if rhs != lhs and _symbols(rhs) <= _symbols(lhs):
            return f"rule {rid}: {lhs} -[{rng.randrange(3)}]-> {rhs}"


def _ground_terms_up_to(max_size):
    """Every ground term over a, b, c, f/1 and h/2 of at most ``max_size``
    symbols."""
    by_size = {1: [_const(c) for c in "abc"]}
    for n in range(2, max_size + 1):
        by_size[n] = [_f("f", u) for u in by_size[n - 1]] + [
            _f("h", u, v) for k in range(1, n - 1)
            for u in by_size[k] for v in by_size[n - 1 - k]]
    return [t for n in sorted(by_size) for t in by_size[n]]


@pytest.fixture(scope="module")
def certificate_oracle():
    """For 200 seeded random systems of 2 to 4 linear rules, the report's
    certificate and, where it names one, whether the graph of every ground
    term of at most 5 symbols passes ``FiniteQRel.confluent_check``.  No
    step makes a ground term larger, so those terms are closed under
    steps, and a confluent system passes."""
    rng = random.Random("certificate-oracle")
    universe = _ground_terms_up_to(5)
    header = ["system oracle", "quantale lawvere", "symbol a/0",
              "symbol b/0", "symbol c/0", "symbol f/1", "symbol h/2"]
    out = []
    for _ in range(200):
        rules = [_random_linear_rule(rng, f"r{i}")
                 for i in range(rng.randrange(2, 5))]
        sys = parse_system("\n".join(header + rules))
        certificate = confluence_report(sys, universe).certificate
        holds = None
        if certificate != "inconclusive":
            rel, exhausted = term_graph(sys, universe, max_terms=None)
            assert exhausted and len(rel.carrier) == len(universe), rules
            holds = rel.confluent_check()
        out.append((rules, certificate, holds))
    return out


def test_every_certificate_but_strong_closure_holds_on_the_ground_terms(
        certificate_oracle):
    tally = Counter((c, holds) for _, c, holds in certificate_oracle)
    refuted = [(rules, c) for rules, c, holds in certificate_oracle
               if holds is False and c != STRONG]
    assert not refuted, (refuted, tally)
    assert tally[NEWMAN, True] > 0, tally  # the oracle is not vacuous


@pytest.mark.xfail(strict=True, reason="a strong-closure meet may bind a "
                   "peak variable (ROADMAP item 1)")
def test_no_strong_closure_certificate_is_refuted(certificate_oracle):
    tally = Counter((c, holds) for _, c, holds in certificate_oracle)
    refuted = [rules for rules, c, holds in certificate_oracle
               if holds is False and c == STRONG]
    assert not refuted, (refuted[:3], tally)
