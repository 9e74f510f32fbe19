"""Tests for distance search, normalization, and witness checking."""

import dataclasses
import functools
import heapq
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qtrw import invariants, qtrs, search
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
from qtrw.dsl import parse_grid, parse_system, parse_term
from qtrw.quantale import INF, get_quantale
from qtrw.systems import (
    CATALOG,
    DNA_BASES,
    dna_term,
    make_barycentric,
    make_dna,
    make_nat,
    nat_term,
    oracle_hamming,
    oracle_levenshtein,
)
from qtrw.qtrs import critical_pairs, one_step, subterm_pool, term_graph
from qtrw.term import Application, Symbol, Variable, term_key, term_size

from test_qtrs import SMALL_GRIDS


def _add(a, b):
    return Application(Symbol("A", 2), (a, b))


NAT_BUDGET = SearchBudget(max_expanded=5000, max_depth=20, max_term_size=8)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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


def _bounded_and_unbounded(monkeypatch, sys, s, t, budget):
    """``reduction_distance`` as it runs, asking ``one_step`` only for the
    steps in bounds, and with every step from ``_relaxations``, which a
    side with meets (here never offered) uses.  Checks that each run went
    its way through ``one_step``.  The symbol-count invariants are forced
    off, so that a query they would settle still runs both searches."""
    monkeypatch.setattr(invariants, "differ", lambda *args: False)
    real = search.one_step
    bounds = []
    monkeypatch.setattr(search, "one_step", lambda *args, **kwargs: (
        bounds.append(kwargs.get("within")) or real(*args, **kwargs)))

    class Unbounded(search._SideSearch):
        def __init__(self, sys, *args):
            super().__init__(sys, *args, meets=search._Meets(sys.quantale))

    bounded = reduction_distance(sys, s, t, budget)
    assert bounds and None not in bounds
    bounds.clear()
    with monkeypatch.context() as m:
        m.setattr(search, "_SideSearch", Unbounded)
        unbounded = reduction_distance(sys, s, t, budget)
    assert set(bounds) <= {None}
    return bounded, unbounded


def _agree(monkeypatch, sys, queries, cutoffs, **bounds):
    """Both paths give equal answers (kind, value, expansions and witness)
    on every query under every cutoff; returns the answers."""
    answers = []
    for s, t in queries:
        for cutoff in cutoffs:
            budget = SearchBudget(weight_cutoff=cutoff, **bounds)
            got, want = _bounded_and_unbounded(monkeypatch, sys, s, t, budget)
            assert got == want, (str(s), str(t), cutoff)
            answers.append(got)
    return answers


def test_a_lighter_step_pruned_to_a_kept_target_does_not_truncate(
        monkeypatch):
    # f(b) is kept by cheap at 0; dear's step there at 5 is over the
    # cutoff but no pruned target, so the search is still complete
    sys = _system("a b c d", "rule cheap: a -[0]-> b", "rule dear: a -[5]-> b",
                  "rule stop: b -[0]-> c")
    f_a = parse_term("f(a)", sys.signature)
    budget = SearchBudget(weight_cutoff=2)
    # the count of f tells f(a) from d without a search
    ans = reduction_distance(sys, f_a, _const("d"), budget)
    assert (ans.kind, ans.value, ans.expanded) == (UNREACHABLE, None, 0)
    ans, _ = _bounded_and_unbounded(monkeypatch, sys, f_a, _const("d"), budget)
    assert (ans.kind, ans.value, ans.expanded) == (UNREACHABLE, None, 3)
    f_c = parse_term("f(c)", sys.signature)
    ans, _ = _bounded_and_unbounded(monkeypatch, sys, f_a, f_c, budget)
    assert (ans.kind, ans.value) == (EXACT, 0)
    assert [w.rule_id for w in ans.witness] == ["cheap", "stop"]
    _agree(monkeypatch, sys, [(f_a, _const("d")), (f_a, f_c)], (0, 2, 5, 6))


def test_bounded_additions_on_numerals_match_the_unbounded_search(
        monkeypatch):
    sys = make_nat()
    queries = [(_add(nat_term(n), nat_term(m)), nat_term(k))
               for n in range(4) for m in range(4)
               for k in {n + m, max(n + m - 1, 0)}]
    answers = _agree(monkeypatch, sys, queries, (0, 1), max_depth=30)
    assert {a.kind for a in answers} == {EXACT, BUDGET_EXHAUSTED}
    # the size bound prunes steps the cutoff keeps
    _agree(monkeypatch, sys, queries, (0, 1), max_term_size=6)


def test_bounded_graded_search_prunes_by_the_scaled_weight(monkeypatch):
    # under !{3} the step I -> K weighs 3: over the cutoff 2, though the
    # rule weighs 1, and noted as 3, so the cost-2 answer is exact
    text = (SAMPLES / "graded-combinators.qtrs").read_text()
    sys = parse_system(text + "\nrule i2k: I -[1]-> K\n")

    def term(src):
        return parse_term(src, sys.signature)

    s = term("(!{3}(I) app I) app I")
    ans, _ = _bounded_and_unbounded(
        monkeypatch, sys, s, term("(!{3}(I) app K) app K"),
        SearchBudget(weight_cutoff=2))
    assert (ans.kind, ans.value) == (EXACT, 2)
    targets = [term(src) for src in (
        "(!{3}(I) app K) app K", "(!{3}(K) app I) app K",
        "(!{0}(K) app I) app K", "!{2}(K app K)")]
    sources = [s, term("(!{0}(I) app I) app I"), term("!{2}(I app I)")]
    answers = _agree(monkeypatch, sys,
                     [(u, v) for u in sources for v in targets],
                     (0, 1, 2, 3, 4), max_expanded=500)
    assert {EXACT, BUDGET_EXHAUSTED} <= {a.kind for a in answers}


def test_a_pruned_pool_pick_beside_a_kept_one_truncates(monkeypatch):
    # pick's z comes from the pool a, d, f(a): g(a) is kept by free, but
    # g(d) and g(f(a)) are pruned targets, so d may lie behind the cutoff
    sys = _system("a d", "rule pick: f(x) -[3]-> g(z)",
                  "rule free: f(a) -[0]-> g(a)")
    f_a = parse_term("f(a)", sys.signature)
    ans, _ = _bounded_and_unbounded(monkeypatch, sys, f_a, _const("d"),
                                    SearchBudget(weight_cutoff=2))
    assert (ans.kind, ans.expanded) == (BUDGET_EXHAUSTED, 2)
    _agree(monkeypatch, sys, [(f_a, _const("d")), (f_a, _const("a"))],
           (0, 2, 3))


def test_bounded_barycentric_search_matches_the_unbounded_search(
        monkeypatch):
    # perturb invents z, filled from the pool, and weighs its parameter
    sys = make_barycentric()

    def term(src):
        return parse_term(src, sys.signature)

    sources = [term("+{1/2}(x, y)"), term("+{1/3}(+{1/2}(x, y), y)")]
    targets = [term("+{1/2}(y, y)"), term("+{1/2}(x, +{1/2}(x, y))"),
               term("+{2/3}(y, +{1/2}(x, y))"), term("x")]
    answers = _agree(monkeypatch, sys,
                     [(u, v) for u in sources for v in targets],
                     (0, Fraction(1, 4), Fraction(1, 2), 1),
                     max_expanded=200)
    assert {EXACT, BUDGET_EXHAUSTED} <= {a.kind for a in answers}


# ---------------------------------------------------------------------------
# the term-size limit: no step past it is built


DISTANCES = (convertibility_distance, valley_distance, reduction_distance)


def _rand_dna(rng, n):
    return "".join(rng.choice(DNA_BASES) for _ in range(n))


def _skip_agrees(monkeypatch, make, queries):
    """Runs every query (distance, s, t, budget) in turn on one fresh system
    built by ``make``, building no step past ``_skip_limit``, then again on
    another with the limit forced to None, so that the per-step size check
    in ``_SideSearch.pop`` prunes every step past the cap.  Checks that the
    answers are equal (kind, value, expansions and witness) and that the
    first runs built fewer steps (``replace_at`` calls in ``qtrs``)."""
    real = qtrs.replace_at
    runs = []
    for skip in (True, False):
        built = []
        sys = make()
        with monkeypatch.context() as m:
            m.setattr(qtrs, "replace_at",
                      lambda *args: built.append(None) or real(*args))
            if not skip:
                m.setattr(search, "_skip_limit", lambda *args: None)
            answers = [distance(sys, s, t, budget)
                       for distance, s, t, budget in queries]
        runs.append((answers, len(built)))
    (got, skipping), (want, pruning) = runs
    for query, a, b in zip(queries, got, want):
        assert a == b, (query[0].__name__, str(query[1]), str(query[2]))
    assert skipping < pruning
    return got


def _capped_queries(s, t, caps, cutoffs=(None,), **bounds):
    return [(distance, s, t, SearchBudget(max_term_size=cap,
                                          weight_cutoff=cutoff, **bounds))
            for distance in DISTANCES for cap in caps for cutoff in cutoffs]


def test_no_step_past_the_size_limit_is_built_and_answers_stay(monkeypatch):
    rng = random.Random("size-limit")
    queries = []
    for ls, lt in ((2, 3), (3, 3), (4, 3), (5, 2)):
        s, t = (_rand_dna(rng, n) for n in (ls, lt))
        # caps one above the larger term's size, at it, and below s's
        caps = {max(ls, lt) + 2, max(ls, lt) + 1, ls}
        queries += _capped_queries(dna_term(s), dna_term(t), caps, (None, 2),
                                   max_expanded=300, max_depth=8)
    answers = _skip_agrees(monkeypatch, lambda: make_dna("levenshtein"),
                           queries)
    assert {EXACT, UPPER_BOUND, BUDGET_EXHAUSTED} <= {a.kind for a in answers}
    assert any(term_size(s) > b.max_term_size for _, s, _, b in queries)

    queries = []
    for n, m, k in ((2, 1, 3), (1, 2, 2), (3, 0, 1)):
        queries += _capped_queries(_add(nat_term(n), nat_term(m)),
                                   nat_term(k), (4, 6, 8), (None, 1),
                                   max_expanded=500, max_depth=20)
    answers = _skip_agrees(monkeypatch, make_nat, queries)
    assert {EXACT, UPPER_BOUND, BUDGET_EXHAUSTED} <= {a.kind for a in answers}


def test_no_step_past_the_size_limit_is_built_on_invented_variables_and_grades(
        monkeypatch):
    bary = make_barycentric()

    def term(sys, src):
        return parse_term(src, sys.signature)

    # perturb invents z, filled from the pool
    pairs = [("+{1/3}(+{1/2}(x, y), y)", "+{1/2}(x, +{1/2}(x, y))"),
             ("+{1/2}(x, y)", "+{1/2}(y, y)")]
    queries = [q for s, t in pairs
               for q in _capped_queries(term(bary, s), term(bary, t), (3, 5),
                                        (None, Fraction(1, 2)),
                                        max_expanded=60)]
    answers = _skip_agrees(monkeypatch, make_barycentric, queries)
    assert {EXACT, UPPER_BOUND, BUDGET_EXHAUSTED} <= {a.kind for a in answers}

    # grades scale the weights the limit skips; wrap grows a term
    text = (SAMPLES / "graded-combinators.qtrs").read_text() + "\n".join((
        "", "rule i2k: I -[1]-> K", "rule k2i: K -[1]-> I",
        "rule wrap: I -[1]-> !{1}(I)", ""))
    combi = parse_system(text)
    pairs = [("(!{3}(I) app I) app I", "(!{3}(I) app K) app K"),
             ("!{2}(I app I)", "!{2}(K app K)")]
    queries = [q for s, t in pairs
               for q in _capped_queries(term(combi, s), term(combi, t),
                                        (5, 7), (None, 3), max_expanded=200)]
    answers = _skip_agrees(monkeypatch, lambda: parse_system(text), queries)
    assert {EXACT, UPPER_BOUND, BUDGET_EXHAUSTED} <= {a.kind for a in answers}


def test_step_lists_a_size_limit_cut_are_cached_apart():
    # criterion 3's shape: Hamming pairs of equal and of unequal lengths,
    # under caps one above each pair's longer string, share one system.  No
    # Hamming step changes a term's size, so no limit cuts a list, and
    # every list is cached under the key every cap shares
    sys = make_dna("hamming")
    rng = random.Random("size-limit-keys")
    for n in range(1, 6):
        for lt in (n, n + 1):
            s, t = _rand_dna(rng, n), _rand_dna(rng, lt)
            convertibility_distance(sys, dna_term(s), dna_term(t),
                                    _dna_budget(s, t))
    assert sys.relaxations
    assert all(isinstance(key[0], bool) for key in sys.relaxations)

    # a Levenshtein term at the limit: its insertions are left out, and
    # their best weight is reported
    sys = make_dna("levenshtein")
    q = sys.quantale
    t = dna_term("ACG")
    limit = term_size(t)
    entry = search._relaxations(sys, True, t, [], limit=limit)
    steps, over = entry.steps, entry.past
    unbounded = search._relaxations(sys, True, t, [])
    full = unbounded.steps
    assert unbounded.past == unbounded.invented == entry.invented == ()
    dropped = [step for step in full if term_size(step.target) > limit]
    assert dropped
    assert steps == [step for step in full
                     if term_size(step.target) <= limit]
    # the best skipped weight of each rule and direction, the insertions
    best = {}
    for step in dropped:
        key = (step.rule_id, step.direction == "backward")
        best[key] = q.join2(best.get(key, q.bottom), step.weight)
    assert dict(over) == best == {(f"ins{b}", False): 1 for b in DNA_BASES}
    assert set(sys.relaxations) == {(False, t), ((False, t), limit)}
    # the 28 insertions into a length-6 term fold to 4 entries in one_step
    t = dna_term("ACGTAC")
    over = {}
    assert len(one_step(sys, t)) == 28 + 6 + 18
    assert len(one_step(sys, t, max_size=term_size(t),
                        _oversized=over)) == 6 + 18
    assert over == {(f"ins{b}", False): 1 for b in DNA_BASES}


def _assert_entry_splits_the_unbounded_steps(sys, t, limit, memo):
    """``t``'s cache entry under ``limit`` is the unbounded ``one_step``
    lists split by the limit: the steps within it, the best weight per rule
    and direction of those past it, and, once built, those steps."""
    q, pool = sys.quantale, subterm_pool(t)
    full, invented = [], {}
    for backward in (False,) if sys.self_inverse else (False, True):
        over = {}  # with no limit, only the redexes whose variables invent
        full += one_step(sys, t, pool, backward=backward, memo=memo,
                         _oversized=over)
        invented.update({move[:2]: w for move, w in over.items()})
    past = {}
    for step in full:
        if term_size(step.target) > limit:
            key = (step.rule_id, step.direction == "backward")
            past[key] = q.join2(past.get(key, q.bottom), step.weight)
    entry = search._relaxations(sys, True, t, pool, memo, limit)
    assert entry.steps == search._by_target(
        [step for step in full if term_size(step.target) <= limit], q)
    assert (dict(entry.past), dict(entry.invented)) == (past, invented)
    assert entry.beyond is None
    if past:
        side = search._SideSearch(sys, t, True, pool, SearchBudget(), memo,
                                  limit)
        assert search._steps_past(side, t, entry) == [
            step for step in full if term_size(step.target) > limit]
    return bool(past), bool(invented)


def test_a_cache_entry_is_the_unbounded_steps_split_by_the_limit():
    # every sample's peak terms (on the golden harness's smaller grids), at
    # their own size and one above, and the DNA strings up to 4 bases at
    # the limit of 5 symbols
    seen = [0, 0]
    for name in sorted(CATALOG):
        sys = CATALOG[name]()
        if name in SMALL_GRIDS:
            sys = dataclasses.replace(sys, grid=parse_grid(SMALL_GRIDS[name]))
        memo = {}
        terms = sorted({u for p in critical_pairs(sys)
                        for u in (p.source, p.left[0], p.right[0])}, key=str)
        for i, u in enumerate(terms):
            flags = _assert_entry_splits_the_unbounded_steps(
                sys, u, term_size(u) + i % 2, memo)
            seen = [a + b for a, b in zip(seen, flags)]
    sys, memo = make_dna("levenshtein"), {}
    for n in range(5):
        for bases in itertools.product(DNA_BASES, repeat=n):
            _assert_entry_splits_the_unbounded_steps(
                sys, dna_term("".join(bases)), 5, memo)
    assert min(seen) > 10, seen  # steps past the limit, and ones inventing


def test_steps_past_the_limit_are_built_once_per_entry(monkeypatch):
    sys = make_dna("levenshtein")
    t = dna_term("ACG")
    side = search._SideSearch(sys, t, True, [], SearchBudget(), {},
                              term_size(t))
    entry = search._relaxations(sys, True, t, [], limit=term_size(t))
    calls = []
    monkeypatch.setattr(search, "one_step",
                        lambda *a, **k: calls.append(a) or one_step(*a, **k))
    first = search._steps_past(side, t, entry)
    assert len(first) == 4 * 4 and len(calls) == 1  # forward only
    assert search._steps_past(side, t, entry) is first
    assert len(calls) == 1 and entry.beyond is first
    # a proof that builds them keeps them in its terms' entries, and the
    # same query again finds every list it needs in the cache
    s, t = dna_term("ACCG"), dna_term("CATG")
    ans = convertibility_distance(sys, s, t, _dna_budget("ACCG", "CATG"))
    assert (ans.kind, ans.value) == (EXACT, 3)
    built = [e for e in sys.relaxations.values() if e.beyond is not None]
    assert built and all(e.past for e in built)
    calls.clear()
    assert convertibility_distance(sys, s, t,
                                   _dna_budget("ACCG", "CATG")) == ans
    assert calls == []


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


def _witness_weight(sys, ans):
    """The tensor of an answer's witness step weights."""
    q = sys.quantale
    return functools.reduce(q.tensor, (w.weight for w in ans.witness), q.unit)


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
        assert _witness_weight(sys, ans) == ans.value, (s, t)


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


def _system(constants, *rules):
    """A Lawvere system of the ``constants`` and the unary ``f`` and ``g``."""
    return parse_system("\n".join(
        ["system test", "quantale lawvere", "symbol f/1", "symbol g/1"]
        + [f"symbol {c}/0" for c in constants.split()] + list(rules)))


def _const(name):
    return Application(Symbol(name, 0), ())


def test_valley_is_not_cut_short_by_a_cheaply_settled_reduct():
    # s reaches u at 0, but t reaches u only after five steps of 1, while
    # the valley by w costs 3 + 4: stopping at the tensor of the two
    # frontier minima would settle for w
    sys = _system("s t u w y x1 x2 x3 x4",
                  "rule a: s -[0]-> u", "rule b: s -[3]-> w",
                  "rule c: s -[10]-> y", "rule d: t -[4]-> w",
                  "rule e: t -[1]-> x1", "rule h1: x1 -[1]-> x2",
                  "rule h2: x2 -[1]-> x3", "rule h3: x3 -[1]-> x4",
                  "rule h4: x4 -[1]-> u")
    s, t = _const("s"), _const("t")
    for search in (valley_distance, convertibility_distance):
        ans = search(sys, s, t)
        assert (ans.kind, ans.value) == (EXACT, 5), search
        assert validate_witness(sys, s, t, ans.witness)
        assert ans.witness[0].rule_id == "a"


def test_conversion_behind_a_cutoff_on_both_sides_is_no_proof():
    # the direct step weighs 7, over the cutoff 5 from either end, so each
    # side prunes it; the meet m then offers 8, which is no proof
    sys = _system("s m t", "rule a: s -[4]-> m", "rule b: m -[4]-> t",
                  "rule c: s -[7]-> t")
    s, t = _const("s"), _const("t")
    ans = convertibility_distance(sys, s, t, SearchBudget(weight_cutoff=5))
    assert (ans.kind, ans.value) == (UPPER_BOUND, 8)
    assert validate_witness(sys, s, t, ans.witness)
    assert convertibility_distance(sys, s, t).value == 7


def test_conversion_past_the_cap_between_the_two_ends_is_no_proof():
    # both ends are past the cap, and the direct step between them, pruned
    # by size from either end, still ends at the other side's start; so it
    # is built (see ``_skip_limit``), and the meet m at 3/2 is no proof
    sys = _system("s m t", "rule a: f(s) -[1/2]-> m", "rule b: g(t) -[1]-> m",
                  "rule c: f(s) -[1]-> g(t)")
    s, t = parse_term("f(s)", sys.signature), parse_term("g(t)", sys.signature)
    ans = convertibility_distance(sys, s, t, SearchBudget(max_term_size=1))
    assert (ans.kind, ans.value) == (UPPER_BOUND, Fraction(3, 2))
    assert validate_witness(sys, s, t, ans.witness)
    assert convertibility_distance(sys, s, t).value == 1


def _ground_terms(max_size):
    out = [_const(c) for c in "abc"]
    layer = out
    for _ in range(max_size - 1):
        layer = [Application(Symbol(f, 1), (u,)) for f in "fg" for u in layer]
        out = out + layer
    return out


def _ground_systems(rng, trials):
    """``trials`` random ground systems, with their rules, of rules that
    never grow a term: the terms of size at most 3 (``_ground_terms(3)``)
    are closed under their forward steps."""
    small = _ground_terms(2)
    for _ in range(trials):
        rules = []
        for i in range(rng.randrange(3, 8)):
            lhs = rng.choice(small)
            rhs = rng.choice([u for u in small
                              if term_size(u) <= term_size(lhs) and u != lhs])
            weight = rng.choice((1, 2, 3))
            rules.append(f"rule r{i}: {lhs} -[{weight}]-> {rhs}")
        yield rules, _system("a b c", *rules)


def _oracle_trials(seed, searches):
    """Random ground systems (``_ground_systems``), whose graph on the
    terms of size at most 3 ``term_graph`` explores in full.  A search
    limited to that size sees the same graph; its exact answers equal the
    closure that ``searches`` names for it on that graph, its upper bounds
    are no better, and its witnesses replay.  ``searches`` maps a name to
    the search and its closure of ``R``.  Returns how many answers of each
    kind were checked."""
    rng = random.Random(seed)
    universe = _ground_terms(3)
    checked = {EXACT: 0, UPPER_BOUND: 0, UNREACHABLE: 0}
    for trial, (rules, sys) in enumerate(_ground_systems(rng, 60)):
        q = sys.quantale
        rel, complete = term_graph(sys, universe, max_terms=None)
        assert complete
        oracles = {mode: closure(rel)
                   for mode, (_, closure) in searches.items()}
        for _ in range(20):
            s, t = rng.choice(universe), rng.choice(universe)
            cutoff = rng.choice((None, 1, 2, 3, 4, 5))
            budget = SearchBudget(max_term_size=3, weight_cutoff=cutoff)
            for mode, (distance, _) in searches.items():
                ans = distance(sys, s, t, budget)
                want = oracles[mode](str(s), str(t))
                case = (trial, mode, str(s), str(t), rules, budget)
                if ans.kind == EXACT:
                    assert ans.value == want, case
                elif ans.kind == UPPER_BOUND:
                    assert not q.strictly_below(want, ans.value), case
                elif ans.kind == UNREACHABLE:
                    assert want is INF, case
                if ans.value is not None:
                    assert validate_witness(sys, s, t, ans.witness), case
                    assert _witness_weight(sys, ans) == ans.value, case
                checked[ans.kind] = checked.get(ans.kind, 0) + 1
    return checked


def _valleys(rel):
    star = rel.star()
    return star.compose(star.transpose())


def _oracle_trials_both_ways(monkeypatch, seed, searches):
    """``_oracle_trials`` as the searches run, then again with the
    symbol-count invariants forced off, so that every query they settle
    without a search is searched too.  Returns both runs' counts."""
    first = _oracle_trials(seed, searches)
    with monkeypatch.context() as m:
        m.setattr(invariants, "differ", lambda *args: False)
        return first, _oracle_trials(seed, searches)


def test_meet_searches_agree_with_closures_of_the_explored_graph(
        monkeypatch):
    """Conversions answer ``(R + R^T)*`` and valleys ``R* ; (R*)^T``, also
    with the potential off, where only the prunes' weights bound."""
    searches = {"convert": (convertibility_distance,
                            lambda rel: rel.equivalence_closure()),
                "valley": (valley_distance, _valleys)}
    runs = _oracle_trials_both_ways(monkeypatch, "meet-search-oracle",
                                    searches)
    with monkeypatch.context() as m:
        _no_potential(m)
        runs += (_oracle_trials("meet-search-oracle", searches),)
    for checked in runs:
        assert min(checked[k] for k in (EXACT, UPPER_BOUND, UNREACHABLE)) > 0


def test_directed_searches_agree_with_closures_of_the_explored_graph(
        monkeypatch):
    """Reductions answer ``R*``, with the weight cutoff applied as
    ``one_step`` skips redexes."""
    for checked in _oracle_trials_both_ways(monkeypatch, "directed-oracle", {
            "directed": (reduction_distance, lambda rel: rel.star())}):
        assert min(checked[k] for k in (EXACT, UNREACHABLE)) > 0


@pytest.fixture
def sides(monkeypatch):
    """The ``_SideSearch``es the searches make, each with its start term."""
    made = []

    class Recorded(search._SideSearch):
        def __init__(self, sys, start, *args, **kwargs):
            super().__init__(sys, start, *args, **kwargs)
            self.start = start
            made.append(self)

    monkeypatch.setattr(search, "_SideSearch", Recorded)
    return made


def _labels_replay(sys, sides):
    """Every label of every side replays: its ``path`` chains from the
    side's start, one step per unit of depth, each a step ``one_step``
    makes from its source, and its weights tensor to the label's.  Returns
    how many labels were checked, and empties ``sides``."""
    q = sys.quantale
    checked = 0
    for side in sides:
        made = {}  # the steps from a source in a direction, built once
        for term, (weight, depth, _) in side.dist.items():
            path = side.path(term)
            assert len(path) == depth, (str(side.start), str(term))
            cur, w = side.start, q.unit
            for step in path:
                assert step.source == cur, (str(side.start), str(term))
                key = (cur, step.direction == "backward")
                if key not in made:
                    made[key] = set(one_step(
                        sys, cur, side.pool, backward=key[1]))
                assert step in made[key]
                cur, w = step.target, q.tensor(w, step.weight)
            assert (cur, w) == (term, weight), (str(side.start), str(term))
            checked += 1
    sides.clear()
    return checked


def test_every_label_replays_to_its_weight(sides, monkeypatch):
    """Conversions, valleys and reductions, with and without a cutoff, on
    random ground systems and on barycentric with a larger pool.  The
    symbol-count invariants are forced off, as they would settle many of
    the ground queries before any label is set."""
    monkeypatch.setattr(invariants, "differ", lambda *args: False)
    rng = random.Random("label-replay")
    universe = _ground_terms(3)
    checked = 0
    for _, sys in _ground_systems(rng, 20):
        for _ in range(5):
            s, t = rng.choice(universe), rng.choice(universe)
            for cutoff in (None, rng.choice((1, 2, 3))):
                budget = SearchBudget(max_term_size=3, weight_cutoff=cutoff)
                for distance in (convertibility_distance, valley_distance,
                                 reduction_distance):
                    distance(sys, s, t, budget)
                    checked += _labels_replay(sys, sides)
    sys = make_barycentric()

    def term(src):
        return parse_term(src, sys.signature)

    s, t = term("+{1/3}(+{1/2}(x, y), y)"), term("+{1/2}(x, +{1/2}(x, y))")
    pool = subterm_pool(s, t, term("+{1/2}(y, x)"))
    for cutoff in (None, Fraction(1, 2)):
        budget = SearchBudget(max_expanded=60, weight_cutoff=cutoff)
        for symmetric in (True, False):
            search._meet_search(sys, s, t, budget, symmetric, pool=pool)
            checked += _labels_replay(sys, sides)
        reduction_distance(sys, s, t, budget)
        checked += _labels_replay(sys, sides)
    assert checked > 1000, checked


def test_hamming_conversions_stop_a_cheapest_step_early():
    # every Hamming step costs 1, so a conversion stops once no meet one
    # step past both frontiers can win: 2,908 expansions on these pairs,
    # against 6,314 when it waits for the frontier minima alone
    sys = make_dna("hamming")
    rng = random.Random("hamming-expansions")
    expanded = 0
    for _ in range(24):
        n = rng.randrange(4, 8)
        s = "".join(rng.choice(DNA_BASES) for _ in range(n))
        t = "".join(rng.choice(DNA_BASES) for _ in range(n))
        ans = convertibility_distance(sys, dna_term(s), dna_term(t),
                                      _dna_budget(s, t))
        assert (ans.kind, ans.value) == (EXACT, oracle_hamming(s, t))
        expanded += ans.expanded
    assert expanded <= 3200, expanded


# ---------------------------------------------------------------------------
# symbol-count invariants


_ONE_VARIABLE = ("f(x)", "g(x)", "f(g(x))", "g(f(x))", "f(f(x))", "g(g(x))")


def _separated(sys, s, t):
    return invariants.differ(sys.invariants, s, t)


def _symbols(src):
    return sum(ch.isalpha() for ch in src)


def _balanced_systems(rng, trials):
    """``trials`` random systems of 1 to 4 rules over ``a b c``, ``f`` and
    ``g``, with their rules, in which every variable occurs as often on
    both sides: ground rules, rules on one variable such as ``f(x) ->
    g(x)`` and ``f(g(x)) -> x``, and variable left-hand sides such as ``x
    -> f(x)``.  Only a variable left-hand side has a right-hand side larger
    than itself."""
    ground = [str(u) for u in _ground_terms(2)]
    for _ in range(trials):
        rules = []
        for i in range(rng.randrange(1, 5)):
            kind = rng.random()
            if kind < 0.9:
                lhs = rng.choice(ground if kind < 0.4 else _ONE_VARIABLE)
                sides = ground if kind < 0.4 else ("x",) + _ONE_VARIABLE
                rhs = rng.choice([u for u in sides if u != lhs
                                  and _symbols(u) <= _symbols(lhs)])
            else:
                lhs, rhs = "x", rng.choice(_ONE_VARIABLE)
            rules.append(f"rule r{i}: {lhs} -[{rng.choice((1, 2))}]-> {rhs}")
        yield rules, _system("a b c", *rules)


def test_symbol_count_invariants_never_separate_convertible_terms():
    """Every pair of ground terms of size at most 3 that the invariants
    separate has no path in the equivalence closure of the graph
    ``term_graph`` explores from all of them: in full, or one step deep where
    a variable left-hand side grows terms without end.  The searches answer
    each such pair ``unreachable`` after no expansion."""
    rng = random.Random("invariant-oracle")
    universe = _ground_terms(3)
    separated = complete = 0
    for rules, sys in _balanced_systems(rng, 40):
        assert sys.invariants is not None, rules
        rel, exhausted = term_graph(
            sys, universe, max_terms=None,
            depth=1 if sys.variable_lhs_rules() else None)
        complete += exhausted
        closure = rel.equivalence_closure()
        for s in universe:
            for t in universe:
                if not _separated(sys, s, t):
                    continue
                separated += 1
                assert closure(str(s), str(t)) is INF, (rules, str(s), str(t))
                for distance in DISTANCES:
                    assert distance(sys, s, t) == DistanceAnswer(
                        UNREACHABLE, None, (), 0)
    print(f"{separated} separated pairs, {complete} of 40 graphs in full")
    assert separated > 0 and 0 < complete < 40


def test_invariants_are_none_exactly_on_samples_with_an_unbalanced_rule():
    # proj erases y, collapse duplicates nothing but keeps one of two x,
    # and the combinators erase and duplicate their arguments
    unbalanced = {"barycentric", "bck", "bck-nat", "bck-nat-w",
                  "graded-combinators", "linearity-example", "semilattice"}
    for name, make in CATALOG.items():
        sys = make()
        assert ((sys.invariants is None)
                == any(r.delta is None for r in sys.rules)
                == (name in unbalanced)), name
    rules = {r.rid: r for r in make_barycentric().rules}
    assert rules["proj"].delta is None and rules["comm"].delta == {}
    sys = CATALOG["linearity-example"]()
    e, i = (Application(Symbol(c, 0), ()) for c in "ei")
    assert not _separated(sys, e, Application(Symbol("f", 2), (e, i)))


def test_a_rule_that_invents_a_variable_has_no_invariants():
    sys = _system("a b", "rule r: a -[1]-> f(x)")
    assert sys.rules[0].delta is None and sys.invariants is None
    assert not _separated(sys, _const("b"), _const("a"))
    sys = _system("a b", "rule r: f(x) -[1]-> g(x)")
    assert sys.invariants == ({"f": 1, "g": 1}, {"a": 1},
                              {"b": 1})


def test_hamming_invariants_count_length_and_levenshtein_only_nil():
    ham, lev = make_dna("hamming"), make_dna("levenshtein")
    assert lev.invariants == ({"nil": 1},)
    rng = random.Random("invariant-dna")
    for _ in range(50):
        s, t = (_rand_dna(rng, rng.randrange(0, 8)) for _ in range(2))
        assert _separated(ham, dna_term(s), dna_term(t)) == (
            len(s) != len(t)), (s, t)
        assert not _separated(lev, dna_term(s), dna_term(t))
    ans = convertibility_distance(ham, dna_term("ACGTAC"), dna_term("TTGCAAG"))
    assert ans == DistanceAnswer(UNREACHABLE, None, (), 0)


def test_schema_families_are_counted_without_their_parameters():
    sys = CATALOG["ticking"]()
    s, t = (parse_term(src, sys.signature) for src in ("w{7}(nil)", "w{0}(nil)"))
    assert sys.invariants == ({"nil": 1},)
    assert not _separated(sys, s, t)
    ans = reduction_distance(sys, s, t)
    assert (ans.kind, ans.value) == (EXACT, 7)


def test_invariants_walk_terms_deeper_than_the_recursion_limit():
    ham = make_dna("hamming")
    s, t = dna_term("A" * 5000), dna_term("C" * 5001)
    assert _separated(ham, s, t)
    assert not _separated(ham, s, dna_term("C" * 5000))
    assert valley_distance(ham, s, t).expanded == 0
    # #A - #Z is the one invariant of nat, and x is no Z
    nat = make_nat()
    deep = nat_term(5000)
    assert nat.invariants == ({"A": 1, "Z": -1},)
    assert not _separated(nat, _add(deep, nat_term(3)), deep)
    ans = reduction_distance(nat, _add(Variable("x"), deep), deep)
    assert ans == DistanceAnswer(UNREACHABLE, None, (), 0)


# ---------------------------------------------------------------------------
# the count potential


def _no_potential(m, keep_size=False):
    """Turns ``RewriteSystem.potential`` off under the monkeypatch context
    ``m``, on systems that have cached it too; with ``keep_size``, keeps
    its size term alone, λ·|P − N|, where λ is positive."""
    full = qtrs.RewriteSystem.potential.func

    def patched(sys):
        h = full(sys) if keep_size else None
        if h is None or not h.size_rate:
            return None
        return invariants.Potential(h.size_rate, 0, h.deltas)

    m.setattr(qtrs.RewriteSystem, "potential", property(patched))


def _no_apart(m):
    """Keeps meet searches, under the monkeypatch context ``m``, from
    telling a branch pruned past the limit from the others, as if they
    never cut the meets past it (``search._meets_past_limit``): each side's
    bound on the branches not pruned past the limit is then its bound on
    all, so the bound ``apart`` is the plain one."""
    def together(left, right, *args):
        for side in (left, right):
            side.best_pruned_within = side.best_pruned

    m.setattr(search, "_meets_past_limit", together)


def test_capped_dna_searches_agree_with_the_oracles(monkeypatch):
    """Levenshtein and Hamming conversions and valleys under caps that
    keep them from ever leaving the ends' lengths, or one symbol past, or
    none, with the full potential, its size term alone and none, and with
    the full potential but the branches past the limit not told apart.
    Every inverse of a rule is a rule of the same weight, so a valley is a
    conversion and the edit or mismatch distance too."""
    rng = random.Random("size-potential-oracle")
    queries = []
    for i in range(42):
        # the last 12 are Levenshtein conversions of equal lengths 3 to 6,
        # which an exit from either end leaves with a symbol to shed, so
        # that the size term alone bounds their exits at the cap lowest
        variant = rng.choice(("levenshtein", "hamming")) if i < 30 else (
            "levenshtein")
        ls = rng.randrange(7) if i < 30 else rng.randrange(3, 7)
        lt = ls if variant == "hamming" or i >= 30 else rng.randrange(7)
        s, t = _rand_dna(rng, ls), _rand_dna(rng, lt)
        want = (oracle_levenshtein if variant == "levenshtein"
                else oracle_hamming)(s, t)
        distances = ((convertibility_distance, valley_distance) if i < 30
                     else (convertibility_distance,))
        for cap in (max(ls, lt) + 1, max(ls, lt) + 2, None):
            budget = SearchBudget(max_expanded=400, max_depth=30,
                                  max_term_size=cap)
            queries.append((variant, s, t, want, budget, distances))

    def exact():
        """The answers that are exact, each checked."""
        out = set()
        for variant, s, t, want, budget, distances in queries:
            sys = make_dna(variant)
            for distance in distances:
                ans = distance(sys, dna_term(s), dna_term(t), budget)
                case = (distance.__name__, variant, s, t, budget)
                if ans.kind == EXACT:
                    assert ans.value == want, case
                    out.add(case)
                elif ans.kind == UPPER_BOUND:
                    assert ans.value >= want, case
                if ans.value is not None:
                    assert validate_witness(sys, dna_term(s), dna_term(t),
                                            ans.witness), case
                    assert _witness_weight(sys, ans) == ans.value, case
        return out

    full = exact()
    with monkeypatch.context() as m:
        _no_potential(m, keep_size=True)
        size = exact()
    with monkeypatch.context() as m:
        _no_potential(m)
        off = exact()
    with monkeypatch.context() as m:
        _no_apart(m)
        together = exact()
    print(f"exact: {len(full)} full, {len(size)} size term, {len(off)} off,"
          f" {len(together)} full with the branches past the limit not"
          f" apart, of {sum(len(q[-1]) for q in queries)}")
    # nothing is demoted, and the count term promotes past the size term
    assert full >= size >= off
    assert len(full) > len(size) > len(off)
    # nor by telling the branches past the limit apart, which promotes
    # past the full potential
    assert full > together


def test_size_rate_prices_a_symbol_on_additive_ungraded_plain_systems():
    lev = make_dna("levenshtein")
    assert lev.potential.size_rate == 1
    assert type(lev.potential.size_rate) is int
    # no rule changes size, but each substitution moves two counts
    ham = make_dna("hamming").potential
    assert (ham.size_rate, ham.count_rate) == (0, 1)
    for name in ("nat",  # a free rule changes size
                 "barycentric",  # a schema
                 "graded-combinators",  # graded
                 "linearity-example"):  # a duplicating rule
        assert CATALOG[name]().potential is None, name
    strong = dataclasses.replace(lev, quantale=get_quantale("strong-lawvere"))
    assert strong.potential is None
    free = _system("a b", "rule r: f(a) -[1]-> b", "rule s: g(a) -[0]-> a")
    assert free.potential is None
    # -1 at 3/2 and +2 at 1: one symbol is worth 1/2, and the larger of
    # the counts a step adds and removes, 2 and 2, is worth 1/2 too
    sys = _system("a", "rule r: f(a) -[3/2]-> a", "rule s: a -[1]-> f(g(a))")
    assert [sum(r.delta.values()) for r in sys.rules] == [-1, 2]
    assert sys.potential.size_rate == Fraction(1, 2)
    assert sys.potential.count_rate == Fraction(1, 2)


@pytest.mark.parametrize("s, t", [("CACG", "CCGCGG"), ("GATT", "TTAGTT"),
                                  ("CACGTC", "GCACC"), ("ACTACT", "ATTGT")])
def test_the_size_potential_proves_levenshtein_pairs_past_the_cap(
        s, t, monkeypatch):
    # a branch the cap prunes weighs less than 3, but ends in a term larger
    # than both ends, which the rest of a conversion must shrink back at 1
    # a symbol; without that charge, and with the branches past the limit
    # not told apart, the same search stops at an upper bound
    sys = make_dna("levenshtein")
    u, v = dna_term(s), dna_term(t)
    with monkeypatch.context() as m:
        _no_apart(m)
        ans = convertibility_distance(sys, u, v, _dna_budget(s, t))
        assert (ans.kind, ans.value) == (EXACT, 3)
        assert ans.expanded <= 10, ans.expanded
        assert validate_witness(sys, u, v, ans.witness)
        _no_potential(m)
        ans = convertibility_distance(sys, u, v, _dna_budget(s, t))
    assert (ans.kind, ans.value) == (UPPER_BOUND, 3)


@pytest.mark.parametrize("s, t, kind", [("AACG", "CTTG", EXACT),
                                        ("ACCG", "CATG", UPPER_BOUND)])
def test_the_count_potential_proves_equal_length_pairs_past_the_cap(
        s, t, kind, monkeypatch):
    # an insertion from either end leaves the cap at cost 1 with a symbol
    # to shed, so the size term bounds that exit at 2.  AACG and CTTG
    # differ in 2 more counts (A, A, C against C, T, T), which the rest
    # must fix at 1 each, so the exit costs 3 and the answer is exact.
    # ACCG and CATG differ in 1 (C against A, T), so the exit stays at 2,
    # and with the branches past the limit not told apart the answer is an
    # honest upper bound
    sys = make_dna("levenshtein")
    u, v = dna_term(s), dna_term(t)
    with monkeypatch.context() as m:
        _no_apart(m)
        ans = convertibility_distance(sys, u, v, _dna_budget(s, t))
        assert (ans.kind, ans.value) == (kind, oracle_levenshtein(s, t))
        assert validate_witness(sys, u, v, ans.witness)
        if kind == EXACT:
            assert ans.expanded <= 10, ans.expanded
            _no_potential(m, keep_size=True)
            ans = convertibility_distance(sys, u, v, _dna_budget(s, t))
            assert (ans.kind, ans.value) == (UPPER_BOUND, 3)


@pytest.mark.parametrize("s, t", [("ACCG", "CATG"), ("GAAAG", "GAGGA"),
                                  ("TCGCTG", "ACGTTC")])
def test_equal_length_pairs_past_the_cap_are_exact_with_the_branches_apart(
        s, t, monkeypatch):
    # the counts of each pair differ in 1 (C against A, T; A against G),
    # so an insertion from either end exits at 1 + 1 = 2.  A conversion
    # past the cap leaves it on one side and comes back on the other.  If
    # the two terms past the cap differ, at least a step lies between
    # them, and the conversion costs at least 1 + 1 + 1.  If they are one
    # term, both ends step into it, but no insertion into one end is one
    # into the other, or their distance would be 2.  So 3 is exact
    sys = make_dna("levenshtein")
    u, v = dna_term(s), dna_term(t)
    ans = convertibility_distance(sys, u, v, _dna_budget(s, t))
    assert (ans.kind, ans.value) == (EXACT, 3) == (EXACT, oracle_levenshtein(s, t))
    assert validate_witness(sys, u, v, ans.witness)
    with monkeypatch.context() as m:
        _no_apart(m)
        slow = convertibility_distance(make_dna("levenshtein"), u, v,
                                       _dna_budget(s, t))
    assert (slow.kind, slow.value) == (UPPER_BOUND, 3)
    assert slow.witness == ans.witness
    assert ans.expanded < slow.expanded


def test_a_side_breaks_weight_ties_toward_the_other_end():
    # every step weighs 1, so after the start each frontier term ties at
    # weight 1; the side pops them by the potential of their counts'
    # difference from the other end, least first, and keeps weight order
    sys = make_dna("levenshtein")
    s, t = dna_term("ACGT"), dna_term("TTGA")
    budget = _dna_budget("ACGT", "TTGA")
    side = search._SideSearch(sys, s, True, subterm_pool(s, t), budget, {},
                              search._skip_limit(budget, s, t),
                              search._Meets(sys.quantale), t)
    assert side.pop() == s
    other = invariants.counts(t, -1)
    h = {u: sys.potential(invariants.gap(u, other))
         for u, label in side.dist.items() if label[0] == 1}
    assert len(set(h.values())) > 1
    popped = [side.pop() for _ in h]
    assert sorted(popped, key=h.__getitem__) == popped
    assert set(popped) == set(h)


def test_a_meet_past_the_cap_is_no_proof(monkeypatch):
    # a and b each step at 1 into f(c), past the cap and both ends, so no
    # side builds it before the proof; between two terms past the cap a
    # step of at least 1 lies, but this is one term, a meet at 2, so the
    # direct step at 5/2 is no proof
    rules = ("rule r: a -[1]-> f(c)", "rule s: b -[1]-> f(c)",
             "rule d: a -[5/2]-> b")
    a, b = _const("a"), _const("b")
    budget = SearchBudget(max_term_size=1)
    ans = convertibility_distance(_system("a b c", *rules), a, b, budget)
    assert (ans.kind, ans.value) == (UPPER_BOUND, Fraction(5, 2))
    assert convertibility_distance(_system("a b c", *rules), a, b).value == 2
    # a bound that took every two branches past the cap for two terms
    # would call 5/2 exact
    with monkeypatch.context() as m:
        m.setattr(search, "_meets_past_limit", lambda *args: None)
        ans = convertibility_distance(_system("a b c", *rules), a, b, budget)
    assert (ans.kind, ans.value) == (EXACT, Fraction(5, 2))


def _distance_up_to(sys, s, t, max_size):
    """The conversion distance of ``s`` and ``t`` over the terms of at most
    ``max_size`` symbols, by Dijkstra over every step either way."""
    pool = subterm_pool(s, t)
    dist, heap, seq = {s: 0}, [(0, 0, s)], 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u == t:
            return d
        if d > dist[u]:
            continue
        for step in one_step(sys, u, pool) + one_step(sys, u, pool,
                                                      backward=True):
            v, nd = step.target, d + step.weight
            if term_size(v) <= max_size and (v not in dist or nd < dist[v]):
                dist[v] = nd
                heapq.heappush(heap, (nd, seq, v))
                seq += 1
    return None


def test_a_conversion_through_an_invented_subterm_outside_the_pool():
    # the right side invents x of its backward r1 step from the pool only,
    # which lacks b, so it never labels f(g(b)); unless that step is charged
    # as a prune, both caps answer exact 7/2, through f(g(c))
    rules = ("rule r0: g(x) -[5/2]-> f(x)", "rule r1: f(g(x)) -[1]-> a",
             "rule r4: g(b) -[2]-> f(c)")
    sys = _system("a b c", *rules)
    s, t = (parse_term(u, sys.signature) for u in ("f(f(c))", "a"))
    # f(f(c)) -> f(g(b)) by r4 backward at (1,), then -> a by r1: 2 + 1
    assert _distance_up_to(sys, s, t, 3) == 3
    answers = [convertibility_distance(
        _system("a b c", *rules), s, t,
        SearchBudget(max_term_size=cap, max_expanded=100000, max_depth=40))
        for cap in (3, 9)]
    assert [(a.kind, a.value) for a in answers] == [(EXACT, 3)] * 2


def test_an_invented_step_between_the_two_sides_is_no_proof():
    # c reaches a at 3/4, then f(g(b)) by r1 backward, then t by tt
    # backward: 17/4.  Under the cutoff the right prunes f(g(b)) -> a
    # before the left labels a at 3/4, and the left's pool {c, t} never
    # builds f(g(b)); charged at the step's weight, the left's unbuilt r1
    # step let the meet by m at 5 pass as exact
    sys = _system("a b c d e t m", "rule r1: f(g(x)) -[1]-> a",
                  "rule q: c -[2]-> a", "rule dd: c -[1/4]-> d",
                  "rule de: d -[1/4]-> e", "rule ea: e -[1/4]-> a",
                  "rule tt: t -[5/2]-> f(g(b))", "rule m1: c -[2]-> m",
                  "rule m2: t -[3]-> m")
    s, t = _const("c"), _const("t")
    assert convertibility_distance(sys, s, t).value == Fraction(17, 4)
    ans = convertibility_distance(sys, s, t, SearchBudget(weight_cutoff=3))
    assert (ans.kind, ans.value) == (UPPER_BOUND, 5)


def test_a_step_inventing_both_ways_between_the_two_sides_is_no_proof():
    # c -> f(b) -> g(a) <- d costs 3, but fg erases y and invents x, so
    # from f(b) the left builds g(x) for x in the pool {c, d} only, and from
    # g(a) the right builds f(y) alike: neither builds the step between
    # them, and neither can find the other's label there.  Charged at their
    # weights, 2 on each side, the two unbuilt steps let the meet by m at
    # 7/2 pass as exact
    sys = _system("a b c d m", "rule p: c -[1]-> f(b)",
                  "rule q: d -[1]-> g(a)", "rule fg: f(y) -[1]-> g(x)",
                  "rule m1: c -[2]-> m", "rule m2: d -[3/2]-> m")
    s, t = _const("c"), _const("d")
    assert _dijkstra(sys, s, 2, (False, True))[t] == 3
    for budget in (SearchBudget(), SearchBudget(max_term_size=2),
                   SearchBudget(weight_cutoff=3)):
        ans = convertibility_distance(sys, s, t, budget)
        assert (ans.kind, ans.value) == (UPPER_BOUND, Fraction(7, 2))


def _dijkstra(sys, s, max_size, directions):
    """The distances from ``s`` over the terms of at most ``max_size``
    symbols, by Dijkstra over the steps in ``directions`` (forward,
    backward or both), each invented variable filled by every ground term
    of at most ``max_size`` symbols, not only by a pool."""
    every = _ground_terms(max_size)
    dist, heap, seq = {s: 0}, [(0, 0, s)], 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for backward in directions:
            for step in one_step(sys, u, every, backward=backward,
                                 max_size=max_size):
                v, nd = step.target, d + step.weight
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, seq, v))
                    seq += 1
    return dist


def _inventing_rules(rng, weights):
    """2 to 5 random rules over a, b, c, f/1 and g/1, weighed from
    ``weights``, that may erase and invent a variable."""
    lhss = ["a", "b", "c", "f(x)", "g(x)", "f(g(x))", "g(b)", "f(c)"]
    rhss = lhss + ["x", "y", "f(y)", "g(f(x))", "f(g(y))"]
    rules = []
    for i in range(rng.randrange(2, 6)):
        lhs = rng.choice(lhss)
        rhs = rng.choice([r for r in rhss if r != lhs])
        rules.append(f"rule r{i}: {lhs} -[{rng.choice(weights)}]-> {rhs}")
    return rules


def test_searches_through_invented_variables_agree_with_every_instance():
    """Random systems over a, b, c, f/1 and g/1 whose rules may erase and
    invent a variable: every exact answer is no worse than a Dijkstra that
    fills invented variables with every ground term up to 4 symbols, and
    every witness replays to its value."""
    rng = random.Random("invented-variables")
    small = _ground_terms(2)
    checked = {EXACT: 0, UPPER_BOUND: 0}
    invented = 0
    for trial in range(60):
        rules = _inventing_rules(rng, (1, 2, 3, "1/2", "5/2"))
        sys = _system("a b c", *rules)
        invented += sys.forward.invents or sys.backward.invents
        oracle = functools.lru_cache(maxsize=None)(
            functools.partial(_dijkstra, sys, max_size=4))
        for _ in range(4):
            s, t = rng.choice(small), rng.choice(small)
            budget = SearchBudget(max_term_size=rng.choice((2, 3, None)),
                                  weight_cutoff=rng.choice((None, 2, 3)),
                                  max_expanded=300, max_depth=40)
            both = oracle(s, directions=(False, True))
            down = [oracle(u, directions=(False,)) for u in (s, t)]
            valley = [down[0][u] + down[1][u] for u in down[0]
                      if u in down[1]]
            for search, want in (
                    (convertibility_distance, both.get(t)),
                    (reduction_distance, down[0].get(t)),
                    (valley_distance, min(valley, default=None))):
                ans = search(sys, s, t, budget)
                case = (rules, search.__name__, str(s), str(t), budget)
                if ans.kind in (EXACT, UPPER_BOUND):
                    assert validate_witness(sys, s, t, ans.witness), case
                    assert _witness_weight(sys, ans) == ans.value, case
                    checked[ans.kind] += 1
                if ans.kind == EXACT and want is not None:
                    assert ans.value <= want, case
    assert min(checked.values()) > 0 and invented > 30, (checked, invented)


def test_no_pool_is_built_where_no_step_invents(monkeypatch):
    # no nat or DNA rule invents a variable, forward or backward, so no
    # query on them builds the pool; barycentric's perturb invents one
    built = []

    def counted(*terms):
        built.append(terms)
        return subterm_pool(*terms)

    for module in (qtrs, search):
        monkeypatch.setattr(module, "subterm_pool", counted)
    nat, lev = make_nat(), make_dna("levenshtein")
    add = Application(Symbol("A", 2), (nat_term(1), nat_term(2)))
    for budget in (SearchBudget(), SearchBudget(weight_cutoff=0)):
        assert reduction_distance(nat, add, nat_term(3), budget).value == 0
    small = SearchBudget(max_expanded=50)
    for distance in (convertibility_distance, valley_distance,
                     reduction_distance):
        distance(nat, add, nat_term(2), small)
        distance(lev, dna_term("ACGT"), dna_term("AGT"), small)
    for sys in (nat, lev):
        for peak in critical_pairs(sys)[:3]:
            qtrs.join_check(sys, peak, 3)
            qtrs.strongly_closed_check(sys, peak, 3)
    assert built == []
    bary = make_barycentric()
    peak = critical_pairs(bary)[0]
    qtrs.join_check(bary, peak, 1)
    qtrs.strongly_closed_check(bary, peak, 1)
    reduction_distance(bary, peak.left[0], peak.right[0],
                       SearchBudget(max_expanded=5))
    assert len(built) == 3


def test_witness_checks_and_normalize_build_no_pool_where_none_invents(
        monkeypatch):
    # both re-derive steps forward only, and no nat rule invents a variable
    nat = make_nat()
    add = _add(nat_term(6), nat_term(6))
    ans = reduction_distance(nat, add, nat_term(12))
    strategies = ("leftmost-innermost", "leftmost-outermost", "all")
    small = _add(nat_term(2), nat_term(1))
    normal = [normalize(nat, small, strategy) for strategy in strategies]
    bary = make_barycentric()
    peak = critical_pairs(bary)[0]
    built = []

    def refused(*terms):
        built.append(terms)
        raise AssertionError("a pool was built")

    monkeypatch.setattr(search, "subterm_pool", refused)
    assert ans.kind == EXACT and len(ans.witness) > 6
    assert validate_witness(nat, add, nat_term(12), ans.witness)
    assert not validate_witness(nat, add, nat_term(11), ans.witness)
    assert [normalize(nat, small, s) for s in strategies] == normal
    assert normal[0].normal_forms == ((nat_term(0), 3),)
    assert built == []
    # barycentric's perturb invents a variable, so its pool is still built
    with pytest.raises(AssertionError, match="a pool was built"):
        validate_witness(bary, peak.source, peak.left[0], ())
    with pytest.raises(AssertionError, match="a pool was built"):
        normalize(bary, peak.source)
    assert len(built) == 2


def test_cutoff_searches_agree_with_pruning_after_relaxing(monkeypatch):
    """The same random systems, with free steps too, under cutoffs 0 to 3
    and caps 2, 3 or none: the directed search that builds no step out of
    bounds, and asks only at the end whether its cutoff pruned one, gives
    the answers of relaxing every step and pruning afterwards."""
    rng = random.Random("cutoff-against-relaxing")
    small = _ground_terms(2)
    kinds = dict.fromkeys((EXACT, UPPER_BOUND, UNREACHABLE,
                           BUDGET_EXHAUSTED), 0)
    for trial in range(100):
        rules = _inventing_rules(rng, (0, 1, 2, 3, "1/2", "5/2"))
        sys = _system("a b c", *rules)
        for _ in range(6):
            s, t = rng.choice(small), rng.choice(small)
            budget = SearchBudget(max_term_size=rng.choice((2, 3, None)),
                                  weight_cutoff=rng.randrange(4),
                                  max_expanded=300, max_depth=40)
            got, want = _bounded_and_unbounded(monkeypatch, sys, s, t, budget)
            assert got == want, (rules, str(s), str(t), budget)
            kinds[got.kind] += 1
    assert min(kinds[k] for k in (EXACT, UNREACHABLE, BUDGET_EXHAUSTED)) > 0, (
        kinds)


def test_capped_conversions_agree_with_a_search_past_the_cap():
    """Ground systems that lift constants into terms past a cap of 1 or
    2 and may rewrite them there more cheaply; half of them lift two
    constants into one term, more cheaply than a step between the two,
    which the first query asks for.  Every exact answer is no worse than
    a Dijkstra search over the terms of up to 5 symbols."""
    rng = random.Random("meets-past-the-cap")
    shapes = ["a", "b", "c", "f(a)", "f(b)", "g(a)", "f(c)", "g(c)",
              "f(f(a))"]
    weights = (1, 2, 3, "1/2", "5/2")
    checked = {EXACT: 0, UPPER_BOUND: 0}
    for trial in range(80):
        rules = [f"rule r{i}: {lhs} -[{rng.choice(weights)}]-> {rhs}"
                 for i in range(rng.randrange(1, 5))
                 for lhs, rhs in [rng.sample(shapes, 2)]]
        pairs = [tuple(rng.choice("abc") for _ in range(2)) for _ in range(6)]
        if trial % 2:
            lifted, (x, y) = rng.choice(shapes[3:]), rng.sample("abc", 2)
            rules += [f"rule m1: {x} -[{rng.choice((1, '1/2'))}]-> {lifted}",
                      f"rule m2: {y} -[{rng.choice((1, '1/2'))}]-> {lifted}",
                      f"rule m3: {x} -[{rng.choice((2, '5/2', 3))}]-> {y}"]
            pairs[0] = (x, y)
        for s, t in pairs:
            s, t = _const(s), _const(t)
            budget = SearchBudget(max_term_size=rng.choice((1, 1, 2)),
                                  max_expanded=300, max_depth=40)
            sys = _system("a b c", *rules)
            ans = convertibility_distance(sys, s, t, budget)
            case = (rules, str(s), str(t), budget.max_term_size)
            if ans.kind in (EXACT, UPPER_BOUND):
                assert validate_witness(sys, s, t, ans.witness), case
                assert _witness_weight(sys, ans) == ans.value, case
                checked[ans.kind] += 1
            if ans.kind == EXACT:
                want = _distance_up_to(sys, s, t, 5)
                assert want is not None and ans.value <= want, case
    assert min(checked.values()) > 0, checked


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
    cheaper = [dataclasses.replace(w, weight=Fraction(0))
               for w in ans.witness]
    assert not validate_witness(sys, s, t, cheaper)
    # a step may claim a worse weight than it has: the claim still holds
    dearer = [dataclasses.replace(w, weight=w.weight + 1)
              for w in ans.witness]
    assert validate_witness(sys, s, t, dearer)


def test_witness_validation_rejects_a_valid_witness_that_ends_elsewhere():
    sys = make_nat()
    s, t = nat_term(1), nat_term(3)
    ans = convertibility_distance(sys, s, t, NAT_BUDGET)
    assert [w.direction for w in ans.witness] == ["backward", "backward"]
    assert validate_witness(sys, s, t, ans.witness)
    assert validate_witness(sys, s, nat_term(2), ans.witness[:1])
    for other in (nat_term(2), nat_term(4), s):
        assert not validate_witness(sys, s, other, ans.witness)
    assert not validate_witness(sys, s, t, ans.witness[:1])
    assert validate_witness(sys, s, s, ())
    assert not validate_witness(sys, s, t, ())


def test_answer_json_round_trip():
    import json

    sys = make_nat()
    ans = convertibility_distance(sys, nat_term(2), nat_term(0), NAT_BUDGET)
    payload = json.loads(ans.to_json(sys.quantale.format_value))
    assert payload["kind"] in (EXACT, UPPER_BOUND)
    assert payload["value"] == "2"
    assert len(payload["witness"]) == 2
