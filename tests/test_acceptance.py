"""Acceptance suite: twelve end-to-end checks, one pass/fail line each.

Each test exercises a headline capability at desk scale with its stated
tolerance and, where one applies, its time budget.  Run with ``-s`` (or read
the captured output) to see the per-criterion verdict lines.
"""

import itertools
import random
import time
from fractions import Fraction

from qtrw.graded import multistep_diamond_probe
from qtrw.qrel import FiniteQRel
from qtrw.quantale import LAWVERE, QUANTALES
from qtrw.qtrs import (
    CriticalPeak,
    confluence_report,
    critical_pairs,
    cross_critical_pairs,
    degree_at_position,
    degree_of_variable,
    join_check,
    orthogonality_check,
    strongly_closed_check,
    sum_systems,
)
from qtrw.search import (
    EXACT,
    UNREACHABLE,
    UPPER_BOUND,
    SearchBudget,
    convertibility_distance,
    validate_witness,
)
from qtrw.systems import (
    DNA_BASES,
    app2,
    code_term,
    dna_term,
    make_barycentric,
    make_bck,
    make_bck_w,
    make_dna,
    make_graded_combinators,
    make_linearity_example,
    make_nat,
    nat_term,
    oracle_hamming,
    oracle_levenshtein,
)
from qtrw.term import Application, Symbol, Variable, term_key


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _dna_budget(*strings: str) -> SearchBudget:
    cap = max(len(s) for s in strings) + 1
    return SearchBudget(max_expanded=200000, max_depth=30, max_term_size=cap)


def _rand_dna(rng: random.Random, max_len: int, exact: bool = False) -> str:
    n = max_len if exact else rng.randrange(max_len + 1)
    return "".join(rng.choice(DNA_BASES) for _ in range(n))


# ---------------------------------------------------------------------------
# 1. numeral distance is the absolute difference


def test_criterion_01_numeral_distance():
    sys = make_nat()
    budget = SearchBudget(max_expanded=5000, max_depth=20, max_term_size=8)
    start = time.monotonic()
    mismatches = []
    for n in range(7):
        for m in range(7):
            ans = convertibility_distance(sys, nat_term(n), nat_term(m),
                                          budget)
            if ans.value != Fraction(abs(n - m)):
                mismatches.append((n, m, ans.value))
    elapsed = time.monotonic() - start
    _report(1, not mismatches and elapsed < 5.0,
            f"49 numeral pairs match |n-m|, {elapsed:.2f}s (< 5s);"
            f" mismatches: {mismatches}")


# ---------------------------------------------------------------------------
# 2. string conversion distance is Levenshtein


def test_criterion_02_levenshtein():
    sys = make_dna("levenshtein")
    short = ["".join(p) for k in range(3)
             for p in itertools.product(DNA_BASES, repeat=k)]
    pairs = list(itertools.product(short, short))[:50]
    rng = random.Random("acceptance-levenshtein")
    for _ in range(200):
        pairs.append((_rand_dna(rng, 6), _rand_dna(rng, 6)))
    start = time.monotonic()
    mismatches = []
    for s, t in pairs:
        ans = convertibility_distance(sys, dna_term(s), dna_term(t),
                                      _dna_budget(s, t))
        if ans.value != Fraction(oracle_levenshtein(s, t)):
            mismatches.append((s, t, ans.value))
    elapsed = time.monotonic() - start
    _report(2, not mismatches and elapsed < 60.0,
            f"{len(pairs)} string pairs match the edit-distance oracle,"
            f" {elapsed:.2f}s (< 60s); mismatches: {mismatches}")


# ---------------------------------------------------------------------------
# 3. substitution-only conversion distance is Hamming


def test_criterion_03_hamming():
    sys = make_dna("hamming")
    rng = random.Random("acceptance-hamming")
    start = time.monotonic()
    bad = []
    for _ in range(200):
        n = rng.randrange(1, 9)
        s, t = _rand_dna(rng, n, exact=True), _rand_dna(rng, n, exact=True)
        ans = convertibility_distance(sys, dna_term(s), dna_term(t),
                                      _dna_budget(s, t))
        if ans.kind != EXACT or ans.value != Fraction(oracle_hamming(s, t)):
            bad.append((s, t, ans.kind, ans.value))
    unequal = []
    for _ in range(20):
        n = rng.randrange(0, 8)
        s, t = _rand_dna(rng, n, exact=True), _rand_dna(rng, n + 1, exact=True)
        ans = convertibility_distance(sys, dna_term(s), dna_term(t),
                                      _dna_budget(s, t))
        if ans.kind != UNREACHABLE:
            unequal.append((s, t, ans.kind))
    elapsed = time.monotonic() - start
    _report(3, not bad and not unequal and elapsed < 60.0,
            "200 equal-length pairs exact vs the mismatch-count oracle,"
            f" 20 unequal-length pairs unreachable, {elapsed:.2f}s (< 60s);"
            f" failures: {bad + unequal}")


# ---------------------------------------------------------------------------
# 4. barycentric overlaps and strong closure


def test_criterion_04_barycentric_strong_closure():
    sys = make_barycentric()
    start = time.monotonic()
    peaks = critical_pairs(sys)
    shapes = {(p.inner_rule.split("[")[0], p.outer_rule.split("[")[0],
               p.position) for p in peaks}
    expected = {
        ("proj", "comm", ()),
        ("proj", "perturb", ()),
        ("perturb", "assoc", ()),
        ("perturb", "assoc", (1,)),
        ("assoc", "assoc", (1,)),
        ("comm", "assoc", (1,)),
    }
    missing = expected - shapes
    open_peaks = [
        (p.inner_rule, p.outer_rule, p.position)
        for p in peaks if not strongly_closed_check(sys, p, 6).holds]
    elapsed = time.monotonic() - start
    _report(4, not missing and not open_peaks and elapsed < 30.0,
            f"{len(peaks)} peaks cover all {len(expected)} overlap shapes and"
            f" close strongly at depth 6, {elapsed:.2f}s (< 30s);"
            f" missing: {missing}; open: {open_peaks[:4]}")


# ---------------------------------------------------------------------------
# 5. disjoint-sum confluence via commuting components


def test_criterion_05_modular_confluence():
    bck = make_bck()
    bary = make_barycentric()
    cross = cross_critical_pairs(bck, bary)
    report = confluence_report(sum_systems(bck, bary), depth_budget=6,
                               components=(bck, bary))
    ok = not cross and report.certificate == "confluent by Hindley-Rosen"
    _report(5, ok,
            f"{len(cross)} cross-system overlaps;"
            f" certificate: {report.certificate!r}")


# ---------------------------------------------------------------------------
# 6. duplication breaks quantitative local confluence


def test_criterion_06_nonlinear_counterexample():
    sys = make_linearity_example()
    e = Application(Symbol("e", 0), ())
    i = Application(Symbol("i", 0), ())
    f = Application(Symbol("f", 2), (i, e))
    peak = CriticalPeak(
        source=Application(Symbol("f", 2), (e, e)),
        left=(f, Fraction(1)),
        right=(e, Fraction(0)),
        position=(1,),
        inner_rule="decay",
        outer_rule="collapse",
    )
    verdict = join_check(sys, peak, depth_budget=6)
    ok = (verdict.kind == "unknown"
          and verdict.peak_total == Fraction(1)
          and verdict.best_total == Fraction(2))
    _report(6, ok,
            f"join verdict {verdict.kind!r}: best valley"
            f" {verdict.best_total} vs peak {verdict.peak_total}"
            " (duplication doubles the decay cost)")


# ---------------------------------------------------------------------------
# 7. confluence coincides with the Church-Rosser property


def _random_relation(rng: random.Random, acyclic: bool = False) -> FiniteQRel:
    n = rng.randrange(2, 7)
    nodes = [f"n{i}" for i in range(n)]
    choices = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    edges = {}
    for i in range(n):
        for j in range(n):
            if i == j or (acyclic and j <= i):
                continue
            if rng.random() < 0.3:
                edges[(nodes[i], nodes[j])] = rng.choice(choices)
    return FiniteQRel.make(nodes, edges, LAWVERE)


def test_criterion_07_church_rosser_equivalence():
    rng = random.Random("acceptance-church-rosser")
    start = time.monotonic()
    discrepancies = 0
    for _ in range(500):
        rel = _random_relation(rng)
        if rel.confluent_check() != rel.church_rosser_check():
            discrepancies += 1
    elapsed = time.monotonic() - start
    _report(7, discrepancies == 0 and elapsed < 60.0,
            "confluence = Church-Rosser on 500 random weighted relations,"
            f" {elapsed:.2f}s (< 60s); discrepancies: {discrepancies}")


# ---------------------------------------------------------------------------
# 8. local confluence suffices on terminating relations


def test_criterion_08_newman_at_desk_scale():
    rng = random.Random("acceptance-newman")
    violations = 0
    locally_confluent = 0
    for _ in range(500):
        rel = _random_relation(rng, acyclic=True)
        if rel.locally_confluent_check():
            locally_confluent += 1
            if not rel.confluent_check():
                violations += 1
    _report(8, violations == 0 and locally_confluent > 0,
            f"{locally_confluent}/500 acyclic relations locally confluent,"
            f" all of them confluent; violations: {violations}")


# ---------------------------------------------------------------------------
# 9. variable degrees in graded terms


def test_criterion_09_graded_degrees():
    base = make_graded_combinators()
    x = Variable("x")
    bang3 = Symbol("!", 1, (Fraction(3),))
    bang2 = Symbol("!", 1, (Fraction(2),))
    i = Application(Symbol("I", 0), ())
    t = Application(bang3, (app2(x, Application(bang2, (app2(i, x),))),))
    d1 = degree_at_position(base, t, (1, 1))
    d2 = degree_at_position(base, t, (1, 2, 1, 2))
    total = degree_of_variable(base, t, "x")
    ok = d1 == Fraction(3) and d2 == Fraction(6) and total == Fraction(9)
    _report(9, ok,
            f"degrees of x at its two occurrences: {d1}, {d2};"
            f" total {total} (expected 3, 6, 9)")


# ---------------------------------------------------------------------------
# 10. orthogonality and the multi-step diamond


def _diamond_seeds() -> list:
    i = Application(Symbol("I", 0), ())

    def bang(n, t):
        return Application(Symbol("!", 1, (Fraction(n),)), (t,))

    def combi(name, *params):
        return Application(
            Symbol(name, 0, tuple(Fraction(p) for p in params)), ())

    redexes = [
        app2(Application(Symbol("D", 0), ()), bang(1, i)),
        app2(Application(Symbol("K", 0), ()), i, bang(0, i)),
        app2(Application(Symbol("B", 0), ()), i, i, i),
        app2(Application(Symbol("C", 0), ()), i, i, i),
        app2(combi("delta", 2, 1), bang(2, i)),
        app2(combi("F", 2), bang(2, i), bang(2, i)),
        app2(combi("W", 1, 1), i, bang(2, i)),
    ]
    rng = random.Random("acceptance-diamond")
    seeds = list(redexes)
    while len(seeds) < 25:
        k = rng.randrange(2, 4)           # 2-3 disjoint redexes per seed
        parts = [rng.choice(redexes) for _ in range(k)]
        seed = parts[0]
        for p in parts[1:]:
            seed = app2(seed, p)
        if rng.random() < 0.5:
            seed = Application(Symbol("!", 1, (Fraction(2),)), (seed,))
        seeds.append(seed)
    return seeds


def test_criterion_10_multistep_diamond():
    gsys = make_graded_combinators()
    ok_orth, evidence = orthogonality_check(gsys)
    start = time.monotonic()
    checked = closed = 0
    violations = []
    for seed in _diamond_seeds():
        report = multistep_diamond_probe(gsys, seed, width_budget=4)
        checked += report.peaks_checked
        closed += report.peaks_closed
        violations.extend(report.violations)
    elapsed = time.monotonic() - start
    _report(10, ok_orth and not violations and elapsed < 120.0,
            f"orthogonal ({evidence['critical_pairs']} overlaps);"
            f" {closed}/{checked} multi-step peaks closed over 25 seeds,"
            f" {elapsed:.2f}s (< 120s); violations: {len(violations)}")


# ---------------------------------------------------------------------------
# 11. duplication trivialises the numeral distance


def test_criterion_11_trivialisation():
    sys = make_bck_w()
    budget = SearchBudget(max_expanded=50000, max_depth=30, max_term_size=14)
    s, t = code_term(2), code_term(4)
    ans = convertibility_distance(sys, s, t, budget)
    ok = (ans.kind in (EXACT, UPPER_BOUND)
          and ans.value is not None
          and ans.value <= Fraction(1)
          and validate_witness(sys, s, t, ans.witness))
    _report(11, ok,
            f"witnessed conversion of weight {ans.value} between the"
            " numerals 2 and 4 (<= 1, strictly below the affine value 2)")


# ---------------------------------------------------------------------------
# 12. quantale laws


def test_criterion_12_quantale_laws():
    from test_quantale import _check_laws, _sample

    failures = 0
    for name, q in QUANTALES.items():
        rng = random.Random(f"acceptance-laws-{name}")
        for _ in range(1000):
            try:
                _check_laws(q, _sample(name, rng), _sample(name, rng),
                            _sample(name, rng))
            except AssertionError:
                failures += 1
    _report(12, failures == 0,
            f"{len(QUANTALES)} instances x 1000 sampled triples per law"
            f" suite; failures: {failures}")
