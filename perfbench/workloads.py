"""The four benchmark workloads: seeded inputs, queries and answer checks.

Every builder takes the freshly imported qtrw modules and a seeded
``random.Random`` and returns a ``Plan``: the queries of one round plus a
hook that runs at the start of each round.  Queries look qtrw functions up
through their modules at call time, so the traced run's wrappers see them.

Each query has two checks.  ``check`` compares the answer with an oracle or
a known verdict and replays any witness; ``digest`` renders the whole answer
so later rounds and the traced run can be compared with the first round.

Check statuses: ``ok``; ``failed`` (raised, or a conservative answer such
as budget-exhausted/inconclusive where the answer is decidable); ``wrong``
(a value or verdict that contradicts the oracle, or a witness that does not
replay).  ``decided`` marks definitive answers: exact or unreachable
distances, checks that hold, joinable peaks, named certificates.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence

OK, FAILED, WRONG = "ok", "failed", "wrong"
BASES = "ACGT"
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@dataclass(frozen=True)
class Outcome:
    status: str
    decided: bool
    detail: str = ""


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    digest: Callable[[object], str]


@dataclass
class Plan:
    queries: List[Query]
    new_round: Callable[[], None] = field(default=lambda: None)


# ---------------------------------------------------------------------------
# input generation


def rand_dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(BASES) for _ in range(n))


def substitute(rng: random.Random, s: str, k: int) -> str:
    """``s`` with exactly ``k`` positions changed to another base."""
    out = list(s)
    for p in rng.sample(range(len(s)), k):
        out[p] = rng.choice([b for b in BASES if b != s[p]])
    return "".join(out)


def edit(rng: random.Random, s: str, k: int, max_len: int) -> str:
    """``s`` after ``k`` random insertions, deletions or substitutions."""
    out = list(s)
    for _ in range(k):
        op = rng.choice("ids") if out else "i"
        if op == "i" and len(out) < max_len:
            out.insert(rng.randrange(len(out) + 1), rng.choice(BASES))
        elif op == "d":
            del out[rng.randrange(len(out))]
        else:
            p = rng.randrange(len(out))
            out[p] = rng.choice([b for b in BASES if b != out[p]])
    return "".join(out)


# ---------------------------------------------------------------------------
# distance answers


def distance_digest(ans) -> str:
    steps = ";".join(
        f"{w.direction},{w.position},{w.rule_id},{w.weight},{w.source},{w.target}"
        for w in ans.witness)
    return f"{ans.kind}|{ans.value}|{ans.expanded}|{steps}"


def distance_check(Q: SimpleNamespace, make_sys: Callable[[], object],
                   s, t, expected: Optional[int]) -> Callable[[object], Outcome]:
    """Judge a distance answer against the oracle value (None: unreachable)."""
    search = Q.search

    def check(ans) -> Outcome:
        if ans.kind == search.UNREACHABLE:
            if expected is None:
                return Outcome(OK, True)
            return Outcome(WRONG, False, f"unreachable, oracle {expected}")
        if ans.kind not in (search.EXACT, search.UPPER_BOUND):
            return Outcome(FAILED, False, ans.kind)
        if expected is None:
            return Outcome(WRONG, False, f"{ans.kind} {ans.value}, oracle unreachable")
        if not search.validate_witness(make_sys(), s, t, ans.witness):
            return Outcome(WRONG, False, "witness does not replay")
        want = Fraction(expected)
        if ans.value == want:
            return Outcome(OK, ans.kind == search.EXACT)
        if ans.kind == search.EXACT or ans.value < want:
            return Outcome(WRONG, False, f"{ans.kind} {ans.value}, oracle {want}")
        return Outcome(FAILED, False, f"loose bound {ans.value}, oracle {want}")

    return check


def dna_budget(Q: SimpleNamespace, *strings: str):
    # the acceptance suite's budget: sound term-size cap one above the inputs
    cap = max(len(x) for x in strings) + 1
    return Q.search.SearchBudget(max_expanded=200000, max_depth=30,
                                 max_term_size=cap)


def dna_query(Q: SimpleNamespace, kind: str, get_sys: Callable[[], object],
              variant: str, s: str, t: str, expected: Optional[int]) -> Query:
    ts, tt = Q.systems.dna_term(s), Q.systems.dna_term(t)
    budget = dna_budget(Q, s, t)

    def run():
        return Q.search.convertibility_distance(get_sys(), ts, tt, budget)

    check = distance_check(Q, lambda: Q.systems.make_dna(variant), ts, tt,
                           expected)
    return Query(f"{kind} {s or '-'} {t or '-'}", run, check,
                 distance_digest)


# ---------------------------------------------------------------------------
# dna-cold: a fresh system per query, as one `qtrw distance` call pays
#
# Inputs are drawn within difficulty classes: search effort depends mostly on
# the lengths and the distance, so fixing those per query keeps the cost of
# a round nearly independent of the seed while the strings themselves vary.
#
# Only classes whose cost varies little with the strings are used.  Hamming
# pairs at 2 mismatches and Levenshtein pairs at distance 2 cost from a half
# to twice their class median, depending on how the search breaks ties
# among the strings at the answer's distance; their quartiles lie 50-110%
# of the median apart, against at most 23% for the classes below.  With
# them, the seed alone moved the round's median latency by 15-30%.

# (length, mismatches) of the Hamming pairs, three of each.  Four or more
# mismatches are left out too: above length 4 that costs up to fivefold
# more from one pair to the next.
HAMMING = ((4, 3), (5, 3), (6, 3), (7, 3), (8, 3)) * 3
# lengths n vs n+1: whole-space proofs.  n = 4 is left out: its one proof
# of 1280 expansions takes longer than the rest of the round.
UNREACHABLE = (2, 2, 2, 3)
# (length of s, length of t, edit distance) of the Levenshtein pairs.  The
# classes (2, 5, 3) and (3, 6, 3) are left out as well: whether qtrw proves
# their answer exact depends on the strings, so the decided share would
# move with the seed; in the classes below it did not, in any seed tried.
LEVENSHTEIN = ((2, 3, 1), (3, 3, 1), (4, 4, 1)) * 3 + (
    (4, 4, 3), (5, 5, 3), (4, 6, 3), (6, 6, 3), (6, 5, 3)) * 2


def edited(Q: SimpleNamespace, rng: random.Random, s: str, lt: int,
           d: int) -> str:
    """A random string of length ``lt`` at Levenshtein distance ``d`` from s."""
    for _ in range(100000):
        t = edit(rng, s, d, max(len(s), lt))
        if len(t) == lt and Q.systems.oracle_levenshtein(s, t) == d:
            return t
    raise ValueError(f"no string of length {lt} at distance {d} from {s}")


def build_dna_cold(Q: SimpleNamespace, rng: random.Random) -> Plan:
    sy = Q.systems
    queries = []
    for n, k in HAMMING:
        s = rand_dna(rng, n)
        t = substitute(rng, s, k)
        queries.append(dna_query(Q, "hamming", lambda: sy.make_dna("hamming"),
                                 "hamming", s, t, sy.oracle_hamming(s, t)))
    for n in UNREACHABLE:
        s, t = rand_dna(rng, n), rand_dna(rng, n + 1)
        queries.append(dna_query(Q, "unreachable",
                                 lambda: sy.make_dna("hamming"), "hamming",
                                 s, t, sy.oracle_hamming(s, t)))
    for ls, lt, d in LEVENSHTEIN:
        s = rand_dna(rng, ls)
        t = edited(Q, rng, s, lt, d)
        queries.append(dna_query(
            Q, "levenshtein", lambda: sy.make_dna("levenshtein"),
            "levenshtein", s, t, sy.oracle_levenshtein(s, t)))
    return Plan(queries)


# ---------------------------------------------------------------------------
# dna-warm: all-pairs matrices sharing one system, hence one step cache
#
# A family is a seeded string and three others that differ from it, and from
# each other, in the same seeded positions: at each of them the four
# strings carry the four bases in a seeded order.  So every pair of a
# family is at the same Hamming distance and the matrix of a family has one
# shape whatever the bases.  The matrix holds both directions of each pair.
# The first string's three pairs pay for the family's states; the other
# nine mostly hit the cache, so the median is a warm query.
#
# Families differ in 3 positions, except two that differ in 1: qtrw proves
# none of the distance-3 answers exact, and those two keep the decided
# share above 0.  Pairs at distance 2 are avoided: how the search breaks
# ties among them makes their cost vary twofold with the strings.

WARM_LENGTH = 5
WARM_DIFFER = (3,) * 8 + (1,) * 2  # differing positions, per family


def warm_family(sy, rng: random.Random, differ: int) -> List[str]:
    """Four strings, each pair at Levenshtein distance ``differ``: a string
    shifted against another can be closer than its Hamming distance, so such
    draws are redrawn."""
    while True:
        root = rand_dna(rng, WARM_LENGTH)
        family = [list(root) for _ in BASES]
        for p in rng.sample(range(WARM_LENGTH), differ):
            for member, base in zip(family, rng.sample(BASES, len(BASES))):
                member[p] = base
        family = ["".join(member) for member in family]
        if all(sy.oracle_levenshtein(a, b) == differ
               for i, a in enumerate(family) for b in family[i + 1:]):
            return family


def build_dna_warm(Q: SimpleNamespace, rng: random.Random) -> Plan:
    sy = Q.systems
    shared: Dict[str, object] = {}

    def new_round() -> None:
        shared["sys"] = sy.make_dna("levenshtein")

    queries = []
    for differ in WARM_DIFFER:
        family = warm_family(sy, rng, differ)
        queries.extend(
            dna_query(Q, "matrix", lambda: shared["sys"], "levenshtein",
                      a, b, sy.oracle_levenshtein(a, b))
            for a in family for b in family if a != b)
    return Plan(queries, new_round)


# ---------------------------------------------------------------------------
# deep-nat: few states of large terms

DEEP_LOW, DEEP_STEP, DEEP_JITTER, DEEP_BUCKETS = 12, 5, 2, 5  # n, m in 12..33


def build_deep_nat(Q: SimpleNamespace, rng: random.Random) -> Plan:
    sy, term = Q.systems, Q.term
    queries = []
    # every (n-bucket, m-bucket) pair once with a seeded jitter of n only;
    # m sets the witness length, and jittering it too spread the round's
    # median between seeds about three times as wide
    for bn in range(DEEP_BUCKETS):
        for bm in range(DEEP_BUCKETS):
            n = DEEP_LOW + bn * DEEP_STEP + rng.randrange(DEEP_JITTER)
            m = DEEP_LOW + bm * DEEP_STEP
            queries.append(deep_nat_query(Q, sy, term, n, m))
    return Plan(queries)


def deep_nat_query(Q, sy, term, n: int, m: int) -> Query:
    source = term.Application(term.Symbol("A", 2),
                              (sy.nat_term(n), sy.nat_term(m)))
    target = sy.nat_term(n + m)
    budget = Q.search.SearchBudget(max_expanded=20000, max_depth=4 * (n + m),
                                   weight_cutoff=Fraction(0))

    def run():
        return Q.search.reduction_distance(sy.make_nat(), source, target,
                                           budget)

    value_check = distance_check(Q, sy.make_nat, source, target, 0)

    def check(ans) -> Outcome:
        out = value_check(ans)
        if out.status == OK and len(ans.witness) != m + 1:
            return Outcome(WRONG, False,
                           f"witness of {len(ans.witness)} steps, want {m + 1}")
        return out

    return Query(f"deep-nat A({n},{m})", run, check, distance_digest)


# ---------------------------------------------------------------------------
# certify: confluence certification, no distance search

PEAKS_PER_SHAPE = 4
DIAMOND_SEEDS = 6
# (nodes, acyclic?) of the random weighted relations
# cyclic ones stay small: their closure costs about the cube of the nodes
QREL_SHAPES = ((10, False), (14, True), (18, False), (22, True),
               (24, False), (30, True), (38, True))
QREL_DENSITY = 0.1
# one of each kind of seeded CLI distance query per length; unreachable
# Hamming pairs of lengths n and n+1 cost sevenfold more at n = 2 than at 1
CLI_HAMMING_LENGTHS = (1, 2, 2)


def sample_peaks(rng: random.Random, peaks: list) -> list:
    """A seeded sample of up to ``PEAKS_PER_SHAPE`` peaks of each overlap
    shape (rule pair and position).

    Closing a peak costs about the same within a shape and up to 300 times
    more across shapes, so a fixed count per shape keeps the round's cost,
    median and tail independent of the seed.
    """
    shapes: Dict[tuple, list] = {}
    for peak in peaks:
        shape = (peak.inner_rule.split("[")[0], peak.outer_rule.split("[")[0],
                 peak.position)
        shapes.setdefault(shape, []).append(peak)
    return [peak for group in shapes.values()
            for peak in rng.sample(group, min(len(group), PEAKS_PER_SHAPE))]


def expect_certificate(want: str) -> Callable[[object], Outcome]:
    def check(report) -> Outcome:
        if report.certificate == want:
            return Outcome(OK, True)
        if report.certificate == "inconclusive":
            return Outcome(FAILED, False, "inconclusive")
        return Outcome(WRONG, False, report.certificate)
    return check


def random_relation(Q: SimpleNamespace, rng: random.Random, n: int,
                    acyclic: bool):
    """A relation with a fixed number of seeded weighted edges."""
    nodes = [f"n{i}" for i in range(n)]
    weights = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    slots = [(a, b) for i, a in enumerate(nodes) for j, b in enumerate(nodes)
             if i != j and (i < j or not acyclic)]
    picked = rng.sample(slots, round(QREL_DENSITY * len(slots)))
    edges = {slot: rng.choice(weights) for slot in picked}
    return Q.qrel.FiniteQRel.make(nodes, edges, Q.quantale.LAWVERE)


def nat_text(n: int) -> str:
    return "S(" * n + "Z" + ")" * n


def dna_text(s: str) -> str:
    return "(".join(s) + ("(" if s else "") + "nil" + ")" * len(s)


def diamond_seeds(Q: SimpleNamespace, rng: random.Random, count: int) -> list:
    """Seeded graded-combinator terms of 3 disjoint redexes, every other
    one under a modality."""
    term, sy = Q.term, Q.systems
    App, Sym = term.Application, term.Symbol
    i = App(Sym("I", 0), ())

    def bang(n, t):
        return App(Sym("!", 1, (Fraction(n),)), (t,))

    def combi(name, *params):
        return App(Sym(name, 0, tuple(Fraction(p) for p in params)), ())

    redexes = [
        sy.app2(App(Sym("D", 0), ()), bang(1, i)),
        sy.app2(App(Sym("K", 0), ()), i, bang(0, i)),
        sy.app2(App(Sym("B", 0), ()), i, i, i),
        sy.app2(App(Sym("C", 0), ()), i, i, i),
        sy.app2(combi("delta", 2, 1), bang(2, i)),
        sy.app2(combi("F", 2), bang(2, i), bang(2, i)),
        sy.app2(combi("W", 1, 1), i, bang(2, i)),
    ]
    seeds = []
    for k in range(count):
        seed = sy.app2(*rng.sample(redexes, 3))
        seeds.append(bang(2, seed) if k % 2 else seed)
    return seeds


def cli_query(Q: SimpleNamespace, label: str, argv: Sequence[str],
              judge: Callable[[int, str], Outcome]) -> Query:
    """In-process ``qtrw.cli.main(argv)`` with stdout and stderr captured."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = Q.cli.main(list(argv))
        return code, out.getvalue()

    def check(result) -> Outcome:
        code, text = result
        try:
            return judge(code, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return Outcome(WRONG, False, f"unexpected output: {exc!r}")

    return Query(label, run, check, lambda r: f"{r[0]}|{r[1]}")


def cli_json(code: int, text: str, want_code: int,
             pred: Callable[[object], bool]) -> Outcome:
    if code == 2:
        return Outcome(FAILED, False, "inconclusive")
    payload = json.loads(text.strip().splitlines()[-1])
    if code != want_code or not pred(payload):
        return Outcome(WRONG, False, f"exit {code}: {text.strip()[:120]}")
    return Outcome(OK, True)


def cli_queries(Q: SimpleNamespace, rng: random.Random) -> List[Query]:
    sample = {name: str(SAMPLES / f"{name}.qtrs") for name in (
        "nat", "dna-hamming", "dna-levenshtein", "graded-combinators",
        "linearity-example", "bck")}
    fixed = [
        # expectations of the command-line tests; bck has no critical peaks
        ("distance nat", ["distance", sample["nat"], "S(S(Z))", "Z",
                          "--mode", "directed", "--json"],
         lambda c, t: cli_json(c, t, 0, lambda o: o["kind"] == "exact"
                               and o["value"] == "2"
                               and len(o["witness"]) == 2)),
        ("critical-pairs nat", ["critical-pairs", sample["nat"], "--json"],
         lambda c, t: cli_json(c, t, 0, lambda o: len(o) == 1
                               and o[0]["inner_rule"] == "sdel")),
        ("local-confluence nat", ["check", sample["nat"], "--what",
                                  "local-confluence", "--json"],
         lambda c, t: cli_json(c, t, 0,
                               lambda o: o == {"peaks": 1, "joinable": 1})),
        ("orthogonal combinators", ["check", sample["graded-combinators"],
                                    "--what", "orthogonal", "--json"],
         lambda c, t: cli_json(c, t, 0, lambda o: o["orthogonal"] is True)),
        ("orthogonal linearity", ["check", sample["linearity-example"],
                                  "--what", "orthogonal", "--json"],
         lambda c, t: cli_json(c, t, 1, lambda o: o["orthogonal"] is False)),
        ("balanced combinators", ["check", sample["graded-combinators"],
                                  "--what", "balanced", "--json"],
         lambda c, t: cli_json(c, t, 0, lambda o: o["unbalanced"] == [])),
        ("balanced linearity", ["check", sample["linearity-example"],
                                "--what", "balanced", "--json"],
         lambda c, t: cli_json(c, t, 1, lambda o:
                               o["unbalanced"][0]["rule"] == "collapse")),
        ("degree combinators", ["degree", sample["graded-combinators"],
                                "!{3}(x app !{2}(I app x))", "x", "--json"],
         lambda c, t: cli_json(c, t, 0, lambda o: o["degree"] == "9" and [
             r["degree"] for r in o["positions"]] == ["3", "6"])),
        ("strong-closure bck", ["check", sample["bck"], "--what",
                                "strong-closure", "--json"],
         lambda c, t: cli_json(c, t, 0, lambda o: o["peaks"]
                               == o["strongly_closed"])),
    ]
    queries = [cli_query(Q, f"cli {label}", argv, judge)
               for label, argv, judge in fixed]

    sy = Q.systems
    for n in CLI_HAMMING_LENGTHS:
        # directed: A(a, b) reduces to a+b, then k successor deletions
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        k = rng.randrange(0, a + b + 1)
        queries.append(cli_query(
            Q, f"cli distance A({a},{b}) -> {a + b - k}",
            ["distance", sample["nat"], f"A({nat_text(a)}, {nat_text(b)})",
             nat_text(a + b - k), "--mode", "directed", "--json"],
            lambda c, t, k=k: cli_json(c, t, 0, lambda o: o["kind"] == "exact"
                                       and o["value"] == str(k))))
        s = rand_dna(rng, 2)
        u = edited(Q, rng, s, 3, 1)
        want = sy.oracle_levenshtein(s, u)
        queries.append(cli_query(
            Q, f"cli distance {s} {u}",
            ["distance", sample["dna-levenshtein"], dna_text(s), dna_text(u),
             "--max-term-size", str(max(len(s), len(u)) + 1), "--json"],
            lambda c, t, want=want: cli_levenshtein(c, t, want)))
        # the mismatch oracle: lengths differ by one, so unreachable (exit 1)
        h1, h2 = rand_dna(rng, n), rand_dna(rng, n + 1)
        queries.append(cli_query(
            Q, f"cli distance {h1} {h2}",
            ["distance", sample["dna-hamming"], dna_text(h1), dna_text(h2),
             "--max-term-size", str(n + 2)],
            lambda c, t: cli_exit(c, 1)))
    seed = f"A({nat_text(rng.randrange(0, 4))}, {nat_text(rng.randrange(0, 4))})"
    queries.append(cli_query(
        Q, f"cli confluence-report nat {seed}",
        ["check", sample["nat"], "--what", "confluence-report", "--seed",
         seed, "--json"],
        lambda c, t: cli_json(c, t, 0, lambda o: o["certificate"]
                              == "confluent by CP+Newman at explored scale")))
    return queries


def cli_exit(code: int, want: int) -> Outcome:
    if code == 2:
        return Outcome(FAILED, False, "inconclusive")
    return Outcome(OK, True) if code == want else Outcome(
        WRONG, False, f"exit {code}, want {want}")


def cli_levenshtein(code: int, text: str, want: int) -> Outcome:
    o = json.loads(text)
    if code == 2 or o["kind"] == "budget-exhausted":
        return Outcome(FAILED, False, o["kind"])
    value = Fraction(o["value"])
    if code != 0 or value < want or (o["kind"] == "exact" and value != want):
        return Outcome(WRONG, False, f"{o['kind']} {value}, oracle {want}")
    if value > want:
        return Outcome(FAILED, False, f"loose bound {value}, oracle {want}")
    return Outcome(OK, o["kind"] == "exact")


def closure_text(meet) -> str:
    return "-" if meet is None else f"{meet[0]}@{meet[1]}"


def build_certify(Q: SimpleNamespace, rng: random.Random) -> Plan:
    qtrs, sy = Q.qtrs, Q.systems
    App, Sym = Q.term.Application, Q.term.Symbol
    bary, bck, nat = sy.make_barycentric(), sy.make_bck(), sy.make_nat()
    modular = qtrs.sum_systems(bck, bary)
    gsys = sy.make_graded_combinators()
    linearity = sy.make_linearity_example()
    queries: List[Query] = []

    # barycentric critical peaks: every one closes strongly at depth 6
    for peak in sample_peaks(rng, qtrs.critical_pairs(bary)):
        queries.append(Query(
            f"peak {peak.inner_rule}/{peak.outer_rule} at {list(peak.position)}",
            lambda peak=peak: Q.qtrs.strongly_closed_check(bary, peak, 6),
            lambda v: Outcome(OK, True) if v.holds else Outcome(
                FAILED, False, "not closed at depth 6"),
            lambda v: f"{v.holds}|{closure_text(v.one_step_left)}"
                      f"|{closure_text(v.one_step_right)}"))

    # confluence reports with the certificates the test suite establishes
    nat_seeds = [App(Sym("A", 2), (sy.nat_term(rng.randrange(0, 4)),
                                   sy.nat_term(rng.randrange(0, 4))))
                 for _ in range(2)]
    reports = [
        ("report nat", lambda: Q.qtrs.confluence_report(nat, nat_seeds, 6),
         "confluent by CP+Newman at explored scale"),
        ("report bck", lambda: Q.qtrs.confluence_report(bck, (), 6),
         "confluent by strong closure"),
        ("report bck+barycentric",
         lambda: Q.qtrs.confluence_report(modular, (), 6,
                                          components=(bck, bary)),
         "confluent by Hindley-Rosen"),
    ]
    for label, run, want in reports:
        queries.append(Query(label, run, expect_certificate(want),
                             lambda r: f"{r.certificate}|{sorted(r.evidence.items())}"))

    # the linearity counterexample: duplication doubles the decay cost
    e, i = App(Sym("e", 0), ()), App(Sym("i", 0), ())
    lin_peak = qtrs.CriticalPeak(
        source=App(Sym("f", 2), (e, e)),
        left=(App(Sym("f", 2), (i, e)), Fraction(1)),
        right=(e, Fraction(0)), position=(1,),
        inner_rule="decay", outer_rule="collapse")

    def lin_check(v) -> Outcome:
        if v.kind == "unknown" and v.peak_total == 1 and v.best_total == 2:
            return Outcome(OK, False)
        return Outcome(WRONG, False, f"{v.kind}, best {v.best_total}")

    queries.append(Query(
        "join linearity counterexample",
        lambda: Q.qtrs.join_check(linearity, lin_peak, 6), lin_check,
        lambda v: f"{v.kind}|{v.peak_total}|{v.best_total}|{v.meet}"))

    # orthogonal graded system: the multi-step diamond always closes
    for seed in diamond_seeds(Q, rng, DIAMOND_SEEDS):
        queries.append(Query(
            f"diamond {seed}",
            lambda seed=seed: Q.graded.multistep_diamond_probe(gsys, seed, 4),
            lambda r: Outcome(OK, True) if r.holds else Outcome(
                WRONG, False, f"{len(r.violations)} violations"),
            lambda r: f"{r.peaks_checked}|{r.peaks_closed}|{len(r.violations)}"))

    # weighted relations: confluence = Church-Rosser; Newman on acyclic ones
    for n, acyclic in QREL_SHAPES:
        rel = random_relation(Q, rng, n, acyclic)
        if acyclic:
            queries.append(Query(
                f"acyclic relation on {n} nodes",
                lambda rel=rel: (rel.locally_confluent_check(),
                                 rel.confluent_check()),
                lambda r: Outcome(WRONG, False, "locally confluent only")
                if r[0] and not r[1] else Outcome(OK, True),
                str))
        else:
            queries.append(Query(
                f"relation on {n} nodes",
                lambda rel=rel: (rel.confluent_check(),
                                 rel.church_rosser_check()),
                lambda r: Outcome(OK, True) if r[0] == r[1] else Outcome(
                    WRONG, False, f"confluent {r[0]}, Church-Rosser {r[1]}"),
                str))

    queries.extend(cli_queries(Q, rng))
    return Plan(queries)


BUILDERS: Dict[str, Callable[[SimpleNamespace, random.Random], Plan]] = {
    "dna-cold": build_dna_cold,
    "dna-warm": build_dna_warm,
    "deep-nat": build_deep_nat,
    "certify": build_certify,
}
