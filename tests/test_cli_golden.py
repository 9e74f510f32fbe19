"""Golden tests for the command-line interface and the library.

Each CLI case runs ``qtrw`` in process on a sample system and compares its
exit code and its exact standard output with the files under
``tests/golden/``: the step lists, critical peaks, check verdicts, distance
answers with their witnesses (directions and rule ids included), and a
reduction graph.  Four library goldens cover what the CLI does not print:
``normalize`` under every strategy at several depths on each sample's seed
term (``normalize.json``), ``multi_step`` on seeded graded-combinator
terms at widths 1, 2 and 4 (``multi-step.json``), the parser
(``parse.json``): every sample emitted back as text, a corpus of parsed
terms, and the exception class and line number of malformed inputs, and
``strong_closure_pass`` over every critical peak of every sample at depth 6,
the pass that ``qtrw check --what strong-closure`` and the confluence
report run (``strong-closure.json``): the verdict and both one-sided meets.

To regenerate all goldens after an intended output change, run this file as
a script: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from qtrw.cli import main
from qtrw.dsl import emit_system, parse_system, parse_term
from qtrw.graded import multi_step
from qtrw.qtrs import critical_pairs, strong_closure_pass
from qtrw.search import SearchBudget, normalize
from qtrw.term import (Application, Symbol, Variable, apply_substitution,
                       instantiate_params, term_key, variables)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# one seed term per sample: rewritten, probed for termination, and used as
# the confluence report's seed
SEEDS = {
    "barycentric": "x +{1/2} (y +{1/4} z)",
    "bck": "app(app(app(C, K), B), K)",
    "bck-nat": "app(app(A, app(S, Z)), app(S, Z))",
    "bck-nat-w": "app(app(A, Z), app(S, Z))",
    "dna-eigen-mccaskill": "A(G(C(nil)))",
    "dna-hamming": "A(C(nil))",
    "dna-levenshtein": "A(C(nil))",
    "graded-combinators": "app(app(K, D), !{0}(B))",
    "linearity-example": "f(e, e)",
    "nat": "A(S(Z), S(Z))",
    "semilattice": "un(a, b)",
    "tick": "tick(tick(nil))",
    "ticking": "w{2}(w{1}(nil))",
    "ticking-terminating": "w{2}(w{1}(nil))",
}

# samples with hundreds of critical peaks get a shallow valley depth and a
# smaller critical-pair grid
LARGE = {"barycentric": "0 1/2 1", "ticking": "0 1 2",
         "ticking-terminating": "0 1 2"}

DISTANCES = [
    ("dna-hamming", "A(C(nil))", "G(T(nil))"),
    ("dna-levenshtein", "A(C(G(nil)))", "C(G(T(nil)))"),
    ("dna-eigen-mccaskill", "A(G(nil))", "T(C(nil))"),
    ("nat", "A(S(Z), S(Z))", "S(S(Z))"),
    ("nat", "S(Z)", "A(Z, S(S(Z)))"),
    ("barycentric", "x +{1/2} y", "y +{1/2} x"),
    ("barycentric", "x", "x +{1} y"),
    ("barycentric", "y", "x +{1} y"),
    ("graded-combinators", "K", "app(D, !{1}(K))"),
    ("graded-combinators", "app(app(K, D), !{0}(B))", "app(D, !{1}(D))"),
    ("graded-combinators", "!{2}(app(D, !{1}(K)))", "!{2}(K)"),
]
DISTANCE_BUDGET = ["--max-expanded", "300", "--max-depth", "6",
                   "--max-term-size", "9"]


def _cases():
    """(golden file name, argv with sample names for file paths)."""
    cases = []
    for name, seed in sorted(SEEDS.items()):
        depth = ["--depth", "1" if name in LARGE else "2"]
        probe = ["--seed", seed, "--max-terms", "50"]
        cases.append((f"{name}.rewrite.json",
                      ["rewrite", name, seed, "--json"]))
        cases.append((f"{name}.rewrite-steps.json",
                      ["rewrite", name, seed, "--steps", "3", "--json"]))
        grid = ["--grid", LARGE[name]] if name in LARGE else []
        cases.append((f"{name}.critical-pairs.json",
                      ["critical-pairs", name, "--json"] + grid))
        for what, extra in [("orthogonal", []), ("balanced", []),
                            ("sn-probe", probe),
                            ("strong-closure", depth),
                            ("local-confluence", depth),
                            ("confluence-report", probe + depth)]:
            cases.append((f"{name}.check-{what}.json",
                          ["check", name, "--what", what, "--json"] + extra))
    for i, (name, s, t) in enumerate(DISTANCES):
        for mode in ("directed", "convert", "valley"):
            cases.append((f"{name}.distance-{i}-{mode}.json",
                          ["distance", name, s, t, "--mode", mode, "--json"]
                          + DISTANCE_BUDGET))
    graded = "graded-combinators"
    cases.append((f"{graded}.graph.dot",
                  ["graph", graded, "app(app(K, D), !{0}(app(D, !{1}(B))))",
                   "--depth", "3", "--dot"]))
    cases.append((f"{graded}.degree.json",
                  ["degree", graded, "!{3}(x app !{2}(I app x))", "x",
                   "--json"]))
    return cases


CASES = _cases()


def _run(argv):
    argv = list(argv)
    argv[1] = str(SAMPLES / f"{argv[1]}.qtrs")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads(EXIT_CODES.read_text())


@pytest.mark.parametrize("golden,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(golden, argv, exit_codes):
    code, out = _run(argv)
    assert code == exit_codes[golden]
    assert out == (GOLDEN / golden).read_text()


# -- library goldens -----------------------------------------------------------

NORMALIZE_DEPTHS = (1, 2, 3, 6)
NORMALIZE_EXPANDED = 300  # "all" exhausts at depth 6 on three samples
MULTI_STEP_WIDTHS = (1, 2, 4)


def _system(name):
    return parse_system((SAMPLES / f"{name}.qtrs").read_text())


def _normalize_golden():
    out = {}
    for name, seed in sorted(SEEDS.items()):
        sysm = _system(name)
        t = parse_term(seed, sysm.signature)
        rows = out[name] = {}
        for strategy in ("leftmost-innermost", "leftmost-outermost", "all"):
            for depth in NORMALIZE_DEPTHS:
                res = normalize(sysm, t, strategy, SearchBudget(
                    max_expanded=NORMALIZE_EXPANDED, max_depth=depth))
                rows[f"{strategy} {depth}"] = {
                    "normal_forms": [[term_key(u), str(w)]
                                     for u, w in res.normal_forms],
                    "exhausted": res.exhausted}
    return out


def _multi_step_terms(gsys, count=12):
    """Seeded graded-combinator terms holding several redexes: instances of
    the rules' left-hand sides whose arguments are leaves or other redexes,
    and applications of two such terms."""
    rng = random.Random("multi-step")
    leaves = [Variable("x"), Variable("y")] + [
        Application(Symbol(f.name, 0, tuple(
            rng.choice(gsys.grid) for _ in f.param_names)), ())
        for f in gsys.signature if f.arity == 0]

    def redex(args):
        rule = rng.choice(gsys.rules)
        lhs = instantiate_params(
            rule.lhs, {p: rng.choice(gsys.grid) for p in rule.params})
        return apply_substitution(
            lhs, {x: rng.choice(args) for x in sorted(variables(lhs))})

    inner = [redex(leaves) for _ in range(count)]
    outer = [redex(leaves + inner) for _ in range(count)]
    app = Symbol("app", 2)
    return outer + [Application(app, (rng.choice(inner), rng.choice(outer)))
                    for _ in range(count // 2)]


def _multi_step_golden():
    gsys = _system("graded-combinators")
    out = {}
    for t in _multi_step_terms(gsys):
        out[term_key(t)] = {
            str(width): [[term_key(m.target), str(m.weight), m.nredex]
                         for m in multi_step(gsys, t, width)]
            for width in MULTI_STEP_WIDTHS}
    return out


# terms for the parser golden beyond each sample's seed: infix chains,
# nested parentheses, and parameter expressions with -, / and abs
PARSE_TERMS = {
    "barycentric": [
        "x +{1/3} y +{1/3} z +{1/2} x", "x+{0}y+{1}z",
        "((x +{1} (y)) +{0} ((z)))", "(((x)))", "x +{1/2} +{1/4}(y, z)",
        "+{(1 - 1/4)}(x, y)", "+{1 - 1/2 - 1/4}(x, y)", "x +{abs(-1/2)} y",
        "x +{ 2/4 } y", "x +{1 - e} y", "+{(e1 * e2)}(x, +{e2 / (1 - e1)}(y, z))",
        "x +{-(1/2 - 1)} y", "x +{abs(1/4 - 3/4) / 2} (y +{0.25} z)",
        "x +{1/2}(y)"],
    "graded-combinators": [
        "delta{1, 2}", "W{1/2, abs(1 - 3)}", "!{2 * 3 / 4}(x)", "!{.5}(x)",
        "x app y app z", "K app (D app !{1}(B))", "F{-1}", "!{-(1 - 2)}(x)",
        "!{n}(!{m}(x))", "app(delta{n,m}, !{(n * m)}(x))",
        "W{n, m} app x app !{n + m}(y)", "!{1.5}((x app y) app (z))"],
    "nat": ["A(S(Z), A(Z, S(x)))", " A ( Z , Z ) ", "Z()", "x", "(A((Z), x))"],
    "bck": ["app(app(C, K), B) app K", "B app (C app K) app (K app x)"],
    "ticking": ["w{abs(0 - 3)}(w{6/3}(nil))", "w{n + m}(w{n}(x))"],
}

# (sample, term) pairs the parser rejects
PARSE_BAD_TERMS = [
    ("nat", t) for t in [
        "S(Z", "S(Z, Z)", "S(Z) junk(", "", "   ", "(Z", "()", ")", "x(Z)",
        "q{1}", "S(Z,)", "S(,Z)", "A(Z Z)", "S(Z))", "Z +{1/2} Z",
        "S{1}(Z)", "A(Z, Z", "A(Z,, Z)", "S(Z)(Z)", "x y", "Z(", "S(Z ,"]
] + [
    ("barycentric", t) for t in [
        "x +{1/2", "x +{1/2,} y", "x +{} y", "x +{1,2} y", "x +{(1} y",
        "x +{1/0} y", "x +{a b} y", "+{1/2}(x)", "x +{1/2} ", "x +{1/2} y +",
        "x + y", "x +{1 2} y", "x +{1)} y", "x +{abs(1} y", "x +{-} y",
        "+{1/2}(x, y, z)", "x +{1/2} (y", "(x +{1/2} y", "x +{1/2}} y",
        "x +{abs 1} y"]
] + [
    ("graded-combinators", t) for t in [
        "!{1}", "delta{1}", "app(K)", "K app", "!{1 -> 2}(x)", "!(x)",
        "F{1}(x)", "!{1}(x, y)"]
]

# system texts the parser rejects
_HEAD = "system bad\nquantale lawvere\n"
PARSE_BAD_SYSTEMS = {
    "term-in-rule": _HEAD + "symbol f/1\nrule bad: f(x x) -[0]-> x",
    "condition": _HEAD + "symbol f/1\nrule r: f(x) -[1]-> x where 1 <",
    "directive": _HEAD + "foo bar",
    "no-quantale": "system bad\nsymbol a/0\n",
    "quantale": "system bad\nquantale imaginary\n",
    "symbol": _HEAD + "symbol f",
    "flags": _HEAD + "symbol f/1 wibble",
    "grades-arity": _HEAD + "symbol f/1 grades [1, 2]",
    "grades-bracket": _HEAD + "symbol f/1 grades 1",
    "weight": _HEAD + "symbol a/0\nrule r: a -[a b]-> a",
    "option": _HEAD + "option foo 1",
    "grid": _HEAD + "option grid a",
    "arrow": _HEAD + "symbol a/0\nrule r: a a",
    "empty-side": _HEAD + "symbol a/0\nrule r: -[1]-> a",
    "rule-line": _HEAD + "symbol a/0\nrule : a -[1]-> a",
    "unknown-symbol": _HEAD + "symbol a/0\n\nrule r: a -[1]-> g(a)",
    "param-expr": _HEAD + "symbol f{n}/1\nrule r: f{1/0}(x) -[1]-> x",
    "param-list": _HEAD + "symbol f{n}/1\nrule r: f{1(x) -[1]-> x",
    "param-count": _HEAD + "symbol f{n}/1\n# c\nrule r: f{1, 2}(x) -[1]-> x",
    "infix-rhs": _HEAD + "symbol +{e}/2 infix\nrule r: x +{1} -[1]-> x",
}


def _parse_error(parse):
    try:
        parse()
    except Exception as exc:  # noqa: BLE001 - the class is the datum
        return [type(exc).__name__, getattr(exc, "line", None)]
    return None


def _parse_golden():
    out = {"systems": {}, "terms": {}, "errors": {}}
    for name in sorted(SEEDS):
        sysm = _system(name)
        out["systems"][name] = emit_system(sysm)
        sig = sysm.signature
        out["terms"][name] = {
            text: str(parse_term(text, sig))
            for text in [SEEDS[name]] + PARSE_TERMS.get(name, [])}
    for name, text in PARSE_BAD_TERMS:
        sig = _system(name).signature
        out["errors"][f"{name}: {text}"] = _parse_error(
            lambda: parse_term(text, sig, 7))
    for label, text in PARSE_BAD_SYSTEMS.items():
        out["errors"][f"system {label}"] = _parse_error(
            lambda: parse_system(text))
    return out


STRONG_CLOSURE_DEPTH = 6


def _strong_closure_golden():
    def meet(side):
        return None if side is None else [term_key(side[0]), str(side[1])]

    out = {}
    for name in sorted(SEEDS):
        sysm = _system(name)
        peaks = critical_pairs(sysm)
        out[name] = []
        for peak, v in zip(peaks, strong_closure_pass(
                sysm, peaks, STRONG_CLOSURE_DEPTH)):
            out[name].append({
                "peak": [peak.inner_rule, peak.outer_rule,
                         list(peak.position), term_key(peak.source)],
                "holds": v.holds,
                "one_step_left": meet(v.one_step_left),
                "one_step_right": meet(v.one_step_right)})
    return out


LIBRARY = {"normalize.json": _normalize_golden,
           "multi-step.json": _multi_step_golden,
           "parse.json": _parse_golden,
           "strong-closure.json": _strong_closure_golden}


def _library_text(golden):
    return json.dumps(LIBRARY[golden](), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("golden", sorted(LIBRARY))
def test_library_output_matches_golden(golden):
    assert _library_text(golden) == (GOLDEN / golden).read_text()


def test_goldens_cover_backward_schema_and_graded_witnesses():
    def backward_rules(golden):
        answer = json.loads((GOLDEN / golden).read_text())
        return {w["rule"] for w in answer["witness"]
                if w["direction"] == "backward"}

    # perturb is a schema rule: its step carries the parameter assignment
    bary = backward_rules("barycentric.distance-7-convert.json")
    assert any(r.startswith("perturb[") for r in bary)
    assert "D" in backward_rules("graded-combinators.distance-9-convert.json")


def test_every_golden_belongs_to_a_case():
    names = {c[0] for c in CASES}
    on_disk = {p.name for p in GOLDEN.iterdir()} - {EXIT_CODES.name}
    assert on_disk == names | set(LIBRARY)
    assert set(json.loads(EXIT_CODES.read_text())) == names


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for golden, argv in CASES:
        codes[golden], out = _run(argv)
        (GOLDEN / golden).write_text(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    for golden in LIBRARY:
        (GOLDEN / golden).write_text(_library_text(golden))
