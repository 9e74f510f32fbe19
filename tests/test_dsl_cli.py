"""Tests for the system file format and the command-line interface."""

import json
import re
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from qtrw.cli import main
from qtrw.dsl import DslError, emit_system, emit_term, parse_system, parse_term
from qtrw.qtrs import (GradedError, Rule, RewriteSystem, SymbolFamily,
                       degree_of_variable, one_step)
from qtrw.quantale import LAWVERE, QuantaleError
from qtrw.search import strategy_path
from qtrw.systems import CATALOG
from qtrw.term import Application, Symbol, TermError, Variable

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


# ---------------------------------------------------------------------------
# parsing and emission


def test_catalog_names_the_samples():
    assert sorted(CATALOG) == sorted(p.stem for p in SAMPLES.glob("*.qtrs"))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_samples_round_trip_catalog(name):
    parsed = parse_system((SAMPLES / f"{name}.qtrs").read_text())
    assert CATALOG[name]() == parsed
    # emission is itself parseable and stable
    assert parse_system(emit_system(parsed)) == parsed


def test_parse_term_infix_and_params():
    sys = parse_system((SAMPLES / "barycentric.qtrs").read_text())
    t = parse_term("x +{1/2} (y +{1/4} z)", sys.signature)
    assert t.symbol == Symbol("+", 2, (Fraction(1, 2),))
    inner = t.args[1]
    assert inner.symbol.params == (Fraction(1, 4),)
    assert parse_term(emit_term(t), sys.signature) == t


def test_parse_term_errors():
    sys = parse_system((SAMPLES / "nat.qtrs").read_text())
    with pytest.raises(DslError):
        parse_term("S(Z", sys.signature)          # unbalanced
    with pytest.raises(DslError):
        parse_term("S(Z, Z)", sys.signature)      # wrong arity
    with pytest.raises(DslError):
        parse_term("S(Z) junk(", sys.signature)   # trailing input


def test_parse_system_reports_line_numbers():
    text = "\n".join([
        "system broken",
        "quantale lawvere",
        "symbol f/1",
        "rule bad: f(x x) -[0]-> x",
    ])
    with pytest.raises(DslError) as err:
        parse_system(text)
    assert err.value.line == 4


WORDS = ["system words", "quantale lawvere", "symbol f/1", "symbol nowhere/0"]


def test_where_starts_conditions_only_as_a_whole_word():
    sys = parse_system("\n".join(WORDS + [
        "rule r: f(x) -[1]-> nowhere",
        "rule s: f(elsewhere) -[1]-> elsewhere"]))
    r, s = sys.rules
    assert r.rhs == Application(Symbol("nowhere", 0), ()) and not r.conditions
    assert s.lhs == Application(Symbol("f", 1), (Variable("elsewhere"),))
    assert s.rhs == Variable("elsewhere") and not s.conditions


def test_cli_rewrite_to_a_symbol_containing_where(tmp_path, capsys):
    path = tmp_path / "words.qtrs"
    path.write_text("\n".join(WORDS + ["rule r: f(x) -[1]-> nowhere"]))
    assert main(["rewrite", str(path), "f(nowhere)"]) == 0
    assert capsys.readouterr().out == "-[1]-> nowhere   (r at [])\n"


def test_malformed_condition_is_a_dsl_error(tmp_path, capsys):
    text = "\n".join(WORDS[:3] + ["rule r: f(x) -[1]-> x where 1 <"])
    with pytest.raises(DslError) as err:
        parse_system(text)
    assert err.value.line == 4
    path = tmp_path / "broken.qtrs"
    path.write_text(text)
    assert main(["rewrite", str(path), "f(x)"]) == 1
    assert capsys.readouterr().err.startswith("error: line 4: ")


def test_rules_sharing_an_id_are_rejected(tmp_path, capsys):
    # one id for two rules would hide their root overlap: a -> b, a -> c
    text = "\n".join([
        "system dup", "quantale lawvere", "symbol a/0", "symbol b/0",
        "symbol c/0", "rule r: a -[0]-> b", "rule r: a -[0]-> c"])
    with pytest.raises(TermError, match="^duplicate rule id 'r'$"):
        parse_system(text)
    path = tmp_path / "dup.qtrs"
    path.write_text(text)
    assert main(["check", str(path), "--what", "confluence-report"]) == 1
    assert capsys.readouterr() == ("", "error: duplicate rule id 'r'\n")


def test_repeated_grid_values_are_rejected(tmp_path, capsys):
    # 2/4 is 1/2: each schema instance at it would be emitted twice
    grid = "0 1/2 2/4 1"
    bary = SAMPLES / "barycentric.qtrs"
    with pytest.raises(TermError, match="^repeated grid value 1/2$"):
        replace(CATALOG["barycentric"](), grid=tuple(
            Fraction(g) for g in grid.split()))
    assert main(["critical-pairs", str(bary), "--grid", grid]) == 1
    assert capsys.readouterr() == ("", "error: repeated grid value 1/2\n")
    path = tmp_path / "ticking.qtrs"
    path.write_text((SAMPLES / "ticking.qtrs").read_text().replace(
        "option grid 0 1 2 3 4 5", f"option grid {grid}"))
    with pytest.raises(TermError, match="^repeated grid value 1/2$"):
        parse_system(path.read_text())
    assert main(["check", str(path), "--what", "local-confluence"]) == 1
    assert capsys.readouterr() == ("", "error: repeated grid value 1/2\n")


def test_a_rule_variable_may_not_name_a_later_symbol(tmp_path, capsys):
    lines = ["system late", "quantale lawvere", "symbol g/1",
             "rule r: g(a) -[1]-> a", "symbol a/0", "symbol b/0"]
    text = "\n".join(lines)
    with pytest.raises(DslError, match="^line 4: variable 'a' of rule r is"
                       " declared as a symbol after the rule$"):
        parse_system(text)
    path = tmp_path / "late.qtrs"
    path.write_text(text)
    assert main(["rewrite", str(path), "g(b)"]) == 1
    assert capsys.readouterr().err.startswith("error: line 4: variable 'a'")
    # declared first, ``a`` is the constant, and emission round-trips
    early = parse_system("\n".join(lines[:3] + lines[4:] + lines[3:4]))
    assert one_step(early, parse_term("g(b)", early.signature)) == []
    assert parse_system(emit_system(early)) == early


def test_the_library_rejects_a_rule_variable_named_like_a_symbol():
    # built in Python, the clash would reach emit_system, which writes the
    # variable as the symbol, so the round trip would change the rule
    g = Symbol("g", 1)
    rule = Rule("r", Application(g, (Variable("a"),)),
                Application(g, (Variable("a"),)), 1)
    sig = (SymbolFamily("g", 1), SymbolFamily("a", 0))
    with pytest.raises(TermError, match="^rule r: variable 'a' has the name"
                       " of a symbol family$"):
        RewriteSystem("clash", LAWVERE, sig, (rule,))
    # without the symbol family the system builds and round-trips
    ok = RewriteSystem("clash", LAWVERE, sig[:1], (rule,))
    assert parse_system(emit_system(ok)) == ok


def test_parse_system_rejects_unknown_quantale():
    with pytest.raises(DslError):
        parse_system("system q\nquantale imaginary\nsymbol a/0\n"
                     "rule r: a -[0]-> a\n")


# ---------------------------------------------------------------------------
# CLI


def _nat(*extra):
    return ["distance", str(SAMPLES / "nat.qtrs"), *extra]


def test_cli_distance_json(capsys):
    code = main(_nat("S(S(Z))", "Z", "--mode", "directed", "--json"))
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["kind"] == "exact" and out["value"] == "2"
    assert len(out["witness"]) == 2


def test_cli_directed_distance_under_a_weight_cutoff(capsys):
    # the cutoff 0 prunes every sdel step; the witness is addS 20 times,
    # then addZ, as without the cutoff
    def numeral(n):
        return "S(" * n + "Z" + ")" * n

    argv = _nat(f"A({numeral(20)}, {numeral(20)})", numeral(40),
                "--mode", "directed", "--json")
    outputs = []
    for extra in (["--weight-cutoff", "0"], []):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    out = json.loads(outputs[0])
    assert out["kind"] == "exact" and out["value"] == "0"
    assert len(out["witness"]) == 21
    assert outputs[0] == outputs[1]


def test_cli_distance_exit_codes(capsys):
    ham = str(SAMPLES / "dna-hamming.qtrs")
    assert main(["distance", ham, "A(nil)", "C(A(nil))",
                 "--max-term-size", "4"]) == 1     # unreachable
    assert main(_nat("Z", "S(S(S(S(S(S(Z))))))", "--max-expanded", "3")) == 2
    capsys.readouterr()


def test_cli_rewrite_lists_steps(capsys):
    code = main(["rewrite", str(SAMPLES / "nat.qtrs"), "A(Z, S(Z))", "--json"])
    steps = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {s["rule"] for s in steps} == {"addS", "sdel"}


def test_cli_rewrite_steps_follow_the_leftmost_outermost_path(capsys):
    path = SAMPLES / "nat.qtrs"
    sys = parse_system(path.read_text())
    t = parse_term("A(S(S(Z)), S(Z))", sys.signature)
    full = list(strategy_path(sys, t, "leftmost-outermost"))
    assert len(full) > 3
    for n in (1, 3, len(full) + 2):
        assert main(["rewrite", str(path), str(t), "--steps", str(n),
                     "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == [
            {"rule": s.rule_id, "position": list(s.position),
             "weight": str(s.weight), "target": str(s.target)}
            for s in islice(full, n)]
    assert main(["rewrite", str(path), str(t), "--steps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"-[{s.weight}]-> {s.target}   ({s.rule_id} at"
                     f" {list(s.position)})" for s in full[:2]] + [
        f"result: {full[1].target}"]


def test_cli_critical_pairs(capsys):
    code = main(["critical-pairs", str(SAMPLES / "nat.qtrs"), "--json"])
    peaks = json.loads(capsys.readouterr().out)
    assert code == 0 and len(peaks) == 1
    assert peaks[0]["inner_rule"] == "sdel"


def test_cli_check_local_confluence(capsys):
    code = main(["check", str(SAMPLES / "nat.qtrs"),
                 "--what", "local-confluence", "--json"])
    result = json.loads(capsys.readouterr().out)
    assert code == 0
    assert result == {"peaks": 1, "joinable": 1}


def test_cli_check_orthogonal(capsys):
    combi = str(SAMPLES / "graded-combinators.qtrs")
    assert main(["check", combi, "--what", "orthogonal", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["orthogonal"] is True
    bad = str(SAMPLES / "linearity-example.qtrs")
    assert main(["check", bad, "--what", "orthogonal", "--json"]) == 1
    capsys.readouterr()


def test_cli_check_balanced(capsys):
    combi = str(SAMPLES / "graded-combinators.qtrs")
    assert main(["check", combi, "--what", "balanced", "--json"]) == 0
    bad = str(SAMPLES / "linearity-example.qtrs")
    assert main(["check", bad, "--what", "balanced", "--json"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["unbalanced"][0]["rule"] == "collapse"


def test_cli_degree(capsys):
    combi = str(SAMPLES / "graded-combinators.qtrs")
    code = main(["degree", combi, "!{3}(x app !{2}(I app x))", "x", "--json"])
    result = json.loads(capsys.readouterr().out)
    assert code == 0
    assert result["degree"] == "9"
    assert [row["degree"] for row in result["positions"]] == ["3", "6"]


def test_cli_graph_dot(capsys):
    code = main(["graph", str(SAMPLES / "nat.qtrs"), "A(Z, S(Z))",
                 "--depth", "3", "--dot"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("digraph")


@pytest.mark.parametrize("argv, message", [
    (["check", "--what", "local-confluence", "--depth", "0"],
     "--depth must be at least 1, not 0"),
    (["check", "--what", "sn-probe", "--seed", "Z", "--max-terms", "-1"],
     "--max-terms must be at least 1, not -1"),
    (["rewrite", "A(Z, Z)", "--steps", "-2"],
     "--steps must be at least 0, not -2"),
    (["graph", "A(Z, Z)", "--depth", "-1"],
     "--depth must be at least 0, not -1")],
    ids=["check-depth", "check-max-terms", "rewrite-steps", "graph-depth"])
def test_cli_bounds_out_of_range_are_errors(argv, message, capsys):
    command, *rest = argv
    assert main([command, str(SAMPLES / "nat.qtrs"), *rest]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_errors_return_one(capsys):
    assert main(["rewrite", "no-such-file.qtrs", "Z"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(_nat("S(S(Z)", "Z")) == 1
    capsys.readouterr()


def test_cli_undefined_rule_instances_and_expression_errors(tmp_path, capsys):
    inverse = tmp_path / "inverse.qtrs"
    inverse.write_text("\n".join([
        "system inverse", "quantale lawvere", "symbol f{e}/1", "symbol a/0",
        "rule inv: f{e}(x) -[1]-> f{(1 / e)}(x)", "option grid 0 1 2"]))
    # f{(1 / e)} is undefined at e = 0, so the rule does not fire there
    assert main(["rewrite", str(inverse), "f{0}(a)"]) == 0
    assert capsys.readouterr().out == "normal form\n"
    # a grade undefined at the symbol's parameters is an error, not a crash
    graded = tmp_path / "graded.qtrs"
    graded.write_text("\n".join([
        "system graded", "quantale lawvere",
        "symbol h{n}/1 grades [(1 / n)]", "symbol a/0"]))
    assert main(["degree", str(graded), "h{0}(x)", "x"]) == 1
    assert capsys.readouterr().err == "error: division by zero in (1 / n)\n"


def test_negative_grades_are_errors(tmp_path, capsys):
    path = tmp_path / "negative.qtrs"
    path.write_text("\n".join([
        "system negative", "quantale lawvere",
        "symbol g{n}/1 grades [n - 2]", "symbol a/0"]))
    base = parse_system(path.read_text())
    t = parse_term("g{1}(x)", base.signature)
    with pytest.raises(GradedError, match="^negative sensitivity -1$"):
        degree_of_variable(base, t, "x")
    assert main(["degree", str(path), "g{1}(x)", "x"]) == 1
    assert capsys.readouterr().err == "error: negative sensitivity -1\n"


def test_schema_rules_with_constant_weights_are_checked(tmp_path, capsys):
    path = tmp_path / "schema.qtrs"
    head = ["system schema", "quantale lawvere", "option grid 0 1",
            "symbol f{n}/1", "symbol a/0"]
    argv = ["distance", str(path), "f{1}(f{0}(a))", "a", "--mode",
            "directed"]
    # the schema's instances all weigh the constant, so it is checked once
    for weight, err in [
            ("-1", "Fraction(-1, 1) is not a value of quantale lawvere"),
            ("inf", "bottom weight")]:
        path.write_text("\n".join(
            head + [f"rule r: f{{n}}(x) -[{weight}]-> x"]))
        with pytest.raises(QuantaleError, match=re.escape(f"rule r: {err}")):
            parse_system(path.read_text())
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: rule r: {err}\n")


def test_balance_skips_undefined_schema_instances(tmp_path, capsys):
    path = tmp_path / "gr.qtrs"
    path.write_text("\n".join([
        "system gr", "quantale lawvere", "option grid 0 1 2",
        "symbol h{e}/1 grades [e]", "symbol a/0",
        "rule inv: h{e}(x) -[0]-> h{(1 / e)}(x)"]))
    # h{(1 / e)} is undefined at e = 0, so that instance is not checked;
    # at e = 2 the degrees of x differ
    assert main(["check", str(path), "--what", "balanced", "--json"]) == 1
    assert capsys.readouterr() == (
        '{"rules_checked": 1, "unbalanced": [{"rule": "inv", "variable": "x",'
        ' "lhs": "2", "rhs": "1/2"}], "sampled": true}\n', "")


def test_cli_library_errors_return_one(capsys):
    bary = str(SAMPLES / "barycentric.qtrs")
    assert main(["critical-pairs", bary, "--grid", " "]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no parameter grid" in err
    tick = str(SAMPLES / "tick.qtrs")
    for argv in (["rewrite", tick, "tick(nil"],
                 ["distance", tick, "tick(nil", "nil"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("directive, message", [
    ("option grid 0 1/0", "line 3: grid value Fraction(1, 0) has a zero"),
    ("symbol f/1 grades [1", "line 3: expected ']' after grades")])
def test_malformed_directives_are_dsl_errors_with_a_line(
        tmp_path, capsys, directive, message):
    text = "\n".join(["system bad", "quantale lawvere", directive])
    with pytest.raises(DslError) as exc:
        parse_system(text)
    assert exc.value.line == 3 and str(exc.value).startswith(message)
    path = tmp_path / "bad.qtrs"
    path.write_text(text)
    assert main(["rewrite", str(path), "x"]) == 1
    assert capsys.readouterr().err.startswith("error: " + message)


@pytest.mark.parametrize("quantale, weight", [
    ("lawvere", "-1"), ("nat-inf", "1/2"), ("fuzzy-product", "2"),
    ("bool", "2")])
def test_cli_rejects_rule_weights_outside_the_quantale(
        tmp_path, capsys, quantale, weight):
    path = tmp_path / "weights.qtrs"
    path.write_text("\n".join([
        "system weights", f"quantale {quantale}", "symbol a/0", "symbol b/0",
        f"rule r: a -[{weight}]-> b"]))
    assert main(["distance", str(path), "a", "b"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: rule r: Fraction({Fraction(weight).numerator},")


def test_cli_grid_argument_errors_are_reported(capsys):
    bary = str(SAMPLES / "barycentric.qtrs")
    assert main(["critical-pairs", bary, "--grid", "0 1/0"]) == 1
    assert capsys.readouterr() == (
        "", "error: grid value Fraction(1, 0) has a zero denominator\n")
    # a weight cutoff is a value of the system's quantale
    nat = str(SAMPLES / "nat.qtrs")
    for cutoff, err in [
            ("1/0", "error: weight '1/0' has a zero denominator\n"),
            ("-1", "error: Fraction(-1, 1) is not a value of quantale"
                   " lawvere\n")]:
        assert main(["distance", nat, "Z", "Z", "--weight-cutoff", cutoff]) == 1
        assert capsys.readouterr() == ("", err)


def test_cli_prints_weights_as_quantale_literals(tmp_path, capsys):
    path = tmp_path / "bool.qtrs"
    path.write_text("\n".join(["quantale bool", "symbol a/0", "symbol b/0",
                               "rule r: a -[true]-> b"]))
    bool_file = str(path)
    assert main(["rewrite", bool_file, "a"]) == 0
    assert capsys.readouterr().out == "-[true]-> b   (r at [])\n"
    assert main(["rewrite", bool_file, "a", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"rule": "r", "position": [], "weight": "true", "target": "b"}]
    assert main(["distance", bool_file, "a", "b", "--json"]) == 0
    answer = json.loads(capsys.readouterr().out)
    assert answer["value"] == "true"
    assert [w["weight"] for w in answer["witness"]] == ["true"]
    assert main(["distance", bool_file, "a", "b",
                 "--weight-cutoff", "true"]) == 0
    assert capsys.readouterr() == ("exact true (1 steps, 2 expanded)\n", "")
    path.write_text("\n".join(["quantale bool", "symbol a/0", "symbol b/0",
                               "symbol c/0", "symbol f/1",
                               "rule r: a -[true]-> b",
                               "rule s: f(a) -[true]-> c"]))
    assert main(["critical-pairs", bool_file]) == 0
    assert capsys.readouterr().out.startswith(
        "f(b) <-[true]- f(a) -[true]-> c   (r at [1] / s)\n")
    assert main(["critical-pairs", bool_file, "--json"]) == 0
    (peak,) = json.loads(capsys.readouterr().out)
    assert peak["left_weight"] == peak["right_weight"] == "true"


def test_malformed_numbers_are_dsl_errors_with_a_line(tmp_path, capsys):
    text = "\n".join(["system bad", "quantale lawvere", "symbol a/0",
                      "symbol b/0", "rule r: a -[1.2.3]-> b"])
    with pytest.raises(DslError) as exc:
        parse_system(text)
    assert exc.value.line == 5 and "'1.2.3'" in str(exc.value)
    path = tmp_path / "bad.qtrs"
    path.write_text(text)
    assert main(["rewrite", str(path), "a"]) == 1
    assert capsys.readouterr().err.startswith("error: line 5: ")


def test_bool_weights_are_quantale_values(tmp_path, capsys):
    text = "\n".join(["quantale bool", "symbol a/0", "symbol b/0",
                      "rule r: a -[true]-> b"])
    sysm = parse_system(text)
    assert sysm.rules[0].weight is True
    assert parse_system(emit_system(sysm)) == sysm
    (step,) = one_step(sysm, parse_term("a", sysm.signature))
    assert step.weight is True and str(step.target) == "b"
    path = tmp_path / "bool.qtrs"
    path.write_text(text)
    assert main(["rewrite", str(path), "a"]) == 0
    assert capsys.readouterr().out.endswith("]-> b   (r at [])\n")
