"""Deep terms: parsing, emission, term walks and the CLI at 5000 levels.

Term nesting is bounded by memory, not by the interpreter's recursion limit:
the parser keeps open constructs on an explicit stack, and every walk over a
subject term is a loop.  The terms here are nested far deeper than the
default recursion limit of 1000.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from qtrw.cli import main
from qtrw.dsl import emit_system, emit_term, parse_system, parse_term
from qtrw.graded import MultiStep, multi_step
from qtrw import qtrs
from qtrw.qtrs import _params_solvable, one_step
from qtrw.search import SearchBudget, reduction_distance
from qtrw.systems import make_nat
from qtrw.term import (Application, Symbol, Variable, is_ground, is_linear,
                       variables)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
DEPTH = 5000


def _signature(name):
    sysm = parse_system((SAMPLES / f"{name}.qtrs").read_text())
    return getattr(sysm, "system", sysm).signature


def _nest(sym, inner, depth=DEPTH):
    """``sym`` applied ``depth`` times around ``inner``."""
    t = inner
    for _ in range(depth):
        t = Application(sym, (t,))
    return t


def _round_trips(text, sig, expected):
    t = parse_term(text, sig)
    assert t is expected
    assert parse_term(emit_term(t), sig) is t


# -- parsing and emission ---------------------------------------------------


def test_prefix_nesting_round_trips():
    nil = Application(Symbol("nil", 0), ())
    text = "tick(" * DEPTH + "nil" + ")" * DEPTH
    _round_trips(text, _signature("tick"), _nest(Symbol("tick", 1), nil))


def test_nested_parentheses_round_trip():
    # x +{1/3} (x +{1/3} (... x)), each right argument parenthesised, and
    # the whole term wrapped in redundant parentheses as deep again
    plus = Symbol("+", 2, (Fraction(1, 3),))
    x = Variable("x")
    expected = x
    for _ in range(DEPTH):
        expected = Application(plus, (x, expected))
    text = ("(" * DEPTH + "x +{1/3} (" * DEPTH + "x" + ")" * DEPTH
            + ")" * DEPTH)
    _round_trips(text, _signature("barycentric"), expected)


def test_infix_chain_round_trips():
    plus = Symbol("+", 2, (Fraction(1, 3),))
    x = Variable("x")
    expected = x
    for _ in range(DEPTH):
        expected = Application(plus, (expected, x))
    text = " +{1/3} ".join(["x"] * (DEPTH + 1))
    _round_trips(text, _signature("barycentric"), expected)


def test_a_family_with_70_parameters():
    names = ",".join(f"p{i}" for i in range(70))
    sysm = parse_system("system wide\nquantale lawvere\n"
                        f"symbol f{{{names}}}/1\nsymbol a/0\n")
    values = ", ".join(str(i) for i in range(70))
    t = parse_term(f"f{{{values}}}(a)", sysm.signature)
    assert t.symbol.params == tuple(Fraction(i) for i in range(70))
    assert parse_term(emit_term(t), sysm.signature) is t


def test_deep_rule_sides_parse_check_and_emit():
    text = "\n".join([
        "system deep", "quantale lawvere", "option grid 0 1",
        "symbol s{n}/1", "symbol nil/0",
        "rule r: " + "s{n}(" * DEPTH + "x" + ")" * DEPTH + " -[n]-> x"])
    sysm = parse_system(text)
    (rule,) = sysm.rules
    assert rule.params == ("n",)
    assert variables(rule.lhs) == {"x"}
    assert sysm.linear and is_linear(rule.lhs)
    assert not is_ground(rule.lhs)
    assert _params_solvable(rule.lhs)
    assert parse_system(emit_system(sysm)) == sysm


# -- the engine and the CLI -------------------------------------------------


def _nat_chain(depth):
    """A(Z, A(Z, ... A(Z, Z))) with ``depth`` applications of A."""
    return "A(Z, " * (depth - 1) + "A(Z, Z)" + ")" * (depth - 1)


def _reduct(depth):
    return "A(Z, " * (depth - 1) + "Z" + ")" * (depth - 1)


def test_cli_rewrite_steps_only_the_innermost_redex(capsys):
    nat = str(SAMPLES / "nat.qtrs")
    assert main(["rewrite", nat, _nat_chain(DEPTH), "--json"]) == 0
    (step,) = json.loads(capsys.readouterr().out)
    sig = _signature("nat")
    assert step["rule"] == "addZ" and step["weight"] == "0"
    assert step["position"] == [2] * (DEPTH - 1)
    assert parse_term(step["target"], sig) is parse_term(_reduct(DEPTH), sig)


def test_cli_directed_distance_to_the_reduct(capsys):
    nat = str(SAMPLES / "nat.qtrs")
    assert main(["distance", nat, _nat_chain(DEPTH), _reduct(DEPTH),
                 "--mode", "directed", "--json"]) == 0
    answer = json.loads(capsys.readouterr().out)
    assert answer["kind"] == "exact" and answer["value"] == "0"
    assert [w["rule"] for w in answer["witness"]] == ["addZ"]


def test_cli_graph_of_one_layer(capsys):
    nat = str(SAMPLES / "nat.qtrs")
    assert main(["graph", nat, _nat_chain(DEPTH), "--depth", "1"]) == 0
    lines = capsys.readouterr().out.split()
    sig = _signature("nat")
    term, reduct = (str(parse_term(t, sig))
                    for t in (_nat_chain(DEPTH), _reduct(DEPTH)))
    assert lines == ["quantale", "lawvere", "carrier"] + sorted(
        [term, reduct]) + [term, reduct, "0"]


def test_cli_degree_through_a_deep_context(capsys):
    combi = str(SAMPLES / "graded-combinators.qtrs")
    term = "!{1}(" * DEPTH + "x" + ")" * DEPTH
    assert main(["degree", combi, term, "x", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["degree"] == "1"
    assert result["positions"] == [{"position": [1] * DEPTH, "degree": "1"}]


def test_cli_answers_600_deep_tick_terms(capsys):
    tick = str(SAMPLES / "tick.qtrs")
    deep = "tick(" * 600 + "nil" + ")" * 600
    shallower = "tick(" * 599 + "nil" + ")" * 599
    assert main(["rewrite", tick, deep, "--json"]) == 0
    out, err = capsys.readouterr()
    steps = json.loads(out)
    assert err == "" and len(steps) == 600
    assert {s["target"] for s in steps} == {
        str(parse_term(shallower, _signature("tick")))}
    assert main(["distance", tick, deep, shallower, "--mode", "directed",
                 "--json"]) == 0
    out, err = capsys.readouterr()
    answer = json.loads(out)
    assert err == "" and answer["kind"] == "exact" and answer["value"] == "1"


def test_a_step_that_invents_a_variable_under_a_deep_spine():
    sysm = parse_system("\n".join([
        "system spine", "quantale lawvere", "symbol s/1", "symbol g/1",
        "symbol h/2", "symbol nil/0", "rule inv: g(x) -[1]-> h(x, y)"]))
    nil = Application(Symbol("nil", 0), ())
    s = Symbol("s", 1)
    t = _nest(s, Application(Symbol("g", 1), (nil,)))
    (step,) = one_step(sysm, t)
    assert step.rule_id == "inv" and step.position == (1,) * DEPTH
    assert step.target is _nest(
        s, Application(Symbol("h", 2), (nil, Variable("w0"))))


def test_a_400_deep_sum_reduces_under_the_zero_cutoff():
    # every A step weighs 0 and every S step 1, so at cutoff 0 the search
    # steps only at the A spine: 400 addS steps and one addZ
    z, s = Application(Symbol("Z", 0), ()), Symbol("S", 1)
    n = _nest(s, z, 400)
    answer = reduction_distance(
        make_nat(), Application(Symbol("A", 2), (n, n)), _nest(s, z, 800),
        SearchBudget(max_depth=1000, weight_cutoff=Fraction(0)))
    assert answer.kind == "exact" and answer.value == 0
    assert len(answer.witness) == 401


def test_a_deep_numeral_with_no_step_in_bounds_builds_one_target(
        monkeypatch):
    # sdel weighs 1, so under the cutoff of 0 S^2000(Z) has no step, and
    # the search runs out after one expansion.  Of its 2000 sdel redexes
    # the first one's target tells budget-exhausted from unreachable, so
    # no other target is built
    z, s = Application(Symbol("Z", 0), ()), Symbol("S", 1)
    built = []
    real = qtrs.replace_at
    monkeypatch.setattr(qtrs, "replace_at",
                        lambda *args: built.append(None) or real(*args))
    answer = reduction_distance(
        make_nat(), _nest(s, z, 2000), _nest(s, z, 2001),
        SearchBudget(max_depth=DEPTH, weight_cutoff=Fraction(0)))
    assert (answer.kind, answer.expanded) == ("budget-exhausted", 1)
    assert len(built) <= 1


def test_multi_step_of_a_deep_normal_form():
    combi = parse_system((SAMPLES / "graded-combinators.qtrs").read_text())
    t = _nest(Symbol("!", 1, (Fraction(1),)), Variable("x"))
    assert multi_step(combi, t) == [MultiStep(t, Fraction(0), 0)]


@pytest.mark.parametrize("what", ["sn-probe", "confluence-report"])
def test_check_on_a_long_reduction_chain(tmp_path, capsys, what):
    # c{1} -> c{2} -> ... : the explored graph is a 2000-term chain, first
    # in carrier order, so a recursive termination search would overflow
    path = tmp_path / "up.qtrs"
    path.write_text("\n".join([
        "system up", "quantale lawvere", "symbol c{n}/0",
        "rule up: c{n} -[1]-> c{(n + 1)}", "option grid 0 1"]))
    code = main(["check", str(path), "--what", what, "--seed", "c{1}"])
    out, err = capsys.readouterr()
    assert err == ""
    if what == "sn-probe":
        assert code == 2
        assert out == "sn: inconclusive (truncated)\nterms: 2000\ninconclusive\n"
    else:
        assert code == 0
        assert out.startswith("certificate: confluent by strong closure\n")
