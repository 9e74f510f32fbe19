"""Command-line front end for .qtrs system files.

Exit codes: 0 = success / check passed, 1 = failure / error, 2 = analysis
inconclusive under the given budget.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import replace
from itertools import islice
from typing import Dict, List, Optional

from .quantale import QuantaleError, QuantaleSpec, Value
from .ratexpr import ExprError
from .term import TermError, term_key
from .qtrs import (
    RewriteSystem,
    balanced_check,
    confluence_report,
    critical_pairs,
    degree_at_position,
    degree_of_variable,
    join_check,
    one_step,
    orthogonality_check,
    sn_probe,
    strong_closure_pass,
    term_graph,
)
from .search import (
    EXACT,
    UNREACHABLE,
    UPPER_BOUND,
    SearchBudget,
    convertibility_distance,
    reduction_distance,
    strategy_path,
    valley_distance,
)
from .dsl import DslError, parse_grid, parse_system, parse_term
from .term import Variable, subterms


def _load(path: str) -> RewriteSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def _parse_weight_arg(q: QuantaleSpec, text: str) -> Value:
    """``text`` read as a value of ``q``."""
    try:
        return q.check_value(q.parse_value(text))
    except ZeroDivisionError:
        raise QuantaleError(f"weight {text!r} has a zero denominator") from None


def _budget(args, q: QuantaleSpec) -> SearchBudget:
    return SearchBudget(
        max_expanded=args.max_expanded,
        max_depth=args.max_depth,
        weight_cutoff=(None if args.weight_cutoff is None
                       else _parse_weight_arg(q, args.weight_cutoff)),
        max_term_size=args.max_term_size,
    )


def _at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, not {value}")
    return value


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-expanded", type=int, default=20000)
    p.add_argument("--max-depth", type=int, default=50)
    p.add_argument("--weight-cutoff", default=None)
    p.add_argument("--max-term-size", type=int, default=None)


def _cmd_rewrite(args) -> int:
    sysm = _load(args.file)
    fmt = sysm.quantale.format_value
    t = parse_term(args.term, sysm.signature)
    if _at_least(args.steps, 0, "--steps"):
        steps = list(islice(strategy_path(sysm, t, "leftmost-outermost"),
                            args.steps))
        footer = f"result: {steps[-1].target if steps else t}"
    else:
        steps = one_step(sysm, t)
        footer = "" if steps else "normal form"
    if args.json:
        print(json.dumps([
            {"rule": s.rule_id, "position": list(s.position),
             "weight": fmt(s.weight), "target": term_key(s.target)}
            for s in steps]))
        return 0
    for s in steps:
        print(f"-[{fmt(s.weight)}]-> {s.target}   ({s.rule_id} at"
              f" {list(s.position)})")
    if footer:
        print(footer)
    return 0


def _cmd_distance(args) -> int:
    sysm = _load(args.file)
    fmt = sysm.quantale.format_value
    s = parse_term(args.source, sysm.signature)
    t = parse_term(args.target, sysm.signature)
    fn = {"directed": reduction_distance,
          "convert": convertibility_distance,
          "valley": valley_distance}[args.mode]
    ans = fn(sysm, s, t, _budget(args, sysm.quantale))
    if args.json:
        print(ans.to_json(fmt))
    else:
        val = "-" if ans.value is None else fmt(ans.value)
        print(f"{ans.kind} {val} ({len(ans.witness)} steps,"
              f" {ans.expanded} expanded)")
    if ans.kind in (EXACT, UPPER_BOUND):
        return 0
    if ans.kind == UNREACHABLE:
        return 1
    return 2


def _cmd_critical_pairs(args) -> int:
    sysm = _load(args.file)
    if args.grid:
        sysm = replace(sysm, grid=parse_grid(args.grid))
    fmt = sysm.quantale.format_value
    peaks = critical_pairs(sysm)
    if args.json:
        print(json.dumps([
            {"source": term_key(p.source),
             "left": term_key(p.left[0]), "left_weight": fmt(p.left[1]),
             "right": term_key(p.right[0]), "right_weight": fmt(p.right[1]),
             "position": list(p.position),
             "inner_rule": p.inner_rule, "outer_rule": p.outer_rule}
            for p in peaks]))
    else:
        for p in peaks:
            print(f"{p.left[0]} <-[{fmt(p.left[1])}]- {p.source}"
                  f" -[{fmt(p.right[1])}]-> {p.right[0]}"
                  f"   ({p.inner_rule} at {list(p.position)} / {p.outer_rule})")
        print(f"{len(peaks)} critical pair(s)")
    return 0


def _cmd_check(args) -> int:
    _at_least(args.depth, 1, "--depth")
    _at_least(args.max_terms, 1, "--max-terms")
    sysm = _load(args.file)
    seeds = [parse_term(s, sysm.signature) for s in (args.seed or [])]
    result: Dict[str, object]
    code: int

    if args.what == "local-confluence":
        peaks = critical_pairs(sysm)
        verdicts = [join_check(sysm, p, args.depth) for p in peaks]
        joinable = sum(v.kind == "joinable" for v in verdicts)
        result = {"peaks": len(peaks), "joinable": joinable}
        code = 0 if joinable == len(peaks) else 2
    elif args.what == "strong-closure":
        peaks = critical_pairs(sysm)
        verdicts = strong_closure_pass(sysm, peaks, args.depth)
        closed = sum(v.holds for v in verdicts)
        result = {"peaks": len(peaks), "strongly_closed": closed}
        code = 0 if closed == len(peaks) else 1
    elif args.what == "orthogonal":
        ok, evidence = orthogonality_check(sysm)
        result = {"orthogonal": ok, **{k: (list(v) if isinstance(v, tuple)
                                           else v)
                                       for k, v in evidence.items()}}
        code = 0 if ok else 1
    elif args.what == "balanced":
        entries = balanced_check(sysm)
        bad = [e for e in entries if not e.balanced]
        result = {
            "rules_checked": len(entries),
            "unbalanced": [
                {"rule": e.rule_id, "variable": e.variable,
                 "lhs": str(e.lhs_degree), "rhs": str(e.rhs_degree)}
                for e in bad],
            "sampled": any(e.sampled for e in entries),
        }
        code = 0 if not bad else 1
    elif args.what == "sn-probe":
        if not seeds:
            print("sn-probe needs at least one --seed term", file=_sys.stderr)
            return 2
        status, rel = sn_probe(sysm, seeds, args.max_terms)
        result = {"sn": status}
        code = {"cycle found": 1, "passes on explored": 0}.get(status, 2)
        if code != 1:
            result["terms"] = len(rel.carrier)
    elif args.what == "confluence-report":
        report = confluence_report(sysm, seeds, depth_budget=args.depth,
                                   sn_max_terms=args.max_terms)
        result = {"certificate": report.certificate,
                  "evidence": {k: (list(v) if isinstance(v, tuple) else v)
                               for k, v in report.evidence.items()}}
        code = 0 if report.certificate != "inconclusive" else 2
    else:  # pragma: no cover - argparse restricts choices
        return 1

    if args.json:
        print(json.dumps(result))
    else:
        for k, v in result.items():
            print(f"{k}: {v}")
        print({0: "pass", 1: "fail", 2: "inconclusive"}[code])
    return code


def _cmd_graph(args) -> int:
    sysm = _load(args.file)
    t = parse_term(args.term, sysm.signature)
    rel, _ = term_graph(sysm, [t], max_terms=None,
                        depth=_at_least(args.depth, 0, "--depth"))
    print(rel.to_dot(name="rewriting") if args.dot else rel.to_text())
    return 0


def _cmd_degree(args) -> int:
    sysm = _load(args.file)
    t = parse_term(args.term, sysm.signature)
    occ = [p for p, s in subterms(t)
           if isinstance(s, Variable) and s.name == args.var]
    rows = [(p, degree_at_position(sysm, t, p)) for p in occ]
    total = degree_of_variable(sysm, t, args.var)
    if args.json:
        print(json.dumps({
            "variable": args.var,
            "positions": [{"position": list(p), "degree": str(d)}
                          for p, d in rows],
            "degree": str(total)}))
    else:
        for p, d in rows:
            print(f"position {list(p)}: {d}")
        print(f"degree of {args.var}: {total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qtrw",
        description="Quantitative term rewriting: rewrite, measure, certify.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rewrite", help="enumerate or trace rewrite steps")
    p.add_argument("file")
    p.add_argument("term")
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("distance", help="distance queries between two terms")
    p.add_argument("file")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--mode", choices=["directed", "convert", "valley"],
                   default="convert")
    _add_budget_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("critical-pairs", help="enumerate critical peaks")
    p.add_argument("file")
    p.add_argument("--grid", default=None,
                   help="space-separated rationals replacing the file grid")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_critical_pairs)

    p = sub.add_parser("check", help="run a confluence/structure analysis")
    p.add_argument("file")
    p.add_argument("--what", required=True, choices=[
        "local-confluence", "strong-closure", "orthogonal", "balanced",
        "sn-probe", "confluence-report"])
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--max-terms", type=int, default=2000)
    p.add_argument("--seed", action="append")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("graph", help="export the bounded reduction graph")
    p.add_argument("file")
    p.add_argument("term")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("degree", help="variable sensitivity report")
    p.add_argument("file")
    p.add_argument("term")
    p.add_argument("var")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_degree)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DslError, OSError, ValueError, QuantaleError, TermError,
            ExprError, RecursionError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
