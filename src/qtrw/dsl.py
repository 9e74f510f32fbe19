"""The ``.qtrs`` system-description format.

A file declares a quantale, optional options, a signature, and rules::

    system barycentric
    quantale lawvere
    option grid 0 1/4 1/3 1/2 2/3 3/4 1
    symbol +{e}/2 infix
    rule proj: +{1}(x, y) -[0]-> x
    rule comm: x +{e} y -[0]-> y +{1 - e} x
    rule assoc: (x +{e1} y) +{e2} z -[0]-> ...  where 0 < e1 < 1, 0 < e2 < 1

Declared binary infix symbols may be written between their arguments
(left-associative); everything else is prefix ``f(t1, ..., tn)``.  Names not
present in the signature parse as variables and may not be applied; a rule
may not use as a variable the name of a symbol declared after it.  A rule
weight is a value of the quantale declared above it (``true`` under
``bool``, ``inf`` under the cost quantales) or else, like a symbol parameter,
an exact rational expression; parameterless ones are folded to constants so
a parsed file compares equal to its in-memory source.  A rule whose symbol
slots, weight or conditions name a parameter is a schema: ``Rule`` reads its
parameters off itself, so the parser declares none.

Terms are read on the scanner of ``ratexpr``, whose expression grammar reads
symbol parameters in place; the term parser and ``emit_term`` keep their
work on explicit stacks, so terms may nest as deep as memory allows.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .quantale import QuantaleError, QuantaleSpec, Value, get_quantale
from .ratexpr import (Expr, ExprError, _parse_sum, _Scanner, parse_comparison,
                      parse_expr)
from .term import Application, Symbol, Term, Variable, variables
from .qtrs import Rule, RewriteSystem, SymbolFamily


class DslError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _fold(e: Expr) -> Union[Fraction, Expr]:
    """Constant-fold a parameterless expression to its rational value."""
    if not e.params():
        return e.evaluate({})
    return e


def _parse_weight(text: str,
                  quantale: Optional[QuantaleSpec]) -> Union[Value, Expr]:
    """A rule weight: a value of the quantale declared so far, else a
    rational expression."""
    if quantale is not None:
        try:
            return quantale.parse_value(text)
        except (ValueError, ZeroDivisionError, QuantaleError):
            pass
    return _fold(parse_expr(text))


def parse_grid(text: str, line: Optional[int] = None) -> Tuple[Fraction, ...]:
    """The space-separated rationals of a parameter grid."""
    try:
        return tuple(Fraction(v) for v in text.split())
    except ValueError as exc:
        raise DslError(str(exc), line) from None
    except ZeroDivisionError as exc:
        raise DslError(f"grid value {exc} has a zero denominator",
                       line) from None


# ---------------------------------------------------------------------------
# term parsing


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\+|!|·")


def parse_term(text: str, signature: Sequence[SymbolFamily],
               line: int = 0) -> Term:
    """Parse ``text``: prefix applications ``f{p1, ...}(t1, ...)``,
    parentheses, and declared binary infix symbols, left-associative.

    Symbol parameters are read in place by the expression grammar on the
    same scanner.  Constructs still open wait on an explicit stack, so the
    nesting depth is not bounded by the recursion limit."""
    sc = _Scanner(text)
    sig = {f.name: f for f in signature}

    def fail(msg: str) -> DslError:
        return DslError(f"{msg} at column {sc.pos + 1} in {text!r}", line)

    def params() -> Tuple[Union[Fraction, Expr], ...]:
        out: List[Union[Fraction, Expr]] = []
        if sc.take("{"):
            while True:
                try:
                    out.append(_fold(_parse_sum(sc)))
                except ExprError as exc:
                    raise DslError(str(exc), line) from None
                if sc.take("}"):
                    break
                if not sc.take(","):
                    raise fail("expected ',' or '}' in parameter list")
        return tuple(out)

    def symbol(nm: str, fam: SymbolFamily,
               ps: Tuple[Union[Fraction, Expr], ...]) -> Symbol:
        if len(ps) != len(fam.param_names):
            raise DslError(f"symbol {nm!r} takes {len(fam.param_names)}"
                           f" parameters, got {len(ps)}", line)
        return Symbol(nm, fam.arity, ps)

    def apply(nm: str, fam: SymbolFamily,
              ps: Tuple[Union[Fraction, Expr], ...],
              args: List[Term]) -> Application:
        if len(args) != fam.arity:
            raise DslError(f"symbol {nm!r} has arity {fam.arity},"
                           f" got {len(args)}", line)
        return Application(symbol(nm, fam, ps), tuple(args))

    # the constructs still open, innermost last: ("(",) for a parenthesis,
    # ("args", name, family, parameters, arguments so far) for a prefix
    # application, and ("infix", symbol, left argument) for an infix
    # application awaiting its right argument
    stack: List[tuple] = []
    while True:
        # read an atom: a parenthesis or a symbol opens a construct, or the
        # atom is a variable or a constant
        if sc.take("("):
            stack.append(("(",))
            continue
        nm = sc.match(_NAME_RE)
        if nm is None:
            raise fail("expected a term")
        ps = params()
        fam = sig.get(nm)
        if fam is None:
            if ps or sc.peek() == "(":
                raise fail(f"unknown symbol {nm!r}")
            t: Term = Variable(nm)
        elif sc.take("(") and not sc.take(")"):
            stack.append(("args", nm, fam, ps, []))
            continue
        else:
            t = apply(nm, fam, ps, [])
        while True:
            # ``t`` is a whole atom: the right argument of a pending infix
            # application, or else the start of a term
            if stack and stack[-1][0] == "infix":
                _, sym, left = stack.pop()
                t = Application(sym, (left, t))
            save = sc.pos
            nm = sc.match(_NAME_RE)
            fam = sig.get(nm)
            if fam is not None and fam.infix and fam.arity == 2:
                stack.append(("infix", symbol(nm, fam, params()), t))
                break
            sc.pos = save
            # ``t`` is a whole term: it closes the innermost construct
            if not stack:
                if not sc.at_end():
                    raise fail("trailing input")
                return t
            if stack[-1][0] == "(":
                if not sc.take(")"):
                    raise fail("expected ')'")
                stack.pop()
                continue
            _, nm, fam, ps, args = stack[-1]
            args.append(t)
            if sc.take(","):
                break
            if not sc.take(")"):
                raise fail("expected ',' or ')'")
            stack.pop()
            t = apply(nm, fam, ps, args)


# ---------------------------------------------------------------------------
# system files


_SYMBOL_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*|\+|!|·)"
    r"(?:\{(?P<params>[^}]*)\})?"
    r"/(?P<arity>\d+)"
    r"(?P<flags>.*)$")

_RULE_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*:\s*(?P<body>.*)$")

_ARROW_RE = re.compile(r"-\[(?P<w>[^\]]*)\]->")

_WHERE_RE = re.compile(r"\bwhere\b")


def parse_system(text: str) -> RewriteSystem:
    name = "unnamed"
    quantale: Optional[QuantaleSpec] = None
    grid: Tuple[Fraction, ...] = ()
    signature: List[SymbolFamily] = []
    rules: List[Rule] = []
    rule_lines: List[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "system":
            name = rest
        elif head == "quantale":
            try:
                quantale = get_quantale(rest)
            except QuantaleError as exc:
                raise DslError(str(exc), lineno) from None
        elif head == "option":
            opt, _, vals = rest.partition(" ")
            if opt != "grid":
                raise DslError(f"unknown option {opt!r}", lineno)
            grid = parse_grid(vals, lineno)
        elif head == "symbol":
            m = _SYMBOL_RE.match(rest)
            if m is None:
                raise DslError(f"bad symbol declaration {rest!r}", lineno)
            param_names = tuple(
                p.strip() for p in (m.group("params") or "").split(",")
                if p.strip())
            flags = m.group("flags").strip()
            infix = False
            grades: Optional[Tuple[Union[Fraction, Expr], ...]] = None
            while flags:
                if flags.startswith("infix"):
                    infix = True
                    flags = flags[len("infix"):].strip()
                elif flags.startswith("grades"):
                    body = flags[len("grades"):].strip()
                    if not body.startswith("["):
                        raise DslError("expected '[' after grades", lineno)
                    close = body.find("]")
                    if close < 0:
                        raise DslError("expected ']' after grades", lineno)
                    items = [g.strip() for g in body[1:close].split(",")]
                    try:
                        grades = tuple(_fold(parse_expr(g)) for g in items)
                    except ExprError as exc:
                        raise DslError(str(exc), lineno) from None
                    flags = body[close + 1:].strip()
                else:
                    raise DslError(f"bad symbol flags {flags!r}", lineno)
            arity = int(m.group("arity"))
            if grades is not None and len(grades) != arity:
                raise DslError("grades list must match arity", lineno)
            signature.append(SymbolFamily(
                m.group("name"), arity, param_names, infix, grades))
        elif head == "rule":
            m = _RULE_RE.match(rest)
            if m is None:
                raise DslError(f"bad rule line {rest!r}", lineno)
            body, *conds_text = _WHERE_RE.split(m.group("body"), maxsplit=1)
            try:
                conditions = tuple(
                    parse_comparison(c.strip())
                    for c in "".join(conds_text).split(",") if c.strip())
            except ExprError as exc:
                raise DslError(str(exc), lineno) from None
            arrow = _ARROW_RE.search(body)
            if arrow is None:
                raise DslError("rule needs a '-[weight]->' arrow", lineno)
            lhs_text = body[:arrow.start()].strip()
            rhs_text = body[arrow.end():].strip()
            if not lhs_text or not rhs_text:
                raise DslError("empty rule side", lineno)
            try:
                weight = _parse_weight(arrow.group("w"), quantale)
            except ExprError as exc:
                raise DslError(str(exc), lineno) from None
            lhs = parse_term(lhs_text, signature, lineno)
            rhs = parse_term(rhs_text, signature, lineno)
            rules.append(Rule(m.group("name"), lhs, rhs, weight, conditions))
            rule_lines.append(lineno)
        else:
            raise DslError(f"unknown directive {head!r}", lineno)

    if quantale is None:
        raise DslError("missing 'quantale' declaration")
    # a name a rule reads as a variable stays one, even if a symbol of that
    # name is declared later; emit_system would write it as the symbol
    names = {fam.name for fam in signature}
    for rule, lineno in zip(rules, rule_lines):
        clash = sorted((variables(rule.lhs) | variables(rule.rhs)) & names)
        if clash:
            raise DslError(f"variable {clash[0]!r} of rule {rule.rid} is"
                           " declared as a symbol after the rule", lineno)
    return RewriteSystem(name, quantale, tuple(signature), tuple(rules), grid)


# ---------------------------------------------------------------------------
# emission


def emit_term(t: Term) -> str:
    """``t`` in prefix form, arguments separated by ", "; written from an
    explicit stack, so term depth is not bounded by the recursion limit."""
    out: List[str] = []
    stack: List[Union[Term, str]] = [t]  # strings are separators
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            out.append(s)
        elif isinstance(s, Variable):
            out.append(s.name)
        elif not s.args:
            out.append(str(s.symbol))
        else:
            out.append(f"{s.symbol}(")
            parts: List[Union[Term, str]] = [", "] * (2 * len(s.args) - 1)
            parts[::2] = s.args
            stack.append(")")
            stack.extend(reversed(parts))
    return "".join(out)


def emit_system(sys: RewriteSystem) -> str:
    lines = [f"system {sys.name}", f"quantale {sys.quantale.name}"]
    if sys.grid:
        lines.append("option grid " + " ".join(str(g) for g in sys.grid))
    for fam in sys.signature:
        decl = fam.name
        if fam.param_names:
            decl += "{" + ",".join(fam.param_names) + "}"
        decl += f"/{fam.arity}"
        if fam.infix:
            decl += " infix"
        if fam.grades is not None:
            decl += " grades [" + ", ".join(str(g) for g in fam.grades) + "]"
        lines.append("symbol " + decl)
    for rule in sys.rules:
        w = rule.weight
        if sys.quantale.is_value(w):
            w = sys.quantale.format_value(w)
        line = (f"rule {rule.rid}: {emit_term(rule.lhs)}"
                f" -[{w}]-> {emit_term(rule.rhs)}")
        if rule.conditions:
            line += " where " + ", ".join(str(c) for c in rule.conditions)
        lines.append(line)
    return "\n".join(lines) + "\n"
