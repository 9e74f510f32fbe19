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
present in the signature parse as variables and may not be applied.  Weights
and symbol parameters are exact rational expressions; parameterless ones are
folded to constants so a parsed file compares equal to its in-memory source.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .quantale import INF, QuantaleError, QuantaleSpec, Value, get_quantale
from .ratexpr import (
    Comparison,
    Expr,
    ExprError,
    parse_comparison,
    parse_expr,
)
from .term import Application, Symbol, Term, Variable
from .qtrs import Rule, RewriteSystem, SymbolFamily
from .graded import GradedSystem

AnySystem = Union[RewriteSystem, GradedSystem]


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


def _parse_weight(text: str) -> Union[Value, Expr]:
    text = text.strip()
    if text == "inf":
        return INF
    e = parse_expr(text)
    return _fold(e)


# ---------------------------------------------------------------------------
# term parsing


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\+|!|·")


class _TermParser:
    def __init__(self, text: str, signature: Sequence[SymbolFamily], line: int):
        self.text = text
        self.pos = 0
        self.sig = {f.name: f for f in signature}
        self.line = line

    def fail(self, msg: str) -> "DslError":
        return DslError(f"{msg} at column {self.pos + 1} in {self.text!r}",
                        self.line)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, tok: str) -> bool:
        self.skip_ws()
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
            return True
        return False

    def name(self) -> Optional[str]:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()

    def params(self) -> Tuple[Union[Fraction, Expr], ...]:
        if not self.take("{"):
            return ()
        out: List[Union[Fraction, Expr]] = []
        depth_guard = 0
        while True:
            start = self.pos
            depth = 0
            while self.pos < len(self.text):
                c = self.text[self.pos]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif depth == 0 and c in ",}":
                    break
                self.pos += 1
            chunk = self.text[start:self.pos]
            try:
                out.append(_fold(parse_expr(chunk)))
            except ExprError as exc:
                raise DslError(str(exc), self.line) from None
            if self.take("}"):
                return tuple(out)
            if not self.take(","):
                raise self.fail("expected ',' or '}' in parameter list")
            depth_guard += 1
            if depth_guard > 64:
                raise self.fail("unterminated parameter list")

    def atom(self) -> Term:
        if self.take("("):
            t = self.term()
            if not self.take(")"):
                raise self.fail("expected ')'")
            return t
        nm = self.name()
        if nm is None:
            raise self.fail("expected a term")
        params = self.params()
        fam = self.sig.get(nm)
        if fam is None:
            if params or self.peek() == "(":
                raise self.fail(f"unknown symbol {nm!r}")
            return Variable(nm)
        args: List[Term] = []
        if self.take("("):
            if not self.take(")"):
                while True:
                    args.append(self.term())
                    if self.take(")"):
                        break
                    if not self.take(","):
                        raise self.fail("expected ',' or ')'")
        if len(args) != fam.arity:
            raise DslError(
                f"symbol {nm!r} has arity {fam.arity}, got {len(args)}",
                self.line)
        if len(params) != len(fam.param_names):
            raise DslError(
                f"symbol {nm!r} takes {len(fam.param_names)} parameters,"
                f" got {len(params)}", self.line)
        return Application(Symbol(nm, fam.arity, params), tuple(args))

    def term(self) -> Term:
        t = self.atom()
        while True:
            save = self.pos
            nm = self.name()
            if nm is None:
                return t
            fam = self.sig.get(nm)
            if fam is None or not fam.infix or fam.arity != 2:
                self.pos = save
                return t
            params = self.params()
            if len(params) != len(fam.param_names):
                raise DslError(
                    f"symbol {nm!r} takes {len(fam.param_names)} parameters,"
                    f" got {len(params)}", self.line)
            rhs = self.atom()
            t = Application(Symbol(nm, 2, params), (t, rhs))


def parse_term(text: str, signature: Sequence[SymbolFamily],
               line: int = 0) -> Term:
    p = _TermParser(text, signature, line)
    t = p.term()
    p.skip_ws()
    if p.pos != len(p.text):
        raise p.fail("trailing input")
    return t


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


def parse_system(text: str) -> AnySystem:
    name = "unnamed"
    quantale: Optional[QuantaleSpec] = None
    grid: Tuple[Fraction, ...] = ()
    signature: List[SymbolFamily] = []
    rules: List[Rule] = []
    graded = False

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
            try:
                grid = tuple(Fraction(v) for v in vals.split())
            except ValueError as exc:
                raise DslError(str(exc), lineno) from None
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
                    close = body.index("]")
                    items = [g.strip() for g in body[1:close].split(",")]
                    try:
                        grades = tuple(_fold(parse_expr(g)) for g in items)
                    except ExprError as exc:
                        raise DslError(str(exc), lineno) from None
                    graded = True
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
                weight = _parse_weight(arrow.group("w"))
            except ExprError as exc:
                raise DslError(str(exc), lineno) from None
            lhs = parse_term(lhs_text, signature, lineno)
            rhs = parse_term(rhs_text, signature, lineno)
            params = set()
            for t in (lhs, rhs):
                params |= _term_params(t)
            if hasattr(weight, "params"):
                params |= weight.params()
            for c in conditions:
                params |= c.params()
            rules.append(Rule(
                m.group("name"), lhs, rhs, weight,
                params=tuple(sorted(params)), conditions=conditions))
        else:
            raise DslError(f"unknown directive {head!r}", lineno)

    if quantale is None:
        raise DslError("missing 'quantale' declaration")
    sys = RewriteSystem(name, quantale, tuple(signature), tuple(rules), grid)
    return GradedSystem(sys) if graded else sys


def _term_params(t: Term) -> set:
    if isinstance(t, Variable):
        return set()
    out = set()
    for p in t.symbol.params:
        if not isinstance(p, Fraction):
            out |= set(p.params())
    for a in t.args:
        out |= _term_params(a)
    return out


# ---------------------------------------------------------------------------
# emission


def _emit_param(p: Union[Fraction, Expr]) -> str:
    return str(p)


def emit_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    inner = "{" + ",".join(_emit_param(p) for p in t.symbol.params) + "}" \
        if t.symbol.params else ""
    if not t.args:
        return t.symbol.name + inner
    return (t.symbol.name + inner + "("
            + ", ".join(emit_term(a) for a in t.args) + ")")


def emit_system(sys: AnySystem) -> str:
    base = sys.system if isinstance(sys, GradedSystem) else sys
    lines = [f"system {base.name}", f"quantale {base.quantale.name}"]
    if base.grid:
        lines.append("option grid " + " ".join(str(g) for g in base.grid))
    for fam in base.signature:
        decl = fam.name
        if fam.param_names:
            decl += "{" + ",".join(fam.param_names) + "}"
        decl += f"/{fam.arity}"
        if fam.infix:
            decl += " infix"
        if fam.grades is not None:
            decl += " grades [" + ", ".join(str(g) for g in fam.grades) + "]"
        lines.append("symbol " + decl)
    for rule in base.rules:
        w = "inf" if rule.weight is INF else str(rule.weight)
        line = (f"rule {rule.rid}: {emit_term(rule.lhs)}"
                f" -[{w}]-> {emit_term(rule.rhs)}")
        if rule.conditions:
            line += " where " + ", ".join(str(c) for c in rule.conditions)
        lines.append(line)
    return "\n".join(lines) + "\n"
