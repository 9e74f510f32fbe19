"""First-order terms, positions, substitution, matching, and unification.

Terms are immutable.  Positions are 1-indexed tuples of integers (the empty
tuple addresses the root).  Function symbols may carry rational parameters
(symbol families such as the probabilistic choice operators ``+{1/2}`` or
the usage modalities ``!{3}``); in rule patterns those parameter slots may
hold expressions over schema parameters, while fully concrete terms always
carry plain ``Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from .ratexpr import Env, Expr, ExprError, Lit, Param, as_expr

Position = Tuple[int, ...]
ROOT: Position = ()


class TermError(Exception):
    pass


ParamSlot = Union[Fraction, Expr]


@dataclass(frozen=True)
class Symbol:
    """A function symbol instance: family name, arity, concrete parameters."""

    name: str
    arity: int
    params: Tuple[ParamSlot, ...] = ()

    def __post_init__(self) -> None:
        # cache the rendering; symbols are interned into many term strings
        if self.params:
            inner = ",".join(str(p) for p in self.params)
            rendered = f"{self.name}{{{inner}}}"
        else:
            rendered = self.name
        object.__setattr__(self, "_str", rendered)

    def __str__(self) -> str:
        return self._str  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Application:
    symbol: Symbol
    args: Tuple["Term", ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.symbol.arity:
            raise TermError(
                f"symbol {self.symbol} expects {self.symbol.arity} arguments,"
                f" got {len(self.args)}")
        # cache the canonical rendering (it doubles as the term's dict key)
        # and the node count, both queried on every generated search state
        if self.args:
            rendered = f"{self.symbol}({','.join(str(a) for a in self.args)})"
        else:
            rendered = str(self.symbol)
        object.__setattr__(self, "_str", rendered)
        object.__setattr__(self, "_size", 1 + sum(term_size(a) for a in self.args))

    def __str__(self) -> str:
        return self._str  # type: ignore[attr-defined]


Term = Union[Variable, Application]

Substitution = Dict[str, Term]

HOLE = Variable("□")  # the single hole of a context


def app(symbol: Symbol, *args: Term) -> Application:
    return Application(symbol, tuple(args))


def term_key(t: Term) -> str:
    """Canonical string form; used as dictionary key throughout."""
    return str(t)


def term_size(t: Term) -> int:
    if isinstance(t, Variable):
        return 1
    return t._size  # type: ignore[attr-defined]


def positions(t: Term) -> List[Position]:
    out: List[Position] = []

    def walk(s: Term, p: Position) -> None:
        out.append(p)
        if isinstance(s, Application):
            for i, a in enumerate(s.args, start=1):
                walk(a, p + (i,))

    walk(t, ROOT)
    return out


def function_positions(t: Term) -> List[Position]:
    return [p for p in positions(t) if isinstance(subterm_at(t, p), Application)]


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, Application) or not 1 <= i <= len(t.args):
            raise TermError(f"invalid position {p} in {t}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, s: Term) -> Term:
    if not p:
        return s
    if not isinstance(t, Application) or not 1 <= p[0] <= len(t.args):
        raise TermError(f"invalid position {p} in {t}")
    i = p[0]
    new_args = tuple(
        replace_at(a, p[1:], s) if j == i else a
        for j, a in enumerate(t.args, start=1))
    return Application(t.symbol, new_args)


def variables(t: Term) -> Set[str]:
    if isinstance(t, Variable):
        return {t.name}
    out: Set[str] = set()
    for a in t.args:
        out |= variables(a)
    return out


def is_linear(t: Term) -> bool:
    seen: Set[str] = set()

    def walk(s: Term) -> bool:
        if isinstance(s, Variable):
            if s.name in seen:
                return False
            seen.add(s.name)
            return True
        return all(walk(a) for a in s.args)

    return walk(t)


def is_ground(t: Term) -> bool:
    if isinstance(t, Variable):
        return False
    return all(is_ground(a) for a in t.args)


def apply_substitution(t: Term, sigma: Substitution) -> Term:
    if isinstance(t, Variable):
        return sigma.get(t.name, t)
    return Application(t.symbol, tuple(apply_substitution(a, sigma) for a in t.args))


def instantiate_params(t: Term, env: Env) -> Term:
    """Evaluate every expression-valued symbol parameter under ``env``."""
    if isinstance(t, Variable):
        return t
    params = tuple(
        p if isinstance(p, Fraction) else p.evaluate(env)
        for p in t.symbol.params)
    sym = Symbol(t.symbol.name, t.symbol.arity, params)
    return Application(sym, tuple(instantiate_params(a, env) for a in t.args))


def compose_substitutions(sigma: Substitution, rho: Substitution) -> Substitution:
    """The substitution sending t to (t sigma) rho."""
    out = {x: apply_substitution(s, rho) for x, s in sigma.items()}
    for x, s in rho.items():
        out.setdefault(x, s)
    return out


# ---------------------------------------------------------------------------
# matching


def match(
    pattern: Term,
    subject: Term,
    sigma: Optional[Substitution] = None,
    env: Optional[Env] = None,
) -> Optional[Tuple[Substitution, Env]]:
    """Match ``pattern`` against ``subject``.

    Returns bindings for the pattern's variables and for any schema
    parameters occurring in its symbol slots, or None.  A compound parameter
    expression (e.g. ``n*m``) is checked after its parameters were bound by
    earlier (left-to-right) bare occurrences; if it still has unbound
    parameters, the match fails.
    """
    sigma = dict(sigma) if sigma else {}
    env = dict(env) if env else {}

    def walk(p: Term, s: Term) -> bool:
        if isinstance(p, Variable):
            bound = sigma.get(p.name)
            if bound is None:
                sigma[p.name] = s
                return True
            return bound == s
        if not isinstance(s, Application):
            return False
        if p.symbol.name != s.symbol.name or p.symbol.arity != s.symbol.arity:
            return False
        if len(p.symbol.params) != len(s.symbol.params):
            return False
        for pslot, sval in zip(p.symbol.params, s.symbol.params):
            if not isinstance(sval, Fraction):
                return False  # subject must be concrete
            if isinstance(pslot, Fraction):
                if pslot != sval:
                    return False
            elif isinstance(pslot, Param):
                bound_v = env.get(pslot.name)
                if bound_v is None:
                    env[pslot.name] = sval
                elif bound_v != sval:
                    return False
            else:
                try:
                    if pslot.evaluate(env) != sval:
                        return False
                except ExprError:
                    return False
        return all(walk(pa, sa) for pa, sa in zip(p.args, s.args))

    if walk(pattern, subject):
        return sigma, env
    return None


# ---------------------------------------------------------------------------
# unification (concrete terms only; symbol parameters compare exactly)


def unify(t: Term, s: Term) -> Optional[Substitution]:
    """Most general unifier with occurs-check, or None.

    >>> f = Symbol("f", 2)
    >>> x, y, a, b = Variable("x"), Variable("y"), Symbol("a", 0), Symbol("b", 0)
    >>> sigma = unify(app(f, x, app(a)), app(f, app(b), y))
    >>> sorted((k, str(v)) for k, v in sigma.items())
    [('x', 'b'), ('y', 'a')]
    >>> unify(x, app(f, x, x)) is None
    True
    """
    sigma: Substitution = {}
    stack = [(t, s)]
    while stack:
        a, b = stack.pop()
        a = apply_substitution(a, sigma)
        b = apply_substitution(b, sigma)
        if a == b:
            continue
        if isinstance(a, Variable):
            if a.name in variables(b):
                return None
            bind = {a.name: b}
            sigma = {x: apply_substitution(v, bind) for x, v in sigma.items()}
            sigma[a.name] = b
        elif isinstance(b, Variable):
            stack.append((b, a))
        else:
            if (a.symbol.name != b.symbol.name
                    or a.symbol.arity != b.symbol.arity
                    or a.symbol.params != b.symbol.params):
                return None
            stack.extend(zip(a.args, b.args))
    return sigma


# ---------------------------------------------------------------------------
# renaming


class Renamer:
    """Fresh-variable supply for renaming rules apart.

    The only mutable state in this module; confine one instance to each
    renaming session so outputs stay deterministic.
    """

    def __init__(self) -> None:
        self._counter = 0

    def fresh(self, base: str, avoid: Set[str]) -> str:
        base = base.rstrip("0123456789")
        while True:
            name = f"{base}{self._counter}"
            self._counter += 1
            if name not in avoid:
                return name

    def rename_apart(
        self, terms: List[Term], avoid: Set[str]
    ) -> Tuple[List[Term], Substitution]:
        """Rename all variables of ``terms`` away from ``avoid``."""
        mapping: Substitution = {}
        used = set(avoid)
        for t in terms:
            for v in sorted(variables(t)):
                if v not in mapping:
                    name = self.fresh(v, used)
                    used.add(name)
                    mapping[v] = Variable(name)
        return [apply_substitution(t, mapping) for t in terms], mapping


# ---------------------------------------------------------------------------
# contexts


@dataclass(frozen=True)
class Context:
    """A term with exactly one hole, remembering where the hole is."""

    term_with_hole: Term
    hole: Position

    def __post_init__(self) -> None:
        count = sum(
            1 for p in positions(self.term_with_hole)
            if subterm_at(self.term_with_hole, p) == HOLE)
        if count != 1 or subterm_at(self.term_with_hole, self.hole) != HOLE:
            raise TermError("a context must contain exactly one hole")

    def fill(self, t: Term) -> Term:
        return replace_at(self.term_with_hole, self.hole, t)


def context_at(t: Term, p: Position) -> Context:
    return Context(replace_at(t, p, HOLE), p)
