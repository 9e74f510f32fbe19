"""Weighted term rewriting systems: rules, schemas, steps, critical pairs,
joinability and strong-closure certification, sums, and confluence reports.

Rules may be schemas: their symbol parameters, weight, and side conditions
can mention rational parameters.  During rewriting, parameters are read off
the matched symbols; parameters that the left-hand side does not determine
(and fresh right-hand-side variables) are instantiated lazily — parameters
from the system's declared grid, fresh variables from a caller-supplied
candidate pool.  For critical-pair analysis the schemas are instantiated
over the grid up front, which keeps the enumeration finite.  The grid a
system declares is the only one its analyses use; to analyse a system over
another grid, replace it (``dataclasses.replace(sys, grid=...)``).

A system is its own one-step relation, and ``one_step`` builds every step
list.  On first use the system indexes its rules by left-hand-side root
symbol (``forward``), the inverted rules (sides swapped) the same way
(``backward``), each with the heaviest weight a rule can fire with at
each root, and keeps the distance search's step cache
(``relaxations``).  Without grades a step weighs what its rule weighs, so
a step list under a weight bound matches no rule at a subterm whose root
cannot fire within it.  A ``copy`` of a system shares the rule indexes and
everything else compiled from its fields, and owns its step caches.  None
of these refers back to a system, so the step caches are freed with their
copy, and the compiled values with the last system that shares them.  A
backward step is a forward step of an inverted rule, so the variables a
rule erases become fresh variables of its inverse, drawn from the same
candidate pool.  A rule whose right-hand side matching cannot solve for
its parameters (a compound slot such as ``+{(1 - e)}``) is inverted
instance by instance over the grid.
A system whose rules are closed under inversion, at no better weight, is
``self_inverse``: its backward steps repeat forward ones, and the distance
search skips them.  Steps take each subterm's root redexes from a redex memo
owned by the caller: one search query (``join_check`` runs one) or one
``strongly_closed_check`` shares one memo, so a subterm common to many of
its terms is matched against the rules once per direction.  A firing memo
holds the instances a schema rule fires for the parameter values its
left-hand side matched; one ``strong_closure_pass`` over a system's peaks
shares one, and a lone ``strongly_closed_check`` owns one.  Plain rules
skip it, as firing one costs less than the lookup.  Neither memo outlives
its query or pass.

Grades belong to the system: a symbol family may declare its argument
sensitivities, read by ``grades_of``.  On additive cost quantales a
sensitivity is a non-negative rational c acting by ε ↦ c·ε (``scale``), so
degrees are rationals: 1 is the identity, 0 the constant-unit map,
composition is product and tensor is sum, and balancedness is a
rational-equality check.  Sensitivities may not be infinite.  In a system
where some family declares grades, each step weight is the rule weight
scaled by the degree of the step's context; without grades, it is the rule
weight.  A system's ``balanced`` and ``orthogonal`` verdicts, like its
rule indexes and the basis of its symbol-count invariants (``invariants``,
see ``qtrw.invariants``), are computed once, on first use by the system
or any of its copies.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple, TypeAlias, TypeVar)

from .quantale import INF, LAWVERE, QuantaleError, QuantaleSpec, Value
from .ratexpr import Comparison, Env, Expr, ExprError, Param
from .term import (
    Position,
    Renamer,
    Substitution,
    Symbol,
    Term,
    TermError,
    Variable,
    apply_substitution,
    function_positions,
    instantiate_params,
    is_linear,
    match,
    preorder,
    replace_at,
    subterm_at,
    subterms,
    term_key,
    term_size,
    unify,
    variables,
)
from . import invariants as _invariants
from . import qrel as _qrel


@dataclass(frozen=True)
class SymbolFamily:
    """A declared symbol family: name, arity, parameter slots, display hints."""

    name: str
    arity: int
    param_names: Tuple[str, ...] = ()
    infix: bool = False
    grades: Optional[Tuple[Expr, ...]] = None  # per-argument sensitivities


# ---------------------------------------------------------------------------
# grades


class GradedError(ValueError):
    pass


def scale(quantale: QuantaleSpec, c: Fraction, value: Value) -> Value:
    """``value`` amplified by the sensitivity ``c``: c = 0 sends every value
    to the unit, inf stays inf, and otherwise the result is c·value."""
    quantale.check_value(value)
    if c == 0:
        return quantale.unit
    if value is INF:
        return INF
    return c * value


def grades_of(sys: RewriteSystem, symbol: Symbol) -> Tuple[Fraction, ...]:
    """The argument sensitivities of ``symbol``, read from its family.

    Families without declared grades are non-expansive (all arguments
    graded 1).  Parametric families evaluate their grade expressions against
    the concrete symbol parameters.
    """
    fam = sys.families.get(symbol.name)
    if fam is None:
        raise TermError(f"unknown symbol {symbol.name!r}")
    if fam.grades is None:
        return (Fraction(1),) * symbol.arity
    if len(fam.grades) != symbol.arity:
        raise GradedError(f"{symbol.name}: grade list does not match arity")
    env = {}
    for name, val in zip(fam.param_names, symbol.params):
        if not isinstance(val, Fraction):
            raise GradedError(
                f"{symbol}: grades need concrete symbol parameters")
        env[name] = val
    out = []
    for g in fam.grades:
        c = g.evaluate(env) if hasattr(g, "evaluate") else Fraction(g)
        if c < 0:
            raise GradedError(f"negative sensitivity {c}")
        out.append(c)
    return tuple(out)


def degree_at_position(sys: RewriteSystem, t: Term, p: Position) -> Fraction:
    """Product of the argument grades along the path to ``p``."""
    deg = Fraction(1)
    for i in p:
        if isinstance(t, Variable):
            raise TermError(f"position {list(p)} runs through a variable")
        deg *= grades_of(sys, t.symbol)[i - 1]
        t = t.args[i - 1]
    return deg


def degree_of_variable(sys: RewriteSystem, t: Term, x: str) -> Fraction:
    """Sum of the position degrees over every occurrence of ``x`` in ``t``."""
    total = Fraction(0)
    for p, s in subterms(t):
        if isinstance(s, Variable) and s.name == x:
            total += degree_at_position(sys, t, p)
    return total


WeightSlot = object  # Value or Expr


@dataclass(frozen=True)
class Rule:
    """A rule ``lhs -[weight]-> rhs`` that fires where ``conditions`` hold.
    Its schema parameters and fresh variables are read off the rule itself,
    so a rule built in code is the same rule loaded from a system file."""

    rid: str
    lhs: Term
    rhs: Term
    weight: WeightSlot
    conditions: Tuple[Comparison, ...] = ()
    origin: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Variable) and isinstance(self.rhs, Variable):
            raise TermError(f"rule {self.rid}: variable-to-variable rule")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, as the dataclass would compute it on
        every call; the firing memo looks rules up often, and a weight or
        condition expression tree is slow to hash."""
        return hash((self.rid, self.lhs, self.rhs, self.weight,
                     self.conditions, self.origin))

    @cached_property
    def params(self) -> Tuple[str, ...]:
        """The schema parameters, sorted: the names in the symbol slots of
        both sides, in the weight and in the conditions."""
        exprs = [slot for t in (self.lhs, self.rhs) for s in preorder(t)
                 if not isinstance(s, Variable) for slot in s.symbol.params]
        exprs += [self.weight, *self.conditions]
        return tuple(sorted({name for e in exprs if hasattr(e, "params")
                             for name in e.params()}))

    @property
    def is_schema(self) -> bool:
        return bool(self.params)

    @cached_property
    def fresh(self) -> Tuple[str, ...]:
        """Right-hand-side variables the left-hand side does not bind."""
        return tuple(sorted(variables(self.rhs) - variables(self.lhs)))

    @cached_property
    def delta(self) -> Optional[Dict[_invariants.Family, int]]:
        """How a step of this rule, in any instance, changes a term's count
        of each symbol family, keyed by name: the counts of the right-hand
        side less those of the left, nonzero only.  ``None`` when
        some variable occurs more often on one side, as the step then also
        moves the counts of what it binds."""
        return _invariants.delta(self.lhs, self.rhs)

    def weight_value(self, quantale: QuantaleSpec, env: Env) -> Value:
        if hasattr(self.weight, "evaluate"):
            return quantale.check_value(self.weight.evaluate(env))
        return self.weight


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One step of a reduction or a conversion: rule ``rule_id`` fires at
    ``position`` with ``weight``.  A "forward" step rewrites ``source`` to
    ``target``; a "backward" one rewrites ``target`` to ``source``."""

    source: Term
    target: Term
    weight: Value
    position: Position
    rule_id: str
    direction: str  # "forward" | "backward", relative to the rewrite relation

    def flipped(self) -> "RewriteStep":
        """The same step read from ``target`` to ``source``."""
        return RewriteStep(
            self.target, self.source, self.weight, self.position, self.rule_id,
            "backward" if self.direction == "forward" else "forward")


class _shared(cached_property):
    """A ``cached_property`` of a ``RewriteSystem`` computed once among its
    copies (``RewriteSystem.copy``): the first copy to read it stores it
    in their shared record, and each copy keeps it as its own attribute
    from its first read on, like any ``cached_property``."""

    def __get__(self, instance, owner=None):  # type: ignore[no-untyped-def]
        if instance is None:
            return self
        compiled = instance._compiled
        try:
            value = compiled[self.attrname]
        except KeyError:
            value = compiled[self.attrname] = self.func(instance)
        instance.__dict__[self.attrname] = value
        return value


@dataclass(frozen=True)
class RewriteSystem:
    name: str
    quantale: QuantaleSpec
    signature: Tuple[SymbolFamily, ...]
    rules: Tuple[Rule, ...]
    grid: Tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for fam in self.signature:
            if fam.name in seen:
                raise TermError(f"duplicate symbol family {fam.name!r}")
            seen.add(fam.name)
        for i, g in enumerate(self.grid):
            # a repeated value would instantiate each schema instance twice
            if g in self.grid[:i]:
                raise TermError(f"repeated grid value {g}")
        rids = set()
        for rule in self.rules:
            if rule.rid in rids:
                raise TermError(f"duplicate rule id {rule.rid!r}")
            rids.add(rule.rid)
            for t in (rule.lhs, rule.rhs):
                self._check_term(t, rule)
            if rule.is_schema and hasattr(rule.weight, "evaluate"):
                continue  # checked per instance by ``weight_value``
            try:
                self.quantale.check_value(rule.weight)
            except QuantaleError as exc:
                raise QuantaleError(f"rule {rule.rid}: {exc}") from None
            if rule.weight == self.quantale.bottom:
                raise QuantaleError(f"rule {rule.rid}: bottom weight")

    @cached_property
    def _compiled(self) -> Dict[str, object]:
        """The values compiled from the fields (``_shared``), by name,
        shared with every ``copy``."""
        return {}

    def copy(self) -> "RewriteSystem":
        """An equal system that shares everything compiled from the fields
        (the rule tables, the self-inverse test, the invariants, ...; see
        ``_shared``) but owns its step caches, ``relaxations`` and
        ``steps_past``, empty at the start.  The fields are this system's,
        already validated, so the copy is built without ``__init__``."""
        out = object.__new__(RewriteSystem)
        out.__dict__.update({f: getattr(self, f) for f in _FIELDS},
                            _compiled=self._compiled)
        return out

    def _check_term(self, t: Term, rule: Rule) -> None:
        for s in preorder(t):
            if isinstance(s, Variable):
                # emit_system would write it as the symbol
                if s.name in self.families:
                    raise TermError(f"rule {rule.rid}: variable {s.name!r}"
                                    " has the name of a symbol family")
                continue
            fam = self.families.get(s.symbol.name)
            if fam is None:
                raise TermError(
                    f"rule {rule.rid}: unknown symbol {s.symbol.name!r}")
            if (fam.arity != s.symbol.arity
                    or len(fam.param_names) != len(s.symbol.params)):
                raise TermError(
                    f"rule {rule.rid}: arity/parameter mismatch on {s.symbol}")

    @_shared
    def families(self) -> Dict[str, SymbolFamily]:
        """The declared symbol families by name."""
        return {fam.name: fam for fam in self.signature}

    @_shared
    def graded(self) -> bool:
        """Whether some symbol family declares grades; then every step
        weight is scaled by the degree of the step's context."""
        return any(fam.grades is not None for fam in self.signature)

    @property
    def linear(self) -> bool:
        return all(is_linear(r.lhs) and is_linear(r.rhs) for r in self.rules)

    @property
    def left_linear(self) -> bool:
        return all(is_linear(r.lhs) for r in self.rules)

    @property
    def has_schemas(self) -> bool:
        return any(r.is_schema for r in self.rules)

    def variable_lhs_rules(self) -> Tuple[str, ...]:
        return tuple(r.rid for r in self.rules if isinstance(r.lhs, Variable))

    @_shared
    def balanced(self) -> bool:
        """Whether every rule is balanced (``balanced_check``), computed on
        first use."""
        return all(e.balanced for e in balanced_check(self))

    @_shared
    def orthogonal(self) -> bool:
        """The ``orthogonality_check`` verdict, computed on first use."""
        return orthogonality_check(self)[0]

    # -- the one-step relation, compiled on first use ------------------------

    @_shared
    def forward(self) -> _RuleTable:
        """The rules, indexed for ``one_step``."""
        return _RuleTable.of(self.rules, self.quantale)

    @_shared
    def backward(self) -> _RuleTable:
        """The inverted rules (``_inverses``), indexed for backward steps;
        built on the first one."""
        q, grid = self.quantale, self.grid
        return _RuleTable.of([inv for rule in self.rules
                              for inv in _inverses(q, grid, rule)], q)

    @cached_property
    def relaxations(self) -> Dict[object, Tuple[List[RewriteStep],
                                                 Tuple[_Unbuilt, ...]]]:
        """The distance search's step cache: for each term, the
        ``RewriteStep``s the search relaxes and, for each rule and
        direction, the best weight of those a term-size bound skipped
        (``search._relaxations``)."""
        return {}

    @cached_property
    def steps_past(self) -> Dict[object, List[RewriteStep]]:
        """The meet search's cache of the steps a term-size limit leaves
        unbuilt, for the terms whose steps its proof builds: for each key
        of ``relaxations`` and limit, the steps to targets past that limit
        (``search._steps_past``)."""
        return {}

    @_shared
    def self_inverse(self) -> bool:
        """Whether every backward step has a forward twin at least as good:
        no rule is a schema, has conditions or invents variables, and each
        rule's swapped sides are, up to a joint renaming, the sides of a
        rule that weighs at least as much in the quantale order.  The twin
        steps at the same position to the same target, and context scaling
        is monotone."""
        q = self.quantale
        if self.forward.invents or any(r.is_schema or r.conditions
                                       for r in self.rules):
            return False
        weights: Dict[Tuple[Term, ...], List[Value]] = {}
        for r in self.rules:
            weights.setdefault(_renamed(r.lhs, r.rhs), []).append(r.weight)
        return all(any(q.leq(r.weight, w)
                       for w in weights.get(_renamed(r.rhs, r.lhs), ()))
                   for r in self.rules)

    @_shared
    def cheapest_step(self) -> Value:
        """The quantale-largest weight one step can have, in either
        direction: the join of the rule weights.  It is the unit when the
        system is ``graded`` (a context degree below 1 makes a step cheaper
        than its rule) or has a schema rule (its weight is read off the
        term).  The quantale is integral, so a run of one or more steps
        weighs no more than this either."""
        if self.graded or self.has_schemas:
            return self.quantale.unit
        return self.quantale.join(r.weight for r in self.rules)

    @_shared
    def invariants(self) -> Optional[Tuple[Dict[_invariants.Family, int],
                                           ...]]:
        """An integer basis, each vector its nonzero entries by family
        name, of the symbol-count invariants: the vectors over the
        signature's families that every rule's ``Rule.delta`` is orthogonal
        to.  ``None`` when some rule erases, duplicates or invents a
        variable.  Weights, grades, conditions and the quantale play no
        part; see ``qtrw.invariants``."""
        deltas = [rule.delta for rule in self.rules]
        if any(d is None for d in deltas):
            return None
        return _invariants.basis([f.name for f in self.signature], deltas)

    @_shared
    def potential(self) -> Optional[_invariants.Potential]:
        """``qtrw.invariants.potential`` of the rules where the tensor adds
        (``lawvere``, ``nat-inf``) and a step weighs what its rule does (no
        grades, no schema rule); ``None`` elsewhere."""
        if (self.quantale.tensor is not LAWVERE.tensor or self.graded
                or self.has_schemas):
            return None
        return _invariants.potential(self.rules)

    def _redexes(self, sub: Term, backward: bool,
                 firings: Optional[FiringMemo] = None) -> Tuple[_Redex, ...]:
        """How the rules (with ``backward``, the inverted rules) fire at the
        root of ``sub``; see ``_Redex``.  Schema rules fire through the
        firing memo ``firings``, if given (see ``_rule_matches``)."""
        table = self.backward if backward else self.forward
        candidates = table.var_rules
        if not isinstance(sub, Variable):
            candidates += table.by_root.get(sub.symbol.name, ())
        out: List[_Redex] = []
        for rule in candidates:
            for sigma, _, weight, rhs, iid in _rule_matches(
                    self.quantale, self.grid, rule, sub, firings):
                rid = rule.rid if backward else iid
                out.append((rid, weight, rule.fresh, (sigma, rhs) if rule.fresh
                            else apply_substitution(rhs, sigma)))
        return tuple(out)

    # -- schema instantiation ------------------------------------------------

    def instantiate(self) -> "RewriteSystem":
        """Expand every schema rule over the grid; concrete rules pass through."""
        out: List[Rule] = []
        for rule in self.rules:
            if not rule.is_schema:
                out.append(rule)
                continue
            if not self.grid:
                raise QuantaleError(
                    f"rule {rule.rid} is a schema but no parameter grid is declared")
            out.extend(_instances(self.quantale, self.grid, rule))
        return replace(self, rules=tuple(out))


_FIELDS = tuple(f.name for f in fields(RewriteSystem))


def _firing(quantale: QuantaleSpec, grid: Sequence[Fraction], rule: Rule,
            env: Env, sides: Tuple[Term, ...],
            ) -> Iterator[Tuple[Env, Value, Tuple[Term, ...]]]:
    """The instances of ``rule`` that fire: ``env`` completed over ``grid``
    on the parameters it leaves unbound, wherever the conditions hold, the
    instance is defined, and its weight is above bottom.  Each comes with
    its weight and ``sides`` under the completed env."""
    unbound = [p for p in rule.params if p not in env]
    if unbound and not grid:
        raise QuantaleError(
            f"rule {rule.rid} has free parameters {unbound} but no grid")
    for combo in itertools.product(grid, repeat=len(unbound)):
        full = dict(env)
        full.update(zip(unbound, combo))
        try:
            if not all(c.holds(full) for c in rule.conditions):
                continue
            w = rule.weight_value(quantale, full)
            inst = (tuple(instantiate_params(t, full) for t in sides) if full
                    else sides)
        except ExprError:
            continue  # e.g. (1 / e) at e = 0
        if w == quantale.bottom:
            continue
        yield full, w, inst


def _instances(quantale: QuantaleSpec, grid: Sequence[Fraction],
               rule: Rule) -> Iterator[Rule]:
    """The instances of schema ``rule`` over ``grid`` that fire."""
    for env, w, (lhs, rhs) in _firing(quantale, grid, rule, {},
                                      (rule.lhs, rule.rhs)):
        yield Rule(rid=_instance_id(rule, env), lhs=lhs, rhs=rhs, weight=w,
                   origin=rule.origin)


def _instance_id(rule: Rule, env: Env) -> str:
    """The id of ``rule``'s instance under ``env``: ``rid[p=v,...]`` over the
    rule's parameters in order, or ``rid`` for a concrete rule."""
    if not rule.params:
        return rule.rid
    return f"{rule.rid}[{','.join(f'{p}={env[p]}' for p in rule.params)}]"


def _fresh_variable_for(t: Term, taken: Set[str]) -> Variable:
    avoid = variables(t) | taken
    i = 0
    while f"w{i}" in avoid:
        i += 1
    return Variable(f"w{i}")


def _rule_matches(
    quantale: QuantaleSpec, grid: Sequence[Fraction], rule: Rule, sub: Term,
    firings: Optional[FiringMemo] = None,
) -> Iterator[Tuple[Substitution, Env, Value, Term, str]]:
    """All ways ``rule`` fires on ``sub``: bindings, parameter env, weight,
    the right-hand side under that env and the instance id; parameters
    ``sub`` does not determine range over ``grid`` (see ``_firing``).

    A schema rule's firings depend on ``sub`` only through the parameter
    values its left-hand side matched, so with a firing memo ``firings``
    they are read from it, or built and kept there.  The memo is keyed by
    the rule itself: an inverted rule keeps the bare rule id.  Its env
    dicts are shared by every later reader, so none may mutate them.
    """
    m = match(rule.lhs, sub)
    if m is None:
        return
    sigma, env = m
    if firings is None or not rule.params:
        for full, w, (rhs,) in _firing(quantale, grid, rule, env, (rule.rhs,)):
            yield sigma, full, w, rhs, _instance_id(rule, full)
        return
    key = (rule, tuple(env.get(p) for p in rule.params))
    fired = firings.get(key)
    if fired is None:
        fired = firings[key] = [
            (full, w, rhs, _instance_id(rule, full)) for full, w, (rhs,)
            in _firing(quantale, grid, rule, env, (rule.rhs,))]
    for full, w, rhs, iid in fired:
        yield sigma, full, w, rhs, iid


class _RuleTable(NamedTuple):
    """Rules indexed by left-hand-side root symbol.  ``bounds`` holds, for
    each root in ``by_root``, the quantale-largest weight a rule can fire
    with at a subterm of that root: the join of the static weights of the
    rules rooted there and of ``var_rules``.  A static weight is the rule's
    weight, or the unit when that is an expression read off the term.
    Without grades no step at such a subterm weighs more, so ``one_step``
    matches no rule there when the bound is already out of its bounds."""

    var_rules: Tuple[Rule, ...]            # rules with a bare-variable lhs
    by_root: Dict[str, Tuple[Rule, ...]]   # the others, by lhs root symbol
    invents: bool                          # some rule has fresh variables
    bounds: Dict[str, Value]               # per root in by_root, see above

    @classmethod
    def of(cls, rules: Sequence[Rule], q: QuantaleSpec) -> "_RuleTable":
        by_root: Dict[str, List[Rule]] = {}
        for rule in rules:
            if not isinstance(rule.lhs, Variable):
                by_root.setdefault(rule.lhs.symbol.name, []).append(rule)
        var_rules = tuple(r for r in rules if isinstance(r.lhs, Variable))

        def static(rule: Rule) -> Value:
            return q.unit if hasattr(rule.weight, "evaluate") else rule.weight

        return cls(var_rules, {k: tuple(v) for k, v in by_root.items()},
                   any(r.fresh for r in rules),
                   {k: q.join(map(static, (*v, *var_rules)))
                    for k, v in by_root.items()})


def _params_solvable(t: Term) -> bool:
    """Whether matching ``t`` determines every parameter it uses: ``match``
    binds bare parameter slots left to right and checks a compound slot only
    against parameters bound before it."""
    bound: Set[str] = set()
    for s in preorder(t):
        if isinstance(s, Variable):
            continue
        for slot in s.symbol.params:
            if isinstance(slot, Param):
                bound.add(slot.name)
            elif not isinstance(slot, Fraction) and not slot.params() <= bound:
                return False
    return True


def _inverses(quantale: QuantaleSpec, grid: Sequence[Fraction],
              rule: Rule) -> List[Rule]:
    """``rule`` with its sides swapped, or, if matching cannot solve its
    right-hand side, its firing grid instances swapped, each under the bare
    rule id.  Without a grid, or if some instance has an invalid weight, the
    swapped schema is kept; it never fires."""
    if grid and not _params_solvable(rule.rhs):
        try:
            return [replace(r, rid=rule.rid, lhs=r.rhs, rhs=r.lhs)
                    for r in _instances(quantale, grid, rule)]
        except QuantaleError:
            pass
    return [replace(rule, lhs=rule.rhs, rhs=rule.lhs)]


def _renamed(*ts: Term) -> Tuple[Term, ...]:
    """``ts`` with their variables renamed jointly to ``v0``, ``v1``, ... in
    order of first occurrence, so that two tuples are equal up to a joint
    renaming exactly when their renamings are equal."""
    names: Dict[str, Term] = {}
    for t in ts:
        for _, s in subterms(t):
            if isinstance(s, Variable) and s.name not in names:
                names[s.name] = Variable(f"v{len(names)}")
    return tuple(apply_substitution(t, names) for t in ts)


# String aliases, as ``typing`` would cache them with this import's classes.

# How the rules fire at the root of one subterm, in firing order: (rule id,
# weight, fresh variables, contractum); for a rule that invents variables the
# contractum is the pair (match, instantiated right-hand side) instead, since
# the invented variables' values depend on the caller.
_Redex: TypeAlias = "Tuple[str, Value, Tuple[str, ...], object]"

# the redex memo of one query: (backward?, subterm) -> its root redexes
RedexMemo: TypeAlias = "Dict[Tuple[bool, Term], Tuple[_Redex, ...]]"

# the firing memo of one strong-closure pass: (schema rule, the values its
# left-hand side matched for ``Rule.params``, None where unbound) -> its
# firings, (env, weight, right-hand side, instance id)
FiringMemo: TypeAlias = ("Dict[Tuple[Rule, Tuple[object, ...]],"
                         " List[Tuple[Env, Value, Term, str]]]")

# a redex that ``within`` kept out of a step list: its position, and the
# redex with its weight after context scaling
_Skip: TypeAlias = "Tuple[Position, _Redex]"

# the steps of one rule in one direction that ``one_step`` left unbuilt:
# (rule id, backward), for those past ``max_size``, or (rule id, backward,
# "invented"), for those whose invented variables no pool pick fills; and
# the best of their weights
_Unbuilt: TypeAlias = "Tuple[Tuple[object, ...], Value]"


def _targets(t: Term, p: Position, redex: _Redex,
             pool: Optional[Sequence[Term]]) -> Iterator[Term]:
    """The targets of the steps ``redex`` at ``p`` makes from ``t``, as
    ``one_step`` builds them, one at a time."""
    _, _, fresh, contractum = redex
    contracta = (_invented(t, pool, fresh, *contractum) if fresh
                 else (contractum,))
    return (replace_at(t, p, c) for c in contracta)


def _invented(t: Term, pool: Optional[Sequence[Term]],
              fresh: Tuple[str, ...], sigma: Substitution, rhs: Term,
              ) -> Iterator[Term]:
    """The contractum for each pick of the ``fresh`` variables from
    ``pool``, or of one variable fresh for ``t``."""
    for picked in itertools.product(
            pool or [_fresh_variable_for(t, set(fresh))], repeat=len(fresh)):
        full = dict(sigma)
        full.update(zip(fresh, picked))
        yield apply_substitution(rhs, full)


def one_step(
    sys: RewriteSystem,
    t: Term,
    fresh_pool: Optional[Sequence[Term]] = None,
    backward: bool = False,
    *,
    memo: Optional[RedexMemo] = None,
    firings: Optional[FiringMemo] = None,
    within: Optional[Tuple[Value, Value]] = None,
    _skipped: Optional[List[_Skip]] = None,
    _floor: Optional[Value] = None,
    max_size: Optional[int] = None,
    _oversized: Optional[Dict[Tuple[object, ...], Value]] = None,
    beyond: Optional[int] = None,
) -> List[RewriteStep]:
    """Every single rewrite step from ``t``, duplicate-free; with
    ``backward``, every step from ``t`` of the inverse relation, each in the
    direction "backward".

    ``fresh_pool`` supplies candidate instantiations for right-hand-side
    variables the left-hand side does not bind; by default a single fresh
    variable is used.  Forward steps of schema rules name their parameter
    assignment in the rule id; backward steps keep the bare rule id.  If
    ``sys`` is ``graded``, each step weight is scaled by the degree of the
    surrounding context.  ``memo`` is the caller's redex memo (by default a
    fresh one): one search query or one closure check shares it, so a
    subterm common to many of its terms is matched once per direction.  It
    must only ever serve ``sys``, and holds no more than the query reaches;
    a memo kept on the system would keep every query's subterms alive.
    ``firings`` is the caller's firing memo (by default none): a subterm
    the redex memo has not seen fires its schema rules through it (see
    ``_rule_matches``), so one strong-closure pass builds each schema
    instance once.  It too must only ever serve ``sys``.

    ``within`` = (weight so far, bound) keeps only the steps whose
    weight, tensored onto the weight so far, stays at or above the
    bound; a redex out of bounds (after context scaling) is skipped
    before its contracta are built.  The result is the unbounded list
    with those steps taken out: of the steps sharing a position, rule id
    and target the first heaviest is kept, and as the quantale is
    totally ordered and its tensor monotone, one out of bounds weighs
    less than any in bounds, so the kept steps and their order stay.
    Each redex skipped is appended to ``_skipped``, if given, for a
    caller that must account for the weight it prunes (see
    ``_targets``), unless its weight, tensored onto the weight so far,
    does not strictly beat ``_floor``: a caller that discards such a
    redex anyway passes the weight it would discard up to.  Unless
    ``sys`` is graded, a step weighs at most its root's bound in the rule
    table (``_RuleTable``), so a subterm whose root's bound is out of
    bounds, and whose redexes would not be appended to ``_skipped``
    either, is skipped before any rule is matched there.  Where no root
    is skipped, the walk is that of an unbounded call.

    ``max_size`` keeps only the steps to targets of at most that many
    symbols.  A target's size is known before it is built, that of ``t``
    less the redex's plus the contractum's, so a step past it is never
    built; its weight (after context scaling) is joined into
    ``_oversized``, if given, under its (rule id, ``backward``).  Skipping
    a target drops only the steps to it, so the kept steps and their order
    stay.  ``beyond`` keeps the other steps, those to targets of more than
    that many symbols, and builds no target it drops.  A redex whose
    invented variables ``fresh_pool`` fills builds no step that invents a
    term outside the pool, so its weight is joined into ``_oversized``
    too, under (rule id, ``backward``, "invented").
    """
    q, graded = sys.quantale, sys.graded
    if memo is None:
        memo = {}

    def unbuilt(key: Tuple[object, ...], weight: Value) -> None:
        old = _oversized.get(key)  # type: ignore[union-attr]
        if old is None or q.strictly_below(old, weight):
            _oversized[key] = weight  # type: ignore[index]

    direction = "backward" if backward else "forward"
    skip: Set[str] = set()
    if within is not None:
        done, bound = within

        def dropped(weight: Value) -> bool:
            """Whether a redex of ``weight`` is out of bounds, and not for
            ``_skipped`` either."""
            w = q.tensor(done, weight)
            return not q.leq(bound, w) and (_skipped is None or (
                _floor is not None and not q.strictly_below(_floor, w)))

        if not graded:
            table = sys.backward if backward else sys.forward
            skip = {root for root, most in table.bounds.items()
                    if dropped(most)}
    steps: Dict[Tuple[Position, str, Term], RewriteStep] = {}
    for p, sub in subterms(t):
        if skip and not isinstance(sub, Variable) and sub.symbol.name in skip:
            continue
        redexes = memo.get((backward, sub))
        if redexes is None:
            redexes = memo[backward, sub] = sys._redexes(sub, backward,
                                                         firings)
        if not redexes:
            continue
        if graded:
            deg = degree_at_position(sys, t, p)
            redexes = [(rid, scale(q, deg, weight), fresh, contractum)
                       for rid, weight, fresh, contractum in redexes]
        if within is not None:
            kept = []
            for r in redexes:
                if q.leq(bound, q.tensor(done, r[1])):
                    kept.append(r)
                elif _skipped is not None and not dropped(r[1]):
                    _skipped.append((p, r))
            redexes = kept
        if max_size is not None:
            room = max_size - term_size(t) + term_size(sub)
        if beyond is not None:
            floor = beyond - term_size(t) + term_size(sub)
        for rid, weight, fresh, contractum in redexes:
            if fresh and fresh_pool and _oversized is not None:
                unbuilt((rid, backward, "invented"), weight)
            contracta = (_invented(t, fresh_pool, fresh, *contractum) if fresh
                         else (contractum,))
            for c in contracta:
                if max_size is not None and c._size > room:  # type: ignore[union-attr]
                    if _oversized is not None:
                        unbuilt((rid, backward), weight)
                    continue
                if beyond is not None and c._size <= floor:  # type: ignore[union-attr]
                    continue
                target = replace_at(t, p, c)
                key = (p, rid, target)
                old = steps.get(key)
                if old is None or q.strictly_below(old.weight, weight):
                    steps[key] = RewriteStep(t, target, weight, p, rid,
                                             direction)
    # by position, rule id and, where one rule steps at one position to
    # several targets, the contractum's rendering.  The rest of their
    # renderings is one string, which starts with "," or ")" or is empty
    # at the root; it could reorder two contracta only if one rendered as
    # a proper prefix of the other and the longer went on with "(", that
    # is, a leaf named like a function symbol of another arity, which no
    # signature the DSL accepts allows
    ties = Counter(k[:2] for k in steps)

    def order(k: Tuple[Position, str, Term]) -> Tuple[Position, str, str]:
        p, rid, target = k
        return p, rid, str(subterm_at(target, p)) if ties[p, rid] > 1 else ""

    return [steps[k] for k in sorted(steps, key=order)]


_Step = TypeVar("_Step")  # a RewriteStep or a graded MultiStep


def _best_per_target(steps: Iterable[_Step],
                     q: QuantaleSpec) -> Dict[Term, _Step]:
    """The first heaviest of ``steps`` to each target, keyed by target in
    the order the targets first occur."""
    best: Dict[Term, _Step] = {}
    for s in steps:
        old = best.get(s.target)
        if old is None or q.strictly_below(old.weight, s.weight):
            best[s.target] = s
    return best


# ---------------------------------------------------------------------------
# critical pairs


@dataclass(frozen=True)
class CriticalPeak:
    """A divergence from overlapping rule instances.

    ``left`` rewrites the overlap position with the inner rule (contractum in
    context); ``right`` rewrites at the root with the outer rule.
    """

    source: Term
    left: Tuple[Term, Value]
    right: Tuple[Term, Value]
    position: Position
    inner_rule: str
    outer_rule: str

    def tensor(self, quantale: QuantaleSpec) -> Value:
        return quantale.tensor(self.left[1], self.right[1])


def _canonical_peak_key(peak: CriticalPeak) -> str:
    parts = _renamed(peak.source, peak.left[0], peak.right[0])
    return "|".join(term_key(p) for p in parts) + f"|{peak.left[1]}|{peak.right[1]}"


def critical_pairs(sys: RewriteSystem, pair_filter=None) -> List[CriticalPeak]:
    """Overlaps of rule instances, over the system's grid, at
    function-symbol positions.

    Root overlaps of a rule instance with itself are skipped, as are rules
    whose left-hand side is a bare variable in the inner role (they overlap
    everywhere; reported separately by ``variable_lhs_rules``).  Each side
    weighs what the system's step does: in a graded system the inner step
    is scaled by the degree of its position; the outer one is at the root.
    """
    conc = sys.instantiate() if sys.has_schemas else sys
    peaks: Dict[str, CriticalPeak] = {}
    for outer in conc.rules:
        if isinstance(outer.lhs, Variable):
            continue
        for inner in conc.rules:
            if isinstance(inner.lhs, Variable):
                continue
            if pair_filter is not None and not pair_filter(inner, outer):
                continue
            renamer = Renamer()
            avoid = variables(outer.lhs) | variables(outer.rhs)
            (in_lhs, in_rhs), _ = renamer.rename_apart(
                [inner.lhs, inner.rhs], avoid)
            for p in function_positions(outer.lhs):
                if p == () and inner.rid == outer.rid:
                    continue  # a rule never critically overlaps itself at the root
                sigma = unify(subterm_at(outer.lhs, p), in_lhs)
                if sigma is None:
                    continue
                source = apply_substitution(outer.lhs, sigma)
                left = replace_at(source, p, apply_substitution(in_rhs, sigma))
                right = apply_substitution(outer.rhs, sigma)
                weight = inner.weight
                if conc.graded:
                    weight = scale(conc.quantale,
                                   degree_at_position(conc, source, p), weight)
                peak = CriticalPeak(
                    source=source,
                    left=(left, weight),
                    right=(right, outer.weight),
                    position=p,
                    inner_rule=inner.rid,
                    outer_rule=outer.rid,
                )
                peaks.setdefault(_canonical_peak_key(peak), peak)
    return [peaks[k] for k in sorted(peaks)]


def sum_systems(sys1: RewriteSystem, sys2: RewriteSystem) -> RewriteSystem:
    """Disjoint union; the induced relation is the join of the components.

    The sum's grid is the union of the two grids.  A component with a
    schema rule must declare that whole grid, or the sum would instantiate
    its free parameters at values the component alone never takes."""
    names1 = {f.name for f in sys1.signature}
    overlap = names1 & {f.name for f in sys2.signature}
    if overlap:
        raise TermError(f"sum requires disjoint signatures; shared: {sorted(overlap)}")
    sys1.quantale.check_same(sys2.quantale)
    grid = tuple(dict.fromkeys(sys1.grid + sys2.grid))
    for c in (sys1, sys2):
        if c.has_schemas and set(c.grid) != set(grid):
            raise TermError(
                f"sum would widen the grid of {c.name}, which has schema rules")

    def tag(rules: Tuple[Rule, ...], default: str) -> Tuple[Rule, ...]:
        return tuple(
            r if r.origin else replace(r, origin=default) for r in rules)

    return RewriteSystem(
        name=f"{sys1.name}+{sys2.name}",
        quantale=sys1.quantale,
        signature=sys1.signature + sys2.signature,
        rules=tag(sys1.rules, sys1.name) + tag(sys2.rules, sys2.name),
        grid=grid,
    )


def cross_critical_pairs(sys1: RewriteSystem,
                         sys2: RewriteSystem) -> List[CriticalPeak]:
    """Peaks of the sum whose two rules come from different components."""

    def different(inner: Rule, outer: Rule) -> bool:
        return inner.origin != outer.origin

    return critical_pairs(sum_systems(sys1, sys2), pair_filter=different)


# ---------------------------------------------------------------------------
# balance and orthogonality


@dataclass(frozen=True)
class BalanceEntry:
    rule_id: str
    variable: str
    lhs_degree: Fraction
    rhs_degree: Fraction
    sampled: bool

    @property
    def balanced(self) -> bool:
        return self.lhs_degree == self.rhs_degree


def balanced_check(sys: RewriteSystem) -> List[BalanceEntry]:
    """Per-rule, per-variable degree comparison between the two sides.

    Schema rules are checked at every grid instance that fires, the ones
    ``RewriteSystem.instantiate`` keeps; those entries are marked sampled,
    since parameter-generic equality is only verified pointwise.
    """
    entries: List[BalanceEntry] = []
    for rule in sys.rules:
        instances = [rule]
        if rule.is_schema:
            if not sys.grid:
                raise GradedError(
                    f"rule {rule.rid}: schema needs a grid for balance sampling")
            instances = list(_instances(sys.quantale, sys.grid, rule))
        worst: Dict[str, BalanceEntry] = {}
        for inst in instances:
            for x in sorted(variables(inst.lhs) | variables(inst.rhs)):
                entry = BalanceEntry(
                    rule.rid, x,
                    degree_of_variable(sys, inst.lhs, x),
                    degree_of_variable(sys, inst.rhs, x),
                    rule.is_schema)
                old = worst.get(x)
                if old is None or (old.balanced and not entry.balanced):
                    worst[x] = entry
        entries.extend(worst[x] for x in sorted(worst))
    return entries


def orthogonality_check(sys: RewriteSystem) -> Tuple[bool, Dict[str, object]]:
    """Left-linear, no critical pairs, no bare-variable left-hand sides."""
    peaks = critical_pairs(sys)
    var_lhs = sys.variable_lhs_rules()
    evidence = {
        "left_linear": sys.left_linear,
        "critical_pairs": len(peaks),
        "variable_lhs_rules": var_lhs,
    }
    return sys.left_linear and not peaks and not var_lhs, evidence


# ---------------------------------------------------------------------------
# bounded valley searches


def subterm_pool(*terms: Term) -> List[Term]:
    """The distinct subterms of ``terms``, sorted by rendering: the
    candidates for variables a step invents."""
    pool = dict.fromkeys(s for t in terms for _, s in subterms(t))
    return sorted(pool, key=str)


def _layered_relaxation(
    sys: RewriteSystem,
    t: Term,
    depth: int,
    pool: Optional[Sequence[Term]] = None,
    weight_bound: Optional[Value] = None,
    size_bound: Optional[int] = None,
    memo: Optional[RedexMemo] = None,
    firings: Optional[FiringMemo] = None,
) -> Iterator[Tuple[Term, Value]]:
    """Relax reducts of ``t`` layer by layer, up to ``depth`` steps.

    Yields (term, weight) for ``t`` and then for each reduct whose best
    weight improves, as it improves.  Each layer expands the terms the
    previous one improved, at their current best weight.  Paths whose
    weight drops below ``weight_bound`` in the quantale order are pruned
    (sound: tensors only descend), as are reducts larger than ``size_bound``.
    ``one_step`` applies the weight bound (its ``within``), so a pruned
    step is never built, and the yields are those of building every step
    and pruning afterwards.  Steps go through the redex memo ``memo`` of
    the caller's check and the firing memo ``firings`` of its pass.
    """
    q = sys.quantale
    best: Dict[Term, Value] = {t: q.unit}
    yield t, q.unit
    frontier = [t]
    for _ in range(depth):
        next_frontier: List[Term] = []
        for term in frontier:
            w = best[term]
            within = None if weight_bound is None else (w, weight_bound)
            for step in one_step(sys, term, pool, memo=memo, firings=firings,
                                 within=within):
                nw = q.tensor(w, step.weight)
                u = step.target
                if size_bound is not None and term_size(u) > size_bound:
                    continue
                old = best.get(u)
                if old is None or q.strictly_below(old, nw):
                    best[u] = nw
                    next_frontier.append(u)
                    yield u, nw
        if not next_frontier:
            break
        frontier = next_frontier


@dataclass(frozen=True)
class JoinVerdict:
    """A joinable verdict carries a valley that dominates the peak, an
    unknown one the best valley found within the depth and the expansion
    budget, if any: its paths from the peak's two sides to ``meet``."""

    kind: str  # "joinable" | "unknown"
    peak_total: Value
    best_total: Optional[Value]
    meet: Optional[Term]
    left_path: Tuple[RewriteStep, ...]
    right_path: Tuple[RewriteStep, ...]


def join_check(
    sys: RewriteSystem, peak: CriticalPeak, depth_budget: int
) -> JoinVerdict:
    """Search for a valley whose tensor dominates the peak tensor.

    "Dominates" is in the quantale order (valley >= peak), i.e. numerically
    at most the peak total on cost quantales.  The valley search is
    ``qtrw.search``'s, each side at most ``depth_budget`` steps deep, with
    variables a step invents drawn from the peak's subterms; it stops at the
    first valley that dominates the peak.
    """
    from .search import SearchBudget, _meet_search  # search imports qtrs

    q = sys.quantale
    left, right = peak.left[0], peak.right[0]
    peak_total = peak.tensor(q)
    ans = _meet_search(
        sys, left, right, SearchBudget(max_depth=depth_budget), symmetric=False,
        pool=subterm_pool(peak.source, left, right), goal=peak_total)
    lpath = tuple(s for s in ans.witness if s.direction == "forward")
    rpath = tuple(s.flipped() for s in reversed(ans.witness)
                  if s.direction == "backward")
    joins = ans.value is not None and q.leq(peak_total, ans.value)
    meet = None if ans.value is None else lpath[-1].target if lpath else left
    return JoinVerdict("joinable" if joins else "unknown", peak_total,
                       ans.value, meet, lpath, rpath)


@dataclass(frozen=True)
class StrongClosureVerdict:
    holds: bool
    one_step_left: Optional[Tuple[Term, Value]]   # left ->= u *<- right
    one_step_right: Optional[Tuple[Term, Value]]  # left ->* v =<- right


def _match_root(t: Term) -> Optional[Symbol]:
    """The root symbol of ``t`` if ``match`` can pair ``t`` only with terms
    of that very root: ``None`` for a variable, or for a root with a
    parameter that is not a ``Fraction``, which matching may still solve."""
    if isinstance(t, Variable):
        return None
    sym = t.symbol
    return sym if all(isinstance(v, Fraction) for v in sym.params) else None


def _one_sided_closure(
    sys: RewriteSystem,
    short_side: Term,
    long_side: Term,
    peak_total: Value,
    depth: int,
    pool: Sequence[Term],
    memo: RedexMemo,
    firings: FiringMemo,
) -> Optional[Tuple[Term, Value]]:
    """The first meet of ``short_side`` in at most one step and
    ``long_side`` in at most ``depth`` steps whose valley weight dominates
    ``peak_total``, with that weight; ``None`` if there is none.

    Neither side builds a step that takes its path below ``peak_total``
    (see ``_layered_relaxation``).  On the short side that loses no meet:
    the quantale is integral, so a valley weighs at most its short half,
    and a candidate below ``peak_total`` never closes the peak.  The kept
    candidates are the unbounded ones that dominate the peak, in their
    order, but for a target first reached by a step out of bounds: it
    moves to its first step in bounds, which can change the meet found
    first.  Each term the long side reaches is tried against the
    candidates in order, skipping those whose root symbol cannot pair with
    the term's (``_match_root``): ``match`` fails on them both ways, so the
    first meet stays the same.
    """
    q = sys.quantale
    candidates = dict(_layered_relaxation(
        sys, short_side, 1, pool, peak_total, memo=memo, firings=firings))
    # the sought meet is one of the kept candidates, so reducts that outgrow
    # them (modulo slack for intermediate reshuffling) can never close the
    # peak; the cap prunes only the long side, so it cannot make a closure
    # unsound
    size_cap = 2 + max(term_size(long_side), *map(term_size, candidates))
    roots = {u: _match_root(u) for u in candidates}
    # the candidates in order that may pair with a term of each root
    paired: Dict[Optional[Symbol], List[Tuple[Term, Value]]] = {
        None: list(candidates.items())}
    for term, w in _layered_relaxation(
            sys, long_side, depth, pool, peak_total, size_cap, memo, firings):
        root = _match_root(term)
        tried = paired.get(root)
        if tried is None:
            tried = paired[root] = [(u, wu) for u, wu in candidates.items()
                                    if roots[u] is None or roots[u] is root]
        # critical pairs are open terms: the sides meet when one is an
        # instance of the other, not only when they are literally equal
        for u, wu in tried:
            if (term == u
                    or match(term, u) is not None
                    or match(u, term) is not None):
                total = q.tensor(wu, w)
                if q.leq(peak_total, total):
                    return (u, total)
    return None


def strongly_closed_check(
    sys: RewriteSystem, peak: CriticalPeak, depth_budget: int, *,
    firings: Optional[FiringMemo] = None,
) -> StrongClosureVerdict:
    """Both one-sided valley conditions for the peak, weight-aware.

    Condition one: some u with left ->= u and right ->* u.  Condition two:
    some v with left ->* v and right ->= v.  Each valley tensor must dominate
    the peak tensor in the quantale order.

    ``firings`` is the firing memo of the caller's pass over ``sys``'s
    peaks (see ``strong_closure_pass``); by default the check owns one.
    The redex memo is always the check's own.
    """
    q = sys.quantale
    pool = subterm_pool(peak.source, peak.left[0], peak.right[0])
    total = peak.tensor(q)
    memo: RedexMemo = {}  # both conditions step through one memo
    if firings is None:
        firings = {}
    c1 = _one_sided_closure(sys, peak.left[0], peak.right[0], total,
                            depth_budget, pool, memo, firings)
    c2 = _one_sided_closure(sys, peak.right[0], peak.left[0], total,
                            depth_budget, pool, memo, firings)
    return StrongClosureVerdict(c1 is not None and c2 is not None, c1, c2)


def strong_closure_pass(sys: RewriteSystem, peaks: Sequence[CriticalPeak],
                        depth_budget: int) -> List[StrongClosureVerdict]:
    """``strongly_closed_check`` on each of ``peaks``, in order, all
    sharing one firing memo that ends with the pass."""
    firings: FiringMemo = {}
    return [strongly_closed_check(sys, p, depth_budget, firings=firings)
            for p in peaks]


# ---------------------------------------------------------------------------
# term graphs and the confluence report


def term_graph(
    sys: RewriteSystem,
    seeds: Sequence[Term],
    max_terms: Optional[int] = 2000,
    depth: Optional[int] = None,
) -> Tuple[_qrel.FiniteQRel, bool]:
    """Explore the reduction graph breadth-first; returns (relation,
    exhausted?).

    Layer d holds the terms first reached in d steps.  At most ``depth``
    layers are expanded and at most ``max_terms`` terms kept (``None``: no
    bound); steps to new terms beyond the cap are dropped, while steps
    between kept terms stay.  The graph is exhausted when no step was
    dropped and no layer was left unexpanded.
    """
    q = sys.quantale
    nodes: Dict[Term, None] = dict.fromkeys(seeds)
    edges: Dict[Tuple[Term, Term], Value] = {}
    layer, expanded, dropped = list(nodes), 0, False
    while layer and (depth is None or expanded < depth):
        next_layer: List[Term] = []
        for term in layer:
            for step in one_step(sys, term):
                u = step.target
                if u not in nodes:
                    if max_terms is not None and len(nodes) >= max_terms:
                        dropped = True
                        continue
                    nodes[u] = None
                    next_layer.append(u)
                old = edges.get((term, u))
                edges[(term, u)] = (step.weight if old is None
                                    else q.join2(old, step.weight))
        layer, expanded = next_layer, expanded + 1
    rel = _qrel.FiniteQRel.make(
        sorted(map(str, nodes)),
        {(str(a), str(b)): w for (a, b), w in edges.items()}, q)
    return rel, not dropped and not layer


def sn_probe(sys: RewriteSystem, seeds: Sequence[Term],
             max_terms: int) -> Tuple[str, _qrel.FiniteQRel]:
    """The termination probe on the reduction graph from ``seeds``.

    Returns the status -- "cycle found", "passes on explored" (no cycle in
    the whole graph) or "inconclusive (truncated)" (no cycle among the first
    ``max_terms`` terms) -- and the explored relation.
    """
    rel, exhausted = term_graph(sys, seeds, max_terms)
    if not rel.strongly_normalizing_check():
        return "cycle found", rel
    return ("passes on explored" if exhausted
            else "inconclusive (truncated)"), rel


@dataclass(frozen=True)
class ConfluenceReport:
    certificate: str
    evidence: Dict[str, object]


def confluence_report(
    sys: RewriteSystem,
    seeds: Sequence[Term] = (),
    depth_budget: int = 6,
    sn_max_terms: int = 2000,
    components: Optional[Tuple[RewriteSystem, RewriteSystem]] = None,
) -> ConfluenceReport:
    """Run the certification pipeline and emit the strongest justified claim.

    Routes, in order: declared-sum modularity (empty cross peaks plus
    certified components), critical pairs + termination probe, strong
    closure.  Non-linear systems only enter the critical-pair routes when
    the quantale is idempotent, and that relaxation is flagged.
    """
    evidence: Dict[str, object] = {
        "linear": sys.linear,
        "left_linear": sys.left_linear,
        "variable_lhs_rules": sys.variable_lhs_rules(),
    }
    gate_ok = sys.linear
    if not gate_ok and sys.quantale.idempotent:
        gate_ok = True
        evidence["linearity_gate"] = (
            "relaxed: idempotent quantale (per-remark route, unproved in paper)")

    if components is not None:
        c1, c2 = components
        cross = cross_critical_pairs(c1, c2)
        evidence["cross_critical_pairs"] = len(cross)
        if not cross:
            def sub_seeds(c: RewriteSystem) -> List[Term]:
                fams = {f.name for f in c.signature}
                return [t for t in seeds if all(
                    isinstance(s, Variable) or s.symbol.name in fams
                    for s in preorder(t))]

            subs = [
                confluence_report(c, sub_seeds(c), depth_budget, sn_max_terms)
                for c in (c1, c2)
            ]
            evidence["component_certificates"] = [s.certificate for s in subs]
            if all(s.certificate != "inconclusive" for s in subs):
                return ConfluenceReport("confluent by Hindley-Rosen", evidence)

    peaks = critical_pairs(sys)
    evidence["critical_pairs"] = len(peaks)

    sn_status = sn_probe(sys, seeds, sn_max_terms)[0] if seeds else "skipped"
    evidence["sn_probe"] = sn_status

    if gate_ok and sn_status == "passes on explored":
        verdicts = [join_check(sys, p, depth_budget) for p in peaks]
        evidence["joinable_peaks"] = sum(v.kind == "joinable" for v in verdicts)
        if all(v.kind == "joinable" for v in verdicts):
            return ConfluenceReport(
                "confluent by CP+Newman at explored scale", evidence)

    if gate_ok:
        strong = strong_closure_pass(sys, peaks, depth_budget)
        evidence["strongly_closed_peaks"] = sum(v.holds for v in strong)
        if all(v.holds for v in strong):
            return ConfluenceReport("confluent by strong closure", evidence)

    return ConfluenceReport("inconclusive", evidence)
