"""Graded rewriting: per-argument sensitivities, degrees, balanced rules,
grade-scaled one-step reduction, parallel multi-steps, and orthogonality.

Grades belong to the rewrite system: each symbol family may declare its
argument sensitivities, read by ``grades_of``.  On additive cost quantales a
sensitivity is a non-negative rational c acting by ε ↦ c·ε (``scale``), so
degrees are rationals: 1 is the identity, 0 the constant-unit map,
composition is product and tensor is sum.  That makes balancedness a
rational-equality check.  Sensitivities may not be infinite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .quantale import INF, QuantaleSpec, Value
from .term import (
    Application,
    Context,
    Position,
    Symbol,
    Term,
    TermError,
    Variable,
    apply_substitution,
    instantiate_params,
    subterms,
    term_key,
    variables,
)
from .qtrs import (
    RewriteSystem,
    Stepper,
    _fresh_variable_for,
    _instances,
    _rule_matches,
    critical_pairs,
)


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
    fam = sys.family(symbol.name)
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
    cur = t
    for i in p:
        if isinstance(cur, Variable):
            raise TermError(f"position {list(p)} runs through a variable")
        deg *= grades_of(sys, cur.symbol)[i - 1]
        cur = cur.args[i - 1]
    return deg


def degree_of_variable(sys: RewriteSystem, t: Term, x: str) -> Fraction:
    """Sum of the position degrees over every occurrence of ``x`` in ``t``."""
    total = Fraction(0)
    for p, s in subterms(t):
        if isinstance(s, Variable) and s.name == x:
            total += degree_at_position(sys, t, p)
    return total


def context_degree(sys: RewriteSystem, context: Context) -> Fraction:
    return degree_at_position(sys, context.term_with_hole, context.hole)


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


@dataclass(frozen=True)
class GradedSystem:
    """A rewrite system under its grading.  The balance and orthogonality
    verdicts and the stepper are computed once, on first use."""

    system: RewriteSystem

    @property
    def quantale(self) -> QuantaleSpec:
        return self.system.quantale

    @cached_property
    def stepper(self) -> Stepper:
        """The rules' one-step relation with every step weight scaled by the
        degree of its context, built on the first step."""
        sys, q = self.system, self.system.quantale
        return Stepper(sys,
                       lambda t, p, w: scale(q, degree_at_position(sys, t, p), w))

    @cached_property
    def balanced(self) -> bool:
        return all(e.balanced for e in balanced_check(self.system))

    @cached_property
    def orthogonal(self) -> bool:
        return orthogonality_check(self.system)[0]


# ---------------------------------------------------------------------------
# parallel multi-steps


@dataclass(frozen=True)
class MultiStep:
    target: Term
    weight: Value
    nredex: int


def _pareto_insert(
    table: Dict[Term, List[MultiStep]], ms: MultiStep, q: QuantaleSpec
) -> None:
    row = table.setdefault(ms.target, [])
    for other in row:
        if q.leq(ms.weight, other.weight) and other.nredex <= ms.nredex:
            return  # dominated
    row[:] = [o for o in row
              if not (q.leq(o.weight, ms.weight) and ms.nredex <= o.nredex)]
    row.append(ms)


def multi_step(gsys: GradedSystem, t: Term,
               width_budget: int = 4) -> List[MultiStep]:
    """All parallel reductions of at most ``width_budget`` redexes.

    Weights follow the inductive clauses: a variable reduces to itself at
    the unit; a congruence tensors the grade-scaled argument weights; a rule
    fired at the root contributes its weight tensored with each bound
    variable's left-hand-side degree applied to that argument's multi-step
    weight.  Per target, only (weight, redex-count) Pareto optima are kept.
    Rules are looked up in the system's stepper by the node's root symbol.
    A rule whose left-hand side is a bare variable binds it to the node
    itself, whose only multi-step there is the identity.  Each distinct
    subterm is solved once, after its arguments, without recursion.
    """
    if not gsys.balanced:
        raise GradedError("multi-step reduction requires a balanced system")
    sys = gsys.system
    q = sys.quantale
    rules = gsys.stepper.forward
    memo: Dict[Term, List[MultiStep]] = {}
    stack = [t]
    while stack:
        term = stack[-1]
        if term in memo:
            stack.pop()
            continue
        if isinstance(term, Application):
            todo = [a for a in term.args if a not in memo]
            if todo:
                stack.extend(todo)
                continue
        stack.pop()
        table: Dict[Term, List[MultiStep]] = {}
        identity = MultiStep(term, q.unit, 0)
        candidates = rules.var_rules
        if isinstance(term, Variable):
            _pareto_insert(table, identity, q)
        else:
            candidates += rules.by_root.get(term.symbol.name, ())
            grades = grades_of(sys, term.symbol)
            for combo in itertools.product(*[memo[a] for a in term.args]):
                n = sum(c.nredex for c in combo)
                if n > width_budget:
                    continue
                w = q.unit
                for g, c in zip(grades, combo):
                    w = q.tensor(w, scale(q, g, c.weight))
                _pareto_insert(table, MultiStep(
                    Application(term.symbol, tuple(c.target for c in combo)),
                    w, n), q)
        for rule, fresh in candidates:
            for sigma, env, eps, rhs in _rule_matches(q, sys.grid, rule, term):
                lhs = instantiate_params(rule.lhs, env)
                bound = sorted(variables(lhs))
                # the bindings are strict subterms, solved already, or, for a
                # bare-variable left-hand side, the node itself
                arg_opts = [[identity] if sigma[x] is term else memo[sigma[x]]
                            for x in bound]
                degs = [degree_of_variable(sys, lhs, x) for x in bound]
                pool = [_fresh_variable_for(term, set(fresh))] if fresh else []
                for combo in itertools.product(*arg_opts):
                    n = 1 + sum(c.nredex for c in combo)
                    if n > width_budget:
                        continue
                    w = eps
                    for deg, c in zip(degs, combo):
                        w = q.tensor(w, scale(q, deg, c.weight))
                    tau: Dict[str, Term] = {
                        x: c.target for x, c in zip(bound, combo)}
                    for picks in itertools.product(pool, repeat=len(fresh)):
                        full = dict(tau)
                        full.update(zip(fresh, picks))
                        _pareto_insert(table, MultiStep(
                            apply_substitution(rhs, full), w, n), q)
        memo[term] = [ms for u in sorted(table, key=str) for ms in table[u]]
    return memo[t]


def multistep_targets(steps: Sequence[MultiStep], q: QuantaleSpec) -> Dict[str, MultiStep]:
    """Best (quantale-largest weight) multi-step per target term, keyed by
    the target's rendering."""
    return {term_key(u): ms for u, ms in _best_per_target(steps, q).items()}


def _best_per_target(steps: Sequence[MultiStep],
                     q: QuantaleSpec) -> Dict[Term, MultiStep]:
    best: Dict[Term, MultiStep] = {}
    for ms in steps:
        old = best.get(ms.target)
        if old is None or q.strictly_below(old.weight, ms.weight):
            best[ms.target] = ms
    return best


@dataclass(frozen=True)
class DiamondReport:
    peaks_checked: int
    peaks_closed: int
    violations: Tuple[Tuple[Term, Term, Term], ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def multistep_diamond_probe(
    gsys: GradedSystem, t: Term, width_budget: int = 4
) -> DiamondReport:
    """Check the weighted diamond for every multi-step peak out of ``t``.

    For each pair t ↻_{ε₁} t₁, t ↻_{ε₂} t₂ we must find t' with
    t₁ ↻_{δ₁} t' and t₂ ↻_{δ₂} t' whose valley tensor dominates the peak
    tensor in the quantale order (numerically δ₁+δ₂ ≤ ε₁+ε₂ on cost
    quantales).  Any failure is reported as a violation.
    """
    if not gsys.orthogonal:
        raise GradedError("diamond probe requires an orthogonal system")
    q = gsys.system.quantale
    outs = list(_best_per_target(multi_step(gsys, t, width_budget), q).values())
    closures: Dict[Term, Dict[Term, MultiStep]] = {}

    def closure(u: Term) -> Dict[Term, MultiStep]:
        if u not in closures:
            closures[u] = _best_per_target(multi_step(gsys, u, width_budget), q)
        return closures[u]

    checked = closed = 0
    violations: List[Tuple[Term, Term, Term]] = []
    for i, m1 in enumerate(outs):
        c1 = closure(m1.target)
        for m2 in outs[i:]:
            checked += 1
            c2 = closure(m2.target)
            peak = q.tensor(m1.weight, m2.weight)
            found = False
            for u, d1 in c1.items():
                d2 = c2.get(u)
                if d2 is not None and q.leq(peak, q.tensor(d1.weight, d2.weight)):
                    found = True
                    break
            if found:
                closed += 1
            else:
                violations.append((t, m1.target, m2.target))
    return DiamondReport(checked, closed, tuple(violations))


@dataclass(frozen=True)
class SubstitutionLemmaReport:
    cases_checked: int
    failures: Tuple[Tuple[Term, Term], ...]

    @property
    def holds(self) -> bool:
        return not self.failures


def substitution_lemma_probe(
    gsys: GradedSystem,
    cases: Sequence[Tuple[Term, Dict[str, Term]]],
    width_budget: int = 4,
) -> SubstitutionLemmaReport:
    """Check that multi-steps compose with substitution at the claimed grade.

    For each body e with substitution σ, every e ↻_ε f combined with
    component multi-steps σ(x) ↻_{δₓ} τ(x) must be matched in the enumerated
    multi-steps of e·σ by the target f·τ at a weight dominating
    ε ⊗ ⊗ₓ deg_x(e)(δₓ).
    """
    sys = gsys.system
    q = sys.quantale
    checked = 0
    failures: List[Tuple[Term, Term]] = []
    for body, subst in cases:
        names = sorted(variables(body) & set(subst))
        whole = apply_substitution(body, {x: subst[x] for x in names})
        combined = _best_per_target(
            multi_step(gsys, whole, width_budget), q)
        body_steps = _best_per_target(multi_step(gsys, body, width_budget), q)
        comp_steps = {x: _best_per_target(
            multi_step(gsys, subst[x], width_budget), q) for x in names}
        degs = {x: degree_of_variable(sys, body, x) for x in names}
        for f_ms in body_steps.values():
            for picks in itertools.product(
                    *(list(comp_steps[x].values()) for x in names)):
                total_redex = f_ms.nredex + sum(p.nredex for p in picks)
                if total_redex > width_budget:
                    continue
                checked += 1
                claimed = f_ms.weight
                tau: Dict[str, Term] = {}
                for x, p in zip(names, picks):
                    claimed = q.tensor(claimed, scale(q, degs[x], p.weight))
                    tau[x] = p.target
                expected = apply_substitution(f_ms.target, tau)
                hit = combined.get(expected)
                if hit is None or not q.leq(claimed, hit.weight):
                    failures.append((whole, expected))
    return SubstitutionLemmaReport(checked, tuple(failures))
