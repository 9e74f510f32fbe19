"""Graded rewriting: parallel multi-steps, the weighted multi-step diamond
probe and the substitution-lemma probe, over a rewrite system's grades.

Grades, degrees, ``scale`` and the balance and orthogonality checks live in
``qtrw.qtrs`` beside the symbol families; this module imports what it uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .quantale import QuantaleSpec, Value
from .term import (
    Application,
    Term,
    Variable,
    apply_substitution,
    instantiate_params,
    variables,
)
from .qtrs import (
    GradedError,
    RewriteSystem,
    _best_per_target,
    _invented,
    _rule_matches,
    degree_of_variable,
    grades_of,
    scale,
)


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


def multi_step(sys: RewriteSystem, t: Term,
               width_budget: int = 4) -> List[MultiStep]:
    """All parallel reductions of at most ``width_budget`` redexes.

    Weights follow the inductive clauses: a variable reduces to itself at
    the unit; a congruence tensors the grade-scaled argument weights; a rule
    fired at the root contributes its weight tensored with each bound
    variable's left-hand-side degree applied to that argument's multi-step
    weight.  Per target, only (weight, redex-count) Pareto optima are kept.
    Rules are looked up in the system's ``forward`` index by the node's
    root symbol.
    A rule whose left-hand side is a bare variable binds it to the node
    itself, whose only multi-step there is the identity.  Each distinct
    subterm is solved once, after its arguments, without recursion.
    """
    if not sys.balanced:
        raise GradedError("multi-step reduction requires a balanced system")
    q = sys.quantale
    rules = sys.forward
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
        for rule in candidates:
            for sigma, env, eps, rhs, _ in _rule_matches(q, sys.grid, rule,
                                                          term):
                lhs = instantiate_params(rule.lhs, env)
                bound = sorted(variables(lhs))
                # the bindings are strict subterms, solved already, or, for a
                # bare-variable left-hand side, the node itself
                arg_opts = [[identity] if sigma[x] is term else memo[sigma[x]]
                            for x in bound]
                degs = [degree_of_variable(sys, lhs, x) for x in bound]
                for combo in itertools.product(*arg_opts):
                    n = 1 + sum(c.nredex for c in combo)
                    if n > width_budget:
                        continue
                    w = eps
                    for deg, c in zip(degs, combo):
                        w = q.tensor(w, scale(q, deg, c.weight))
                    tau: Dict[str, Term] = {
                        x: c.target for x, c in zip(bound, combo)}
                    for u in (_invented(term, None, rule.fresh, tau, rhs)
                              if rule.fresh
                              else (apply_substitution(rhs, tau),)):
                        _pareto_insert(table, MultiStep(u, w, n), q)
        memo[term] = [ms for u in sorted(table, key=str) for ms in table[u]]
    return memo[t]


@dataclass(frozen=True)
class DiamondReport:
    peaks_checked: int
    peaks_closed: int
    violations: Tuple[Tuple[Term, Term, Term], ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def multistep_diamond_probe(
    sys: RewriteSystem, t: Term, width_budget: int = 4
) -> DiamondReport:
    """Check the weighted diamond for every multi-step peak out of ``t``.

    For each pair t ↻_{ε₁} t₁, t ↻_{ε₂} t₂ we must find t' with
    t₁ ↻_{δ₁} t' and t₂ ↻_{δ₂} t' whose valley tensor dominates the peak
    tensor in the quantale order (numerically δ₁+δ₂ ≤ ε₁+ε₂ on cost
    quantales).  Any failure is reported as a violation.
    """
    if not sys.orthogonal:
        raise GradedError("diamond probe requires an orthogonal system")
    q = sys.quantale
    outs = list(_best_per_target(multi_step(sys, t, width_budget), q).values())
    closures = {m.target: _best_per_target(
        multi_step(sys, m.target, width_budget), q) for m in outs}
    checked = 0
    violations: List[Tuple[Term, Term, Term]] = []
    for i, m1 in enumerate(outs):
        c1 = closures[m1.target]
        for m2 in outs[i:]:
            checked += 1
            c2 = closures[m2.target]
            peak = q.tensor(m1.weight, m2.weight)
            if not any(u in c2 and q.leq(peak, q.tensor(d1.weight, c2[u].weight))
                       for u, d1 in c1.items()):
                violations.append((t, m1.target, m2.target))
    return DiamondReport(checked, checked - len(violations), tuple(violations))


@dataclass(frozen=True)
class SubstitutionLemmaReport:
    cases_checked: int
    failures: Tuple[Tuple[Term, Term], ...]

    @property
    def holds(self) -> bool:
        return not self.failures


def substitution_lemma_probe(
    sys: RewriteSystem,
    cases: Sequence[Tuple[Term, Dict[str, Term]]],
    width_budget: int = 4,
) -> SubstitutionLemmaReport:
    """Check that multi-steps compose with substitution at the claimed grade.

    For each body e with substitution σ, every e ↻_ε f combined with
    component multi-steps σ(x) ↻_{δₓ} τ(x) must be matched in the enumerated
    multi-steps of e·σ by the target f·τ at a weight dominating
    ε ⊗ ⊗ₓ deg_x(e)(δₓ).
    """
    q = sys.quantale
    checked = 0
    failures: List[Tuple[Term, Term]] = []
    for body, subst in cases:
        names = sorted(variables(body) & set(subst))
        whole = apply_substitution(body, {x: subst[x] for x in names})
        combined = _best_per_target(
            multi_step(sys, whole, width_budget), q)
        body_steps = _best_per_target(multi_step(sys, body, width_budget), q)
        comp_steps = {x: _best_per_target(
            multi_step(sys, subst[x], width_budget), q) for x in names}
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
