"""Symbol-count invariants: unreachability proved without a search.

Take a rule in which every variable occurs as often on the right as on the
left.  A step replaces an instance of one side by the same instance of the
other, so what the variables bind cancels, and the step changes the term's
count of each symbol family, keyed by name whatever the parameters, by a
vector fixed by the rule: its ``delta``, or its negation
for a backward step.  Any vector orthogonal to every rule's delta, an
*invariant*, then takes one value along every conversion, valley or
reduction, and two terms on which some invariant differs have none between
them.  This is the marking-equation invariant of Petri nets (Murata,
"Petri nets: properties, analysis and applications", Proc. IEEE 1989) in
its rational-span form.  Weights, grades, conditions and the quantale play
no part, nor do the parameter values a schema instance picks.

``basis`` solves for an integer basis of the invariants by exact
elimination over the integers, and ``RewriteSystem.invariants`` keeps it
(``None`` when some rule erases, duplicates or invents a variable).
``differ`` reads two terms' counts off one walk each, without recursion;
every distance search asks it first.

The same deltas also price a term's size.  A step changes it by the sum
of its delta, Δ, fixed by the rule up to sign.  Where the tensor adds and
each step costs what its rule does, at least λ·|Δ|, every conversion
from u to v costs at least λ·|size(u) − size(v)|.  ``size_rate`` finds the largest such λ,
and the distance searches charge it to the branches they prune.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Optional, Sequence, Tuple, TypeAlias, Union

from .term import Application, Term, Variable

# a symbol family's name, the key of a symbol count.  A signature gives each
# name one arity; a symbol of another arity under the name, which no step
# makes or removes, occurs as often at both ends of any conversion, so
# counting it with the family changes no difference
Family: TypeAlias = str


def _occurrences(*signed: Tuple[Term, int]) -> Dict[object, int]:
    """How often each symbol family, by name, and each variable occurs in
    the terms, each term's occurrences counted with its sign.  Names are
    strings, whose hash is cached, so the count of a node costs no call."""
    counts: Dict[object, int] = {}
    get = counts.get
    for root, sign in signed:
        stack = [root]
        pop = stack.pop
        while stack:
            u = pop()
            # down a chain of unary applications without the stack
            while type(u) is Application:
                name = u.symbol.name
                counts[name] = get(name, 0) + sign
                args = u.args
                if len(args) != 1:
                    stack += args
                    break
                u = args[0]
            else:
                counts[u] = get(u, 0) + sign  # a variable
    return counts


def delta(lhs: Term, rhs: Term) -> Optional[Dict[Family, int]]:
    """The family counts of ``rhs`` less those of ``lhs``, nonzero only, or
    ``None`` when some variable occurs more often on one side."""
    counts = _occurrences((lhs, -1), (rhs, 1))
    if any(n for v, n in counts.items() if isinstance(v, Variable)):
        return None
    return {f: n for f, n in counts.items() if n}


def _eliminate(row: Dict[Family, int], pivot: Dict[Family, int],
               c: Family) -> Dict[Family, int]:
    """``row`` scaled, less ``pivot`` scaled, so that column ``c`` clears;
    nonzero entries only, divided by their gcd."""
    a, p = row[c], pivot[c]
    out = {k: v * p for k, v in row.items()}
    for k, v in pivot.items():
        out[k] = out.get(k, 0) - v * a
    out = {k: v for k, v in out.items() if v}
    g = gcd(*out.values())
    return {k: v // g for k, v in out.items()}


def basis(columns: Sequence[Family],
          deltas: Sequence[Dict[Family, int]]) -> Tuple[Dict[Family, int], ...]:
    """An integer basis of the vectors y over ``columns`` with y·d = 0 for
    every sparse integer row d of ``deltas``, each vector its nonzero
    entries.  Rows that are zero, or a multiple of an earlier row, are
    dropped before the elimination."""
    order = {c: i for i, c in enumerate(columns)}
    distinct: Dict[frozenset, Dict[Family, int]] = {}
    for row in deltas:
        if row:
            g = gcd(*row.values())
            if row[min(row, key=order.__getitem__)] < 0:
                g = -g
            row = {k: v // g for k, v in row.items()}
            distinct.setdefault(frozenset(row.items()), row)
    # pivot column -> its row; each row is zero on every other pivot column
    pivots: Dict[Family, Dict[Family, int]] = {}
    for row in distinct.values():
        for c, prow in pivots.items():
            if c in row:
                row = _eliminate(row, prow, c)
        if not row:
            continue
        c = min(row, key=order.__getitem__)
        for c2, prow in pivots.items():
            if c in prow:
                pivots[c2] = _eliminate(prow, row, c)
        pivots[c] = row
    out = []
    for f in columns:
        if f in pivots:
            continue
        # y_f = m, and each pivot row r fixes y_c = -r_f * m / r_c
        on_f = [(c, prow) for c, prow in pivots.items() if f in prow]
        m = lcm(*(prow[c] for c, prow in on_f))
        y = {f: m}
        for c, prow in on_f:
            y[c] = -prow[f] * m // prow[c]
        g = gcd(*y.values())
        out.append({k: v // g for k, v in y.items()})
    return tuple(out)


def differ(invariants: Optional[Tuple[Dict[Family, int], ...]],
           s: Term, t: Term) -> bool:
    """Whether some vector of ``invariants``, a ``basis`` or ``None``,
    takes different values on the family counts of ``s`` and of ``t``; if
    so, no conversion joins them."""
    if not invariants:
        return False
    diff = _occurrences((s, -1), (t, 1))
    return any(sum(y.get(k, 0) * n for k, n in diff.items())
               for y in invariants)


def size_rate(rules: Sequence) -> Optional[Union[int, Fraction]]:
    """The largest λ with λ·|Δ| ≤ w for every rule of ``rules``, each with
    a ``delta`` and a rational weight w, Δ the sum of its ``delta``: an
    ``int`` when integral, ``None`` when some ``delta`` is ``None``, no
    rule changes size, or λ = 0.  Each rule caches its delta, so a copy
    of a system pays one pass over its rules."""
    w, d = None, 1  # the least ratio w/|Δ|, compared crosswise
    for rule in rules:
        delta = rule.delta
        if delta is None:
            return None
        change = abs(sum(delta.values()))
        if change and (w is None or rule.weight * d < w * change):
            w, d = rule.weight, change
    if not w:
        return None
    rate = Fraction(w) / d
    return int(rate) if rate.denominator == 1 else rate
