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

The same deltas also price the counts a conversion must still fix.  Where
the tensor adds and each step costs what its rule does, a conversion from
u to v that takes n_r steps of each rule r, either way, moves the counts
by d = #v − #u = Σ ±n_r δ_r and costs Σ n_r w_r.  Any y with
|y·δ_r| ≤ w_r for every rule, a point of the dual of that marking
equation's LP, then gives a cost of at least |y·d|.  ``potential`` finds
two such families of points in one pass over the rules: y = λ·1, with λ
the largest rate at which every rule pays for the size it changes, and
y = μ on the families where d is positive (or negative) and 0 elsewhere,
with μ the largest rate at which every rule pays for the larger of the
counts it adds and removes.  So every conversion costs at least
h(d) = max(λ·|P − N|, μ·max(P, N)), P and N the sums of d's positive and
negative entries (Goldberg & Harrelson, SODA 2005, use such bounds as A*
potentials), and the distance searches charge it to the branches they
prune.
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


def _occurrences(*signed: Tuple[Term, int],
                 into: Optional[Dict[object, int]] = None,
                 ) -> Dict[object, int]:
    """How often each symbol family, by name, and each variable occurs in
    the terms, each term's occurrences counted with its sign, added to
    ``into`` in place if given.  Names are strings, whose hash is cached,
    so the count of a node costs no call."""
    counts: Dict[object, int] = {} if into is None else into
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


def counts(t: Term, sign: int = 1,
           start: Optional[Dict[Family, int]] = None) -> Dict[Family, int]:
    """The family counts of ``t``, times ``sign``, added to a copy of
    ``start``; its variables are not counted."""
    out = _occurrences((t, sign), into=dict(start) if start else None)
    for v in [k for k in out if type(k) is not str]:
        del out[v]
    return out  # type: ignore[return-value]


# d(u) as a potential reads it: the family counts of u less those of the
# other end, and the sums of its positive and of its negative entries
Gap: TypeAlias = "Tuple[Dict[Family, int], int, int]"


def gap(u: Term, other: Dict[Family, int]) -> Gap:
    """d(u), the family counts of ``u`` less ``other``'s, which a side
    gets once from ``counts(other end, -1)``."""
    d = counts(u, 1, other)
    p = sum(k for k in d.values() if k > 0)
    return d, p, p - sum(d.values())


class Potential:
    """h(d) = max(λ·|P − N|, μ·max(P, N)), a lower bound on the weight of
    every conversion whose family counts change by d, P and N the sums of
    d's positive and negative entries (see the module docstring)."""

    __slots__ = ("size_rate", "count_rate", "deltas")

    def __init__(self, size_rate: Union[int, Fraction],
                 count_rate: Union[int, Fraction],
                 deltas: Dict[str, Dict[Family, int]]) -> None:
        self.size_rate = size_rate  # λ, 0 where no rule changes size
        self.count_rate = count_rate  # μ, 0 where a free rule moves counts
        self.deltas = deltas  # each rule's ``delta``, by rule id

    def __call__(self, g: Gap, move: Optional[Tuple[str, bool]] = None,
                 ) -> Union[int, Fraction]:
        """h at the gap ``g``, or, with ``move`` = (rule id, backward), at
        the gap of the term a step of that rule in that direction makes
        from it, read off the rule's delta in O(|delta|)."""
        d, p, n = g
        if move is not None:
            rid, backward = move
            for f, k in self.deltas[rid].items():
                old = d.get(f, 0)
                new = old - k if backward else old + k
                p += max(new, 0) - max(old, 0)
                n += max(-new, 0) - max(-old, 0)
        h = self.count_rate * max(p, n)
        s = self.size_rate * abs(p - n)
        return s if s > h else h


def _rate(least: Optional[Tuple[object, int]]) -> Union[int, Fraction]:
    """w/c of the pair (w, c), an ``int`` when integral; 0 for ``None``."""
    if least is None:
        return 0
    w, c = least
    if type(w) is int and w % c == 0:
        return w // c
    rate = Fraction(w) / c
    return int(rate) if rate.denominator == 1 else rate


def potential(rules: Sequence) -> Optional[Potential]:
    """The ``Potential`` of ``rules``, each with a ``delta`` and a rational
    weight w, or ``None`` when some ``delta`` is ``None`` or neither rate
    is positive.  One pass over the rules finds both rates: λ the largest
    with λ·|P_r − N_r| ≤ w_r and μ the largest with μ·max(P_r, N_r) ≤ w_r
    for every rule r, P_r and N_r the sums of its delta's positive and
    negative entries.  A rate no rule constrains is 0.  Each rule caches
    its delta, so a copy of a system pays one pass over its rules."""
    size = count = None  # the least ratios (w, c) of w/c, compared crosswise
    deltas = {}
    for rule in rules:
        delta = rule.delta
        if delta is None:
            return None
        deltas[rule.rid] = delta
        w = rule.weight
        p = n = 0
        for k in delta.values():
            if k > 0:
                p += k
            else:
                n -= k
        c = p - n if p > n else n - p
        if c and (size is None or w * size[1] < size[0] * c):
            size = (w, c)
        c = p if p > n else n
        if c and (count is None or w * count[1] < count[0] * c):
            count = (w, c)
    lam, mu = _rate(size), _rate(count)
    if not (lam or mu):
        return None
    return Potential(lam, mu, deltas)
