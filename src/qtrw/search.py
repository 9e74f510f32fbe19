"""Metric word problems as budgeted best-first searches.

All searches run over the system's one-step relation, accumulate
weights by tensor, and compare by the quantale order — so on cost quantales
they are ordinary shortest-path searches.  Answers are conservative: an
exact claim is made only when no pruned branch could still beat the
returned value; otherwise the best witness is returned as an upper bound.
A meet search charges each pruned branch, besides its weight, for the
symbol counts it must still fix: on a system with a ``potential`` h, a run
from u to v costs at least h(#u − #v), the count vectors' difference priced
by the rates at which the rules change size and counts
(``qtrw.invariants``), so a branch pruned at u costs at least that much
more on its way to the other end (``_SideSearch``).  So a meet as heavy as
the pruned branches' exits is exact, though the search never looked past
the cap.  A branch pruned past the cap ends in a term no side labels, so a
better conversion through it either takes a step from there to the other
side's part, or is met past the cap: both sides step into that one term.
The proof builds those steps of the few branches cheap enough to make such
a meet, to look for one (``_meets_past_limit``); with none, each pruned
branch is a step further from the other side.  The same potential breaks
ties: of two frontier terms of one weight, a side expands first the one
whose counts are cheaper to fix, as A* would, so a search meets sooner
and its cost varies less with the strings; the weight order every proof
rests on stays.
An ``unreachable`` answer is a proof too: either a symbol-count invariant
of the system tells the two terms apart (``qtrw.invariants``), which every
search checks first, under any budget and with no expansion, or a search
ran out of terms without pruning any (a directed search under a weight
cutoff asks only then whether its cutoff pruned a step).

Steps come from ``qtrw.qtrs.one_step``: backward steps are forward steps of
the inverted rules, so variables a rule's right-hand side erases are
instantiated from a candidate pool drawn from the query terms' subterms.
Each term's deduplicated step list, the ``RewriteStep``s the search relaxes,
is cached in the system (``RewriteSystem.relaxations``), so repeated
queries over a shared state space amortize; a directed search under a
weight cutoff instead asks for the steps in bounds only, uncached.  No
search builds a step to a term larger than its term-size cap and both of
its ends (``_skip_limit``): no label holds such a term, so only the best
weight of such steps of each rule and direction counts, as a pruned
branch, until a meet search's proof asks for the few it needs, which the
term's entry in the cache (``_Relaxed``) then keeps too.  The same
records, each with its rule, position, direction and weight, make up an
answer's witness.

Each step is generated once per query.  A query owns one redex memo, shared
by both of its frontiers and dropped with it, so a subterm common to many
expanded terms is matched against the rules once per direction.  A system
closed under inversion (``RewriteSystem.self_inverse``, such as the Hamming and
Levenshtein systems) has a forward twin, as good, for every backward step;
its conversion search generates forward steps only, with the same answers
and witnesses, and shares its cached step lists with valley searches.

Distances between two terms search from both ends at once (``_meet_search``).
A term labelled by both sides is a meet, checked when its second label is
set, so the best meet is known at every round.  A conversion search stops
once no unseen meet can win.  A better conversion would still have a term
live on each side with at least one step between them, and a run of steps
weighs no more, in the quantale order, than the cheapest step
(``RewriteSystem.cheapest_step``: 1 on the Hamming and Levenshtein systems, the
unit wherever a step may be free).  So the bound is the tensor of the two
frontier minima with the cheapest step between them.  A
valley search joins two forward runs at a common reduct that one side may
have settled cheaply long before the other reaches it, so its bound is the
join of the two sides' bounds, not their tensor.  Branches the budget pruned
enter both bounds, so an exact answer stays a proof; the case argument is
in ``_meet_search``'s docstring.

Terms are hash-consed (see ``qtrw.term``), so the searches key their
labels and the step cache by the terms themselves.  A label holds the step
that set it, and a witness is read back through the labels of the steps'
sources.  The rendering is taken only where it fixes an order (steps sorted
by target) or leaves the library (``normalize``'s sorted normal forms).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, replace
from itertools import islice
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    TypeAlias)

from .quantale import QuantaleError, QuantaleSpec, Value
from .term import Term, term_size
from .qtrs import (RedexMemo, RewriteStep, RewriteSystem, _best_per_target,
                   _Skip, _targets, _Unbuilt, one_step, subterm_pool)
from . import invariants

EXACT = "exact"
UPPER_BOUND = "upper-bound"
UNREACHABLE = "unreachable"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SearchBudget:
    max_expanded: int = 20000
    max_depth: int = 50
    weight_cutoff: Optional[Value] = None
    max_term_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_expanded <= 0 or self.max_depth <= 0:
            raise ValueError("budget bounds must be positive")
        if self.max_term_size is not None and self.max_term_size <= 0:
            raise ValueError("budget bounds must be positive")


@dataclass(frozen=True)
class DistanceAnswer:
    kind: str
    value: Optional[Value]
    witness: Tuple[RewriteStep, ...]
    expanded: int = 0

    def to_json(self, fmt: Callable[[Value], str]) -> str:
        """The answer as JSON, each weight rendered by ``fmt``, the
        quantale's ``format_value``."""
        return json.dumps({
            "kind": self.kind,
            "value": None if self.value is None else fmt(self.value),
            "witness": [
                {
                    "direction": w.direction,
                    "position": list(w.position),
                    "rule": w.rule_id,
                    "weight": fmt(w.weight),
                }
                for w in self.witness
            ],
        })


@dataclass(eq=False, slots=True)
class _Relaxed:
    """One term's entry in the step cache (``_relaxations``): the ``steps``
    a search relaxes; the best weight of the steps left unbuilt past the
    term-size limit, per (rule id, backward) (``past``); the same for the
    steps whose invented variables the pool fills (``invented``), as one
    that invents a term outside the pool is left unbuilt too; and the
    steps past the limit, built by ``_steps_past`` the first time a proof
    asks (``beyond``), so never where ``past`` is empty."""
    steps: List[RewriteStep]
    past: Tuple[_Unbuilt, ...] = ()
    invented: Tuple[_Unbuilt, ...] = ()
    beyond: Optional[List[RewriteStep]] = None

    @classmethod
    def of(cls, steps: List[RewriteStep],
           over: Dict[Tuple[object, ...], Value],
           q: QuantaleSpec) -> "_Relaxed":
        """The entry of ``steps``, ``one_step``'s unbuilt moves ``over``
        split by key: (rule id, backward) past the limit, else invented."""
        if not over:
            return cls(_by_target(steps, q))
        return cls(_by_target(steps, q),
                   tuple((m, w) for m, w in over.items() if len(m) == 2),
                   tuple((m[:2], w) for m, w in over.items() if len(m) > 2))


def _relaxations(sys: RewriteSystem, symmetric: bool, t: Term,
                 pool: Sequence[Term], memo: Optional[RedexMemo] = None,
                 limit: Optional[int] = None) -> _Relaxed:
    """The entry (``_Relaxed``) of the steps from ``t``, backward ones too
    if ``symmetric``, deduplicated per target (best weight kept) and
    ordered by target rendering, less the steps to targets of more than
    ``limit`` symbols, which are never built.  ``memo`` is the query's
    redex memo.

    The first best step per target is kept and forward steps come first,
    so on a self-inverse system backward steps never win, and are neither
    generated nor keyed apart.

    The entry is cached in ``sys.relaxations`` under the key (symmetric,
    t), with the pool's terms added when some rule invents variables, if
    the limit left nothing out: that is the full list, which serves every
    limit.  Otherwise it is cached under (that key, limit).  The full
    list is looked up first, so queries under different limits share the
    lists of every term no limit cuts, such as all Hamming terms.

    Meet searches and cutoff-free directed searches relax these lists.  A
    directed search under a weight cutoff builds no step its cutoff
    prunes, not even to ask at the end whether it pruned one
    (``_SideSearch._steps_within`` and ``pruned_out_of_bounds``)."""
    if symmetric and sys.self_inverse:
        symmetric = False
    key: Tuple[object, ...] = (symmetric, t)
    # the pool only fills variables a rule invents; otherwise steps ignore it
    if sys.forward.invents or (symmetric and sys.backward.invents):
        key += (tuple(pool),)
    cache = sys.relaxations
    entry = cache.get(key)
    if entry is None and limit is not None:
        entry = cache.get((key, limit))
    if entry is None:
        over: Dict[Tuple[object, ...], Value] = {}
        steps = one_step(sys, t, pool, memo=memo, max_size=limit,
                         _oversized=over)
        if symmetric:
            steps += one_step(sys, t, pool, backward=True, memo=memo,
                              max_size=limit, _oversized=over)
        entry = _Relaxed.of(steps, over, sys.quantale)
        cache[(key, limit) if entry.past else key] = entry
    return entry


def _skip_limit(budget: SearchBudget, s: Term, t: Term) -> Optional[int]:
    """The term size past which a search from ``s`` and ``t`` builds no
    step: the budget's term-size cap, raised to the size of either end.

    A step past the cap is pruned, and only its weight enters the prune
    accounting; but a meet search checks each pruned target against the
    other side's labels, which hold terms within the cap and the other
    side's start, which may be larger.  No term past all three is ever
    labelled, so a step to one is pruned by its weight alone, and is not
    built.  A step up to this limit but past the cap is built, and pruned
    in ``_SideSearch.pop``."""
    cap = budget.max_term_size
    return None if cap is None else max(cap, term_size(s), term_size(t))


def _by_target(steps: List[RewriteStep],
               q: QuantaleSpec) -> List[RewriteStep]:
    """The first best of ``steps`` to each target, ordered by target
    rendering."""
    best = _best_per_target(steps, q)
    return [best[u] for u in sorted(best, key=str)]


class _Meets:
    """The meets of a bidirectional search, checked whenever either side
    labels a term the other side has labelled.

    ``best`` holds the best total and its meet.  ``across_cut`` is the best
    total of a meet one pruned step away: a side pruned a step into a term
    the other side had labelled.  It is the weight of a real conversion (or
    valley) that the budget keeps out of the search, so no answer worse
    than it may be called exact.
    """

    def __init__(self, q: QuantaleSpec) -> None:
        self.q = q
        self.best: Optional[Tuple[Value, Term]] = None
        self.across_cut: Optional[Value] = None

    def offer(self, total: Value, meet: Term) -> None:
        if self.best is None or self.q.strictly_below(self.best[0], total):
            self.best = (total, meet)

    def cut(self, total: Value) -> None:
        if self.across_cut is None or self.q.strictly_below(
                self.across_cut, total):
            self.across_cut = total


# a term's label: best weight, depth and last step (``None`` at the start);
# a string, as ``typing`` would cache the alias with this import's classes
_Label: TypeAlias = "Tuple[Value, int, Optional[RewriteStep]]"


class _SideSearch:
    """One uniform-cost frontier with budget pruning and prune accounting.

    ``dist`` holds one ``_Label`` per term, and ``path`` reads its steps
    back through the labels of their sources.  A label is set only while
    its step's source is expanded, and that source is settled: popped at
    its final label, as pops follow the quantale order and, by integrality
    (``a (x) b <= a``), no popped label is ever strictly improved.  A heap
    entry holds the label it was pushed with, and is stale once the term's
    label is another.

    ``best_pruned`` tracks the quantale-largest accumulated weight among
    pruned branches; no unexplored continuation can beat it, so it bounds
    what the truncated region might still contain.  ``limit`` is the
    search's ``_skip_limit``: ``one_step`` builds no step past it, and
    reports the best weight it skipped instead.  In a meet search,
    ``opposite`` is the other side's table of labels and ``meets`` the
    search's shared meets; every label this side sets or cuts is checked
    against ``opposite`` at once.

    A meet search also names the ``other`` end.  Where the system has a
    ``potential`` h, ``best_exit`` tracks the join, over the pruned
    branches, of g (x) h(d(u)): g the branch's weight, u its term and d(u)
    the family counts of u less those of ``other``, which a run on to
    ``other`` must still fix at a cost of at least h(d(u)).  u is the
    pruned target or the term at the depth limit.  A pruned step from x
    moves the counts by its rule's delta, so d(u) is d(x) plus that delta,
    signed by the step's direction: the steps ``limit`` leaves unbuilt are
    charged by their rule and direction alone.  d(x) is read off x only
    when some branch from x could still lower ``best_exit``.

    A heap entry is keyed by its weight's ``sort_key``, then, with a
    ``potential``, by h at the term's gap, read off its source's gap and
    its step's rule, then by the order pushed.

    ``best_pruned_within`` is ``best_pruned`` over the branches not left
    unbuilt past ``limit``, which alone may end in a term the other side
    labels.  A meet search lists the terms it expanded with steps left
    unbuilt past it, and their weights and entries, for
    ``_meets_past_limit``, which builds those of the cheapest into ``beyond``.

    A step that invents a variable builds only the pool's picks for it,
    so each such redex is charged as a pruned branch of its weight, within
    the limit.  In a conversion search where some rule invents, each side
    keeps the targets it pruned, with their best branch weights
    (``cut_into``), and a label set on a term the other side pruned into
    cuts that meet, as a prune that finds its target labelled does.
    Where steps invent in both directions (``loose``), a side charges an
    invented step as a prune by depth at the term it leaves instead; see
    ``_meet_search``.
    """

    def __init__(
        self,
        sys: RewriteSystem,
        start: Term,
        symmetric: bool,
        pool: Sequence[Term],
        budget: SearchBudget,
        memo: RedexMemo,
        limit: Optional[int],
        meets: Optional[_Meets] = None,
        other: Optional[Term] = None,
    ) -> None:
        self.sys = sys
        self.q = sys.quantale
        if not self.q.totally_ordered:
            raise QuantaleError(
                "uniform-cost search needs a totally ordered quantale")
        self.symmetric = symmetric
        self.pool = pool
        self.budget = budget
        self.memo = memo
        self.limit = limit
        self.meets = meets
        self.dist: Dict[Term, _Label] = {}
        self.opposite: Dict[Term, _Label] = {}
        # see the class docstring on steps that invent variables
        invents = (meets is not None and symmetric and not sys.self_inverse
                   and (sys.forward.invents, sys.backward.invents))
        self.cut_into: Optional[Dict[Term, Value]] = (
            {} if invents and any(invents) else None)
        self.opposite_cut: Dict[Term, Value] = {}
        self.loose = bool(invents) and all(invents)
        self.best_pruned: Optional[Value] = None
        self.best_pruned_within: Optional[Value] = None
        self.best_exit: Optional[Value] = None
        # the terms expanded with steps past ``limit`` left unbuilt, with
        # their labels' weights and entries, in the order expanded; the
        # targets of those steps, with the best branch weight into each,
        # built by ``_meets_past_limit`` for the first ``_beyond_read``
        self._unbuilt_from: List[Tuple[Value, Term, _Relaxed]] = []
        self.beyond: Dict[Term, Value] = {}
        self._beyond_read = 0
        self.potential = None if other is None else sys.potential
        self.other = other
        # read on first use: the other end's counts, negated so that
        # ``invariants.gap`` subtracts them, and the last term whose gap
        # was read, with that gap
        self._other_counts: Optional[Dict[invariants.Family, int]] = None
        self._gap: Tuple[Optional[Term], Optional[invariants.Gap]] = (None,
                                                                       None)
        self._heap: List[Tuple[object, object, int, Term, _Label]] = []
        self._seq = 0
        self._push(start, (self.q.unit, 0, None))

    def _push(self, term: Term, label: _Label, tie: object = 0) -> None:
        self.dist[term] = label
        heapq.heappush(self._heap, (self.q.sort_key(label[0]), tie,
                                    self._seq, term, label))
        self._seq += 1

    def _gap_of(self, term: Term) -> invariants.Gap:
        """d(term), kept for the last term it was read for."""
        if self._gap[0] is not term:
            if self._other_counts is None:
                self._other_counts = invariants.counts(self.other, -1)
            self._gap = (term, invariants.gap(term, self._other_counts))
        return self._gap[1]  # type: ignore[return-value]

    def path(self, term: Term) -> List[RewriteStep]:
        """The steps of ``term``'s label, from the start term to ``term``."""
        steps = []
        step = self.dist[term][2]
        while step is not None:
            steps.append(step)
            step = self.dist[step.source][2]
        steps.reverse()
        return steps

    def _note_pruned(self, w: Value, at: Optional[Term] = None,
                     move: Optional[Tuple[str, bool]] = None,
                     past_limit: bool = False) -> None:
        """Note a branch pruned at weight ``w`` into the term ``at``, or,
        with ``move`` = (rule id, backward), into the term a step of that
        rule in that direction makes from ``at``; ``past_limit`` if that
        step was left unbuilt past ``limit``.  Only a search without a
        ``potential`` may leave ``at`` out."""
        sb = self.q.strictly_below
        if self.best_pruned is None or sb(self.best_pruned, w):
            self.best_pruned = w
        if not past_limit and (self.best_pruned_within is None
                               or sb(self.best_pruned_within, w)):
            self.best_pruned_within = w
        h = self.potential
        # a potential means the tensor adds: a weight is a cost, lower is
        # better, and h >= 0, so only a branch below best_exit can lower it
        if h is not None and (self.best_exit is None or w < self.best_exit):
            e = w + h(self._gap_of(at), move)
            if self.best_exit is None or e < self.best_exit:
                self.best_exit = e

    def frontier_bound(self) -> Optional[Value]:
        """Quantale-largest weight of a live frontier term, the only terms
        left to explore; ``None`` once there are none."""
        heap, dist = self._heap, self.dist
        while heap and dist[heap[0][3]] is not heap[0][4]:
            heapq.heappop(heap)
        return heap[0][4][0] if heap else None

    def pop(self) -> Optional[Term]:
        """Pop and expand the best frontier term; returns it.

        A step out of bounds is pruned: its weight enters ``best_pruned``,
        and in a meet search its target is checked against ``opposite``.
        Steps past ``limit`` are never built, as no ``opposite`` holds
        their targets; the best of their weights is noted once per term for
        each rule and direction, which notes them all, as the tensor
        distributes over joins and the steps of one rule and direction
        move the counts alike.  So are the steps whose invented variables
        no pool pick fills (see the class docstring).  A one-sided search
        (no ``meets``) with a weight cutoff neither relaxes nor notes a
        step its cutoff prunes, so it asks ``one_step`` for the steps in
        bounds only (``_steps_within``)."""
        q = self.q
        tensor, sb = q.tensor, q.strictly_below
        dist = self.dist
        opposite, meets = self.opposite, self.meets
        opposite_cut = self.opposite_cut
        cutoff = self.budget.weight_cutoff
        max_size = self.budget.max_term_size
        h = self.potential
        while self._heap:
            term, label = heapq.heappop(self._heap)[3:]
            if dist[term] is not label:
                continue
            w, depth, _ = label
            if depth >= self.budget.max_depth:
                self._note_pruned(w, term)
                return term
            if meets is None and cutoff is not None:
                entry = self._steps_within(term, w, cutoff)
            else:
                entry = _relaxations(self.sys, self.symmetric, term,
                                     self.pool, self.memo, self.limit)
            for move, uw in entry.past:
                self._note_pruned(tensor(w, uw), term, move, True)
            for _, uw in entry.invented:
                if self.loose:  # as if pruned by depth here
                    self._note_pruned(w, term)
                else:  # no rule that invents has a potential
                    self._note_pruned(tensor(w, uw))
            if entry.past and meets is not None:
                self._unbuilt_from.append((w, term, entry))
            for step in entry.steps:
                target = step.target
                nw = tensor(w, step.weight)
                if ((cutoff is not None and sb(nw, cutoff))
                        or (max_size is not None
                            and term_size(target) > max_size)):
                    self._note_pruned(nw, term, (step.rule_id,
                                                 step.direction == "backward"))
                    if target in opposite:
                        meets.cut(tensor(nw, opposite[target][0]))
                    if self.cut_into is not None:
                        old = self.cut_into.get(target)
                        if old is None or sb(old, nw):
                            self.cut_into[target] = nw
                    continue
                old = dist.get(target)
                if old is not None and not sb(old[0], nw):
                    continue
                self._push(target, (nw, depth + 1, step), 0 if h is None
                           else h(self._gap_of(term), (
                               step.rule_id, step.direction == "backward")))
                if target in opposite:
                    meets.offer(tensor(nw, opposite[target][0]), target)
                if opposite_cut and target in opposite_cut:
                    meets.cut(tensor(nw, opposite_cut[target]))
            return term
        return None

    def _steps_within(self, term: Term, w: Value, cutoff: Value) -> _Relaxed:
        """The entry (``_Relaxed``) of the forward steps from ``term``,
        popped at ``w``, that the weight cutoff and ``limit`` keep, as
        ``_relaxations`` would order them.

        ``one_step`` builds no step out of bounds and keeps the unbounded
        steps in order (see ``one_step``), so the same steps are relaxed
        in the same order.  A step the cutoff prunes weighs less than the
        cutoff, which every label meets, so it is not noted: it can make
        no answer inexact, and ``pruned_out_of_bounds`` tells whether there
        is one.  A step in bounds but past ``limit`` is skipped unbuilt,
        and its weight noted.  The list depends on ``w``, so it is not
        cached; a one-sided search expands each term once per query and
        loses no cache hit."""
        over: Dict[Tuple[object, ...], Value] = {}
        return _Relaxed.of(
            one_step(self.sys, term, self.pool, memo=self.memo,
                     within=(w, cutoff), max_size=self.limit,
                     _oversized=over), over, self.q)

    def pruned_out_of_bounds(self) -> bool:
        """Whether the weight cutoff pruned a step, from a term this side
        expanded, to a target none of that term's kept steps reaches, a
        branch ``_steps_within`` does not note.  Read once the frontier is
        empty with nothing pruned, each labelled term expanded at its
        final label.  Each term is stepped again at its label, and the
        targets of the redexes ``one_step`` skips are built one at a time
        (``_targets``), until one is new.  A side that relaxes every step
        (``_relaxations``) notes every prune, and answers no."""
        cutoff = self.budget.weight_cutoff
        if self.meets is not None or cutoff is None:
            return False
        for u, (w, _, _) in self.dist.items():
            skipped: List[_Skip] = []
            kept = {step.target for step in one_step(
                self.sys, u, self.pool, memo=self.memo, within=(w, cutoff),
                _skipped=skipped, max_size=self.limit)}
            if any(v not in kept for p, redex in skipped
                   for v in _targets(u, p, redex, self.pool)):
                return True
        return False

    def truncated(self) -> bool:
        return self.best_pruned is not None


def reduction_distance(
    sys: RewriteSystem, s: Term, t: Term, budget: SearchBudget = SearchBudget()
) -> DistanceAnswer:
    """Best accumulated weight of a rewrite path from ``s`` to ``t``.

    One frontier searches forward from ``s``.  Under a weight cutoff, no
    other side looks a pruned step's target up, and its weight is below
    the cutoff, so below the label of ``t`` too: it never makes an answer
    inexact.  So ``one_step`` builds no step out of bounds, and on a
    system without grades matches no rule at a subterm whose root's rules
    cannot fire in bounds (``_SideSearch._steps_within``).  Only when the
    search runs out of terms with nothing else pruned does it ask whether
    the cutoff pruned a step to a new target
    (``_SideSearch.pruned_out_of_bounds``): if so, the answer is
    ``budget-exhausted``, not ``unreachable``.  The answers are those of
    relaxing every step and pruning afterwards.

    First, a symbol-count invariant that differs on ``s`` and ``t``
    (``invariants.differ``) proves the answer ``unreachable`` after no
    expansion, under any budget: every step moves the counts by a vector
    the invariant is orthogonal to."""
    if invariants.differ(sys.invariants, s, t):
        return DistanceAnswer(UNREACHABLE, None, (), 0)
    pool = subterm_pool(s, t)
    side = _SideSearch(sys, s, False, pool, budget, {},
                       _skip_limit(budget, s, t))
    expanded, popped = 0, False  # popped: t popped, at its final label
    while not popped and expanded < budget.max_expanded:
        u = side.pop()
        if u is None:
            break
        expanded += 1
        popped = u == t
    if t in side.dist:
        w = side.dist[t][0]
        # a pruned branch might still have beaten t's final label
        exact = popped and (side.best_pruned is None
                            or not side.q.strictly_below(w, side.best_pruned))
        return DistanceAnswer(EXACT if exact else UPPER_BOUND, w,
                              tuple(side.path(t)), expanded)
    if (side.frontier_bound() is None and not side.truncated()
            and not side.pruned_out_of_bounds()):
        return DistanceAnswer(UNREACHABLE, None, (), expanded)
    return DistanceAnswer(BUDGET_EXHAUSTED, None, (), expanded)


def _steps_past(side: _SideSearch, term: Term,
                entry: _Relaxed) -> List[RewriteStep]:
    """The steps from ``term`` that ``side`` leaves unbuilt past its
    ``limit``, built into ``term``'s ``entry`` the first time they are
    asked for."""
    if entry.beyond is None:
        sys, limit = side.sys, side.limit
        entry.beyond = one_step(sys, term, side.pool, memo=side.memo,
                                beyond=limit)
        if side.symmetric and not sys.self_inverse:
            entry.beyond += one_step(sys, term, side.pool, backward=True,
                                     memo=side.memo, beyond=limit)
    return entry.beyond


def _meets_past_limit(left: _SideSearch, right: _SideSearch, meets: _Meets,
                      total: Value, eps: Value) -> bool:
    """Cut every meet past the two sides' ``limit`` that could beat
    ``total``: a term both sides step into, unbuilt, from terms they
    expanded.  Returns whether some side has a ``limit``: only then may
    ``_meet_search`` go on to tell a branch pruned past it, which no side
    can label, from the others.

    A branch past the limit, of weight g, makes a meet better than
    ``total`` only if g (x) eps is better, as every branch weighs at
    least a step; and g is the weight w of the term it leaves, tensored
    with a step.  So each side builds the steps past the limit of the
    terms it expanded at a w with w (x) eps (x) eps better than
    ``total``, once each: they are a prefix of ``_unbuilt_from``, as
    expansions go in the quantale order and ``total`` only improves.  A
    target whose g (x) eps is better than ``total`` enters the side's
    ``beyond``, and if the other side's ``beyond`` holds it too, the
    tensor of their two weights enters ``meets.cut``."""
    if left.limit is None:  # both sides share it
        return False
    q = left.q
    tensor, sb = q.tensor, q.strictly_below
    for side, other in ((left, right), (right, left)):
        todo, i = side._unbuilt_from, side._beyond_read
        while i < len(todo):
            w, term, entry = todo[i]
            if not sb(total, tensor(tensor(w, eps), eps)):
                break
            i += 1
            for step in _steps_past(side, term, entry):
                g = tensor(w, step.weight)
                u = step.target
                old = side.beyond.get(u)
                if sb(total, tensor(g, eps)) and (old is None
                                                  or sb(old, g)):
                    side.beyond[u] = g
                    if u in other.beyond:
                        meets.cut(tensor(g, other.beyond[u]))
        side._beyond_read = i
    return True


def _meet_search(
    sys: RewriteSystem,
    s: Term,
    t: Term,
    budget: SearchBudget,
    symmetric: bool,
    pool: Optional[Sequence[Term]] = None,
    goal: Optional[Value] = None,
) -> DistanceAnswer:
    """Bidirectional search: ``left`` from ``s`` and ``right`` from ``t``
    expand in turn, and a meet scores the tensor of its two labels.
    ``pool`` fills the variables a step invents (by default the subterms of
    ``s`` and ``t``); with a ``goal``, the search also stops once its best
    meet dominates ``goal``.

    Every term labelled on both sides has its meet checked when its second
    label is set or improved (``_Meets``), so no sweep over the labels is
    needed at the end.  Below, "at least", "better" and their opposites
    are in the quantale order.  Write ``live`` for the weight of a side's
    best live frontier term, ``cut`` for its best pruned weight
    (``best_pruned``), ``lb`` for the join of the two, ``exit`` for its
    pruned branches' best weight with the counts they must still fix
    (``best_exit``, or ``cut`` when the system has no ``potential``), and
    ``eps`` for ``RewriteSystem.cheapest_step``, which a run of one or more
    steps never beats.  Write ``within`` for a side's best weight of the
    branches it pruned other than past ``limit`` (``best_pruned_within``),
    and ``apart`` for ``cut (x) eps (x) lb`` joined with
    ``within (x) lb``, the other side's ``lb``.  An absent bound drops out
    of a join, and a tensor with an absent factor drops out of the join it
    is in.  The answer is exact when the best meet is no worse than
    ``bound``:

    - for conversions, the join of ``live_l (x) eps (x) live_r``, the meet
      of ``cut_l (x) lb_r`` and ``exit_l``, the meet of ``lb_l (x) cut_r``
      and ``exit_r``, and ``across_cut``, or the other side's ``lb`` when
      one side has neither ``live`` nor ``cut``; once every meet past the
      limit that could beat the best meet is in ``across_cut``
      (``_meets_past_limit``), each side's ``cut (x) lb`` may be its
      ``apart`` instead;
    - for valleys, the join of ``live_l``, ``exit_l``, ``live_r``,
      ``exit_r`` and ``across_cut``.

    Conversions.  Take a conversion P from ``s`` to ``t`` better than the
    best meet.  Call a term of P *done* on a side when that side has
    settled it with a label at least as good as P's part up to it: the
    prefix from ``s`` on the left, the suffix to ``t`` on the right.  After
    the first round ``s`` is done on the left and ``t`` on the right.  No
    term of P is labelled that well on both sides, or its meet would be
    at least P.  So let ``a`` be the first term of P not done on the left,
    and ``b`` the last term not done on the right.  The term before ``a``
    is done on the left: settled with a label at least its prefix, it was
    expanded unless it lay at the depth limit.  So either ``a`` got a
    label at least its prefix and, not done, is live (``live_l`` is at
    least that prefix), or the step to ``a`` was pruned, by the weight
    cutoff or the term size, or by depth at the term before (``cut_l`` is
    at least the prefix).  A step that invents a term outside the pool is
    left unbuilt; it is charged as pruned at its weight or, where steps
    invent in both directions, by depth at the term before, so ``cut_l``
    is at least the prefix then too.  The same holds for ``b`` on the
    right.

    (a) ``a`` comes before ``b``.  At least one step lies between them, so
        P is at most ``live_l (x) eps (x) live_r`` when both are live, and
        at most ``cut_l (x) eps (x) lb_r`` or ``lb_l (x) eps (x) cut_r``
        when a side pruned.
    (b) ``a`` is ``b``.  Labelled that well on both sides, it would be
        met, so a side pruned it, and P is at most ``cut_l (x) lb_r`` or
        ``lb_l (x) cut_r``.  No ``eps`` here: no step need lie between.
        If the left pruned the step into ``a`` past the limit, no side
        can label ``a``, so the right pruned its step into ``a`` past the
        limit too, and P is at most the tensor of those two branches'
        weights: a meet past the limit, in ``across_cut`` if it beats the
        best meet.  Otherwise P is at most ``within_l (x) lb_r``; and the
        same holds with the sides swapped.  So where a side pruned ``a``,
        P is at most its ``apart`` as well.
    (c) ``a`` comes after ``b``.  No term lies between them (it would be
        done on both sides), so ``b`` is done on the left, ``a`` on the
        right, and both sides pruned the step between them.  If a side
        pruned it by depth, P is at most ``cut_l (x) cut_r``.  Otherwise
        the later of the two prunes found the other end labelled, with its
        settled label, on the other side, so ``across_cut`` is at least P.
        Settled terms are within the limit, so neither prune was past it:
        P is at most ``within_l (x) lb_r`` or ``lb_l (x) within_r`` by
        depth, and so at most that side's ``apart``.  A step left
        unbuilt as it invents a term outside the pool checks nothing.
        Where steps invent in both directions, a side that left the step
        unbuilt charged it by depth.  Otherwise only one side's step
        invents, and the other side built its step and pruned it by depth,
        or by the weight cutoff or the term size, keeping its target in
        ``cut_into``; the later of that prune and the first side's settled
        label on the target checked the other, so ``across_cut`` is at
        least P.

    Counts.  With a ``potential`` h the tensor adds, and a step of a rule
    r, in either direction, changes a term's family counts by ±δ_r and
    costs at least w_r (so weighs at most that, in the quantale order).
    For each of the vectors y that h maximises over, |y·δ_r| <= w_r for
    every rule, so a conversion from u to v, whose steps' signed deltas
    sum to #v − #u, costs at least |y·(#v − #u)|, and so at least
    h(#u − #v) (``qtrw.invariants``).  Where a side pruned P, in (a), (b)
    or by depth in (c), P's part on that side up to the pruned branch's
    term u weighs at most the branch's weight, and the rest of P, from u
    to the other end, at most h(#u − #other end); so P is at most that
    side's ``exit`` too, and at most the meet of its two bounds.  A step
    left unbuilt past ``limit`` ends in a term whose counts are those of
    its source moved by its rule's delta, signed by its direction, so it
    is charged exactly, unbuilt.

    So P is at most ``bound``, and a best meet no worse than ``bound`` has
    no better conversion.  A side with neither ``live`` nor ``cut`` has
    settled every term it can reach, ``t`` too if any conversion exists,
    so the best meet is then optimal and any bound is safe.

    Valleys.  Each side steps forward only, so a valley better than the
    best meet joins a run from ``s`` and a run from ``t`` at a common
    reduct, which one side may have settled cheaply long before the other
    reaches it.  Let ``a`` be the first term of the left run not done on
    the left, and ``b`` the first term of the right run not done on the
    right; not both are missing, or the reduct would be met.  The valley
    is at most the run up to whichever exists, which is at most that
    side's ``live`` or ``cut`` as above.  If that side pruned it, the
    valley is at most its ``exit`` too: with the other run read back from
    the reduct, the rest of the valley is a conversion from the pruned
    term to the other end, so the counts argument above holds.  The tensor
    of the two sides' bounds is no bound here.

    The loop stops when the best meet is no worse than ``bound``, or than
    the tensor (for valleys, the join) of the two ``live`` bounds, or the
    other side's alone when one side has none.  After that, the case
    analysis leaves only conversions through a pruned branch, which no
    later round explores.  With ``eps`` the unit this is the classic
    stopping rule; with ``eps`` below it (every Hamming and Levenshtein
    step costs at least 1) a conversion stops a cheapest step earlier
    (Holte, Felner, Sharon & Sturtevant, AAAI 2016; Goldberg & Harrelson,
    SODA 2005).  A ``goal`` stop ends the loop earlier but changes no bound:
    the answer is exact or an upper bound by the same test as above.

    Before any of this, a symbol-count invariant that differs on ``s`` and
    ``t`` (``invariants.differ``) proves the answer ``unreachable``
    after no expansion, under any budget: every step, forward or backward,
    moves the counts by a vector the invariant is orthogonal to, so it
    takes one value along any conversion or valley.
    """
    if invariants.differ(sys.invariants, s, t):
        return DistanceAnswer(UNREACHABLE, None, (), 0)
    q = sys.quantale
    eps = sys.cheapest_step
    pool = subterm_pool(s, t) if pool is None else pool
    memo: RedexMemo = {}  # both frontiers step through one memo
    meets = _Meets(q)
    limit = _skip_limit(budget, s, t)
    left = _SideSearch(sys, s, symmetric, pool, budget, memo, limit, meets, t)
    right = _SideSearch(sys, t, symmetric, pool, budget, memo, limit, meets, s)
    left.opposite, right.opposite = right.dist, left.dist
    if left.cut_into is not None:
        left.opposite_cut, right.opposite_cut = right.cut_into, left.cut_into
    if s == t:
        meets.offer(q.unit, s)

    def join(a: Optional[Value], b: Optional[Value]) -> Optional[Value]:
        return b if a is None else a if b is None else q.join2(a, b)

    def pruned(side: _SideSearch, lb: Value, apart: bool) -> Value:
        """The bound on a conversion ``side`` pruned, with ``lb`` the
        other side's, in the order ``cut`` then ``lb``: ``cut (x) lb``,
        or, when every meet past the limit is cut (``apart``), the join
        of ``cut (x) eps (x) lb`` and ``within (x) lb``; then the meet
        of that and ``exit``."""
        cut, within = side.best_pruned, side.best_pruned_within
        if apart:
            b = q.tensor(q.tensor(cut, eps), lb)
            if within is not None:
                b = join(b, q.tensor(within, lb))
        else:
            b = q.tensor(cut, lb)
        # an exit is kept only where the tensor adds, so it is a cost, and
        # with one the meet of two bounds is the larger cost
        e = side.best_exit
        return e if e is not None and e > b else b

    def side_bounds(apart: bool) -> Tuple[Optional[Value], Optional[Value]]:
        """``bound`` and the live bound, as set out above."""
        live_l, live_r = left.frontier_bound(), right.frontier_bound()
        cut_l, cut_r = left.best_pruned, right.best_pruned
        lb_l, lb_r = join(live_l, cut_l), join(live_r, cut_r)
        exit_l, exit_r = left.best_exit, right.best_exit
        both_live = live_l is not None and live_r is not None
        if not symmetric:
            exact = join(join(live_l, cut_l if exit_l is None else exit_l),
                         join(live_r, cut_r if exit_r is None else exit_r))
        elif lb_l is None or lb_r is None:
            exact = join(lb_l, lb_r)
        else:
            exact = (q.tensor(q.tensor(live_l, eps), live_r) if both_live
                     else None)
            if cut_l is not None:
                exact = join(exact, pruned(left, lb_r, apart))
            if cut_r is not None:
                # every quantale commutes (``qtrw.quantale``)
                exact = join(exact, pruned(right, lb_l, apart))
        live = (q.tensor(live_l, live_r) if symmetric and both_live
                else join(live_l, live_r))
        return join(exact, meets.across_cut), live

    def bounds() -> Tuple[Optional[Value], Optional[Value]]:
        """``side_bounds``; where it leaves the best meet short of exact
        but would not with ``apart``, the meets past the limit are cut
        first, which can only lower it, and ``apart`` is taken."""
        out = side_bounds(False)
        if not symmetric or meets.best is None:
            return out
        best, sb = meets.best[0], q.strictly_below
        if out[0] is None or not sb(best, out[0]):
            return out
        hope = side_bounds(True)[0]
        if ((hope is not None and sb(best, hope))
                or not _meets_past_limit(left, right, meets, best, eps)):
            return out
        return side_bounds(True)

    expanded = 0
    exhausted_both = False
    while expanded < budget.max_expanded:
        progressed = False
        for side in (left, right):
            if side.pop() is not None:
                progressed = True
                expanded += 1
        if not progressed:
            exhausted_both = True
            break
        if meets.best is not None and (
                (goal is not None and q.leq(goal, meets.best[0]))
                or any(b is None or not q.strictly_below(meets.best[0], b)
                       for b in bounds())):
            break
    if meets.best is not None:
        total, meet = meets.best
        witness = tuple(left.path(meet)) + tuple(
            w.flipped() for w in reversed(right.path(meet)))
        bound = bounds()[0]
        if bound is None or not q.strictly_below(total, bound):
            return DistanceAnswer(EXACT, total, witness, expanded)
        return DistanceAnswer(UPPER_BOUND, total, witness, expanded)
    if exhausted_both and not left.truncated() and not right.truncated():
        return DistanceAnswer(UNREACHABLE, None, (), expanded)
    return DistanceAnswer(BUDGET_EXHAUSTED, None, (), expanded)


def convertibility_distance(
    sys: RewriteSystem, s: Term, t: Term, budget: SearchBudget = SearchBudget()
) -> DistanceAnswer:
    """Best weight of a conversion (steps in either direction) from s to t."""
    return _meet_search(sys, s, t, budget, symmetric=True)


def valley_distance(
    sys: RewriteSystem, s: Term, t: Term, budget: SearchBudget = SearchBudget()
) -> DistanceAnswer:
    """Best tensor over common reducts of forward reductions from s and t."""
    return _meet_search(sys, s, t, budget, symmetric=False)


def reachability(
    sys: RewriteSystem, s: Term, t: Term, budget: SearchBudget = SearchBudget()
) -> str:
    """Tri-state: "reachable", "unreachable", or "unknown"."""
    ans = convertibility_distance(sys, s, t, budget)
    if ans.kind in (EXACT, UPPER_BOUND):
        return "reachable"
    if ans.kind == UNREACHABLE:
        return "unreachable"
    return "unknown"


def epsilon_reachability(
    sys: RewriteSystem, s: Term, t: Term, eps: Value,
    budget: SearchBudget = SearchBudget(),
) -> str:
    """Tri-state: is there a conversion of weight dominating ``eps``?"""
    q = sys.quantale
    q.check_value(eps)
    cut = budget.weight_cutoff
    if cut is None or q.strictly_below(eps, cut):
        budget = replace(budget, weight_cutoff=eps)
    ans = convertibility_distance(sys, s, t, budget)
    if ans.value is not None and q.leq(eps, ans.value):
        return "true"
    if ans.kind == UNREACHABLE:
        return "false"
    return "unknown"


def strategy_path(
    sys: RewriteSystem, t: Term, strategy: str,
    pool: Optional[Sequence[Term]] = None,
) -> Iterator[RewriteStep]:
    """The steps a deterministic strategy takes from ``t``, up to a normal
    form (forever if it never reaches one).

    Each step contracts the leftmost of the innermost ("leftmost-innermost")
    or of the outermost ("leftmost-outermost") redexes, ties broken by rule
    id.  ``pool`` fills variables a rule invents, as in ``one_step``.
    """
    depth_sign = {"leftmost-innermost": -1,
                  "leftmost-outermost": 1}.get(strategy)
    if depth_sign is None:
        raise ValueError(f"unknown strategy {strategy!r}")

    def walk(cur: Term) -> Iterator[RewriteStep]:
        while True:
            steps = one_step(sys, cur, pool)
            if not steps:
                return
            step = min(steps, key=lambda s: (depth_sign * len(s.position),
                                             s.position, s.rule_id))
            yield step
            cur = step.target

    return walk(t)


@dataclass(frozen=True)
class NormalizeResult:
    normal_forms: Tuple[Tuple[Term, Value], ...]
    exhausted: bool  # budget ran out before the strategy finished


def normalize(
    sys: RewriteSystem, t: Term, strategy: str = "leftmost-innermost",
    budget: SearchBudget = SearchBudget(),
) -> NormalizeResult:
    """Drive ``t`` to normal form(s) under the chosen strategy.

    Deterministic strategies follow their ``strategy_path`` for at most
    ``budget.max_depth`` steps and report it exhausted if it goes on; "all"
    collects every normal form discovered by breadth-first closure under
    the budget.  Variables a rule invents are drawn from ``t``'s subterms.
    """
    q = sys.quantale
    pool = subterm_pool(t)

    if strategy != "all":
        cur, w = t, q.unit
        for taken, step in enumerate(islice(
                strategy_path(sys, t, strategy, pool), budget.max_depth + 1)):
            if taken == budget.max_depth:
                return NormalizeResult((), True)
            cur, w = step.target, q.tensor(w, step.weight)
        return NormalizeResult(((cur, w),), False)

    seen: Dict[Term, Value] = {t: q.unit}
    frontier = [t]
    nfs: Dict[Term, Value] = {}
    expanded = 0
    exhausted = False
    # layer d holds terms d steps from t: normal forms up to max_depth steps
    # away are found, and terms that could still step at that depth exhaust
    for depth in range(budget.max_depth + 1):
        nxt: List[Term] = []
        for term in frontier:
            w = seen[term]
            expanded += 1
            if expanded > budget.max_expanded:
                exhausted = True
                break
            steps = one_step(sys, term, pool)
            if not steps:
                old = nfs.get(term)
                if old is None or q.strictly_below(old, w):
                    nfs[term] = w
                continue
            if depth == budget.max_depth:
                exhausted = True
                continue
            for step in steps:
                nw = q.tensor(w, step.weight)
                old = seen.get(step.target)
                if old is None or q.strictly_below(old, nw):
                    seen[step.target] = nw
                    nxt.append(step.target)
        if exhausted or not nxt:
            break
        frontier = nxt
    if not nfs and exhausted:
        return NormalizeResult((), True)
    return NormalizeResult(
        tuple((u, nfs[u]) for u in sorted(nfs, key=str)), exhausted)


def validate_witness(sys: RewriteSystem, s: Term, t: Term,
                     witness: Sequence[RewriteStep]) -> bool:
    """Re-derive every witness step through the one-step relation: a
    step at the same position to the same target, at least as heavy.  A
    backward step is re-derived forward from its target, so the variables
    it erased are invented there: they are drawn from the subterms of the
    witness's terms."""
    unit = sys.quantale.unit
    pool = subterm_pool(s, t, *(wstep.target for wstep in witness))
    cur = s
    for wstep in witness:
        if wstep.source != cur:
            return False
        src, tgt = wstep.source, wstep.target
        if wstep.direction != "forward":
            src, tgt = tgt, src
        if not any(c.position == wstep.position and c.target == tgt
                   for c in one_step(sys, src, pool,
                                     within=(unit, wstep.weight))):
            return False
        cur = wstep.target
    return cur == t
