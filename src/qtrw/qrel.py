"""Finite-carrier weighted relations and the abstract rewriting calculus.

A ``FiniteQRel`` is a sparse matrix over a quantity lattice: absent entries
mean bottom and bottom entries are never stored.  Composition is the usual
matrix product (join of tensors), iteration ``star`` is computed by a
Floyd-Warshall style saturation (integrality makes simple paths optimal, so
the saturation terminates and equals the join of all powers), and the
confluence/termination checks evaluate their defining pointwise inequalities
exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, TypeAlias

from .quantale import QuantaleError, QuantaleSpec, Value, require_lawverian

Node = str
# a string, as ``typing`` would cache the alias with this import's classes
EdgeMap: TypeAlias = "Dict[Tuple[Node, Node], Value]"


class SoundnessError(Exception):
    """A theorem the implementation relies on failed on concrete data."""


@dataclass(frozen=True)
class FiniteQRel:
    carrier: Tuple[Node, ...]
    edges: EdgeMap = field(hash=False)  # no bottom entry; built by ``make``
    quantale: QuantaleSpec

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(
        carrier: Iterable[Node],
        edges: EdgeMap,
        quantale: QuantaleSpec,
    ) -> "FiniteQRel":
        carrier_t = tuple(dict.fromkeys(carrier))
        nodes = set(carrier_t)
        clean: EdgeMap = {}
        for (a, b), v in edges.items():
            quantale.check_value(v)
            if a not in nodes or b not in nodes:
                raise QuantaleError(f"edge endpoint outside carrier: {(a, b)}")
            if v != quantale.bottom:
                clean[(a, b)] = v
        return FiniteQRel(carrier_t, clean, quantale)

    def value(self, a: Node, b: Node) -> Value:
        return self.edges.get((a, b), self.quantale.bottom)

    def __call__(self, a: Node, b: Node) -> Value:
        return self.value(a, b)

    def _same_base(self, other: "FiniteQRel") -> None:
        self.quantale.check_same(other.quantale)
        if set(self.carrier) != set(other.carrier):
            raise QuantaleError("carrier mismatch between relations")

    # -- algebra -------------------------------------------------------------

    def compose(self, other: "FiniteQRel") -> "FiniteQRel":
        """(R;S)(a,c) = join over b of R(a,b) (x) S(b,c)."""
        self.quantale.check_same(other.quantale)
        q = self.quantale
        by_src: Dict[Node, List[Tuple[Node, Value]]] = {}
        for (b, c), v in other.edges.items():
            by_src.setdefault(b, []).append((c, v))
        out: EdgeMap = {}
        for (a, b), v in self.edges.items():
            for c, w in by_src.get(b, ()):  # noqa: B905
                t = q.tensor(v, w)
                if t == q.bottom:
                    continue
                key = (a, c)
                out[key] = q.join2(out[key], t) if key in out else t
        carrier = tuple(dict.fromkeys(self.carrier + other.carrier))
        return FiniteQRel.make(carrier, out, q)

    def transpose(self) -> "FiniteQRel":
        return FiniteQRel.make(
            self.carrier, {(b, a): v for (a, b), v in self.edges.items()},
            self.quantale)

    def join(self, other: "FiniteQRel") -> "FiniteQRel":
        self._same_base(other)
        q = self.quantale
        out = dict(self.edges)
        for key, v in other.edges.items():
            out[key] = q.join2(out[key], v) if key in out else v
        return FiniteQRel.make(self.carrier, out, q)

    @staticmethod
    def identity(carrier: Iterable[Node], quantale: QuantaleSpec) -> "FiniteQRel":
        nodes = tuple(dict.fromkeys(carrier))
        return FiniteQRel.make(nodes, {(a, a): quantale.unit for a in nodes}, quantale)

    def diagonal(self) -> "FiniteQRel":
        return FiniteQRel.identity(self.carrier, self.quantale)

    def reflexive_closure(self) -> "FiniteQRel":
        return self.join(self.diagonal())

    def star(self) -> "FiniteQRel":
        """Join of all finite powers (reflexive-transitive closure)."""
        require_lawverian(self.quantale, "star")
        q = self.quantale
        dist = dict(self.edges)
        nodes = self.carrier
        for k in nodes:
            into_k = [(a, dist[(a, k)]) for a in nodes if (a, k) in dist]
            from_k = [(c, dist[(k, c)]) for c in nodes if (k, c) in dist]
            for a, v in into_k:
                for c, w in from_k:
                    t = q.tensor(v, w)
                    if t == q.bottom:
                        continue
                    key = (a, c)
                    dist[key] = q.join2(dist[key], t) if key in dist else t
        for a in nodes:
            key = (a, a)
            dist[key] = q.join2(dist[key], q.unit) if key in dist else q.unit
        return FiniteQRel.make(nodes, dist, q)

    def equivalence_closure(self) -> "FiniteQRel":
        return self.join(self.transpose()).star()

    def box(self) -> "FiniteQRel":
        """Keep only the unit-valued entries (the Boolean core)."""
        q = self.quantale
        kept = {key: v for key, v in self.edges.items() if v == q.unit}
        return FiniteQRel.make(self.carrier, kept, q)

    def leq(self, other: "FiniteQRel") -> bool:
        """Pointwise order: self(a,b) <= other(a,b) everywhere."""
        self._same_base(other)
        q = self.quantale
        for key, v in self.edges.items():
            if not q.leq(v, other.edges.get(key, q.bottom)):
                return False
        return True

    def equals(self, other: "FiniteQRel") -> bool:
        return self.leq(other) and other.leq(self)

    # -- confluence checks ---------------------------------------------------

    def diamond_check(self) -> bool:
        return self.transpose().compose(self).leq(self.compose(self.transpose()))

    def commutes_check(self, other: "FiniteQRel") -> bool:
        self._same_base(other)
        return self.transpose().compose(other).leq(
            other.compose(self.transpose()))

    def locally_confluent_check(self) -> bool:
        star = self.star()
        return self.transpose().compose(self).leq(star.compose(star.transpose()))

    def confluent_check(self) -> bool:
        return self.star().diamond_check()

    def church_rosser_check(self) -> bool:
        star = self.star()
        return self.equivalence_closure().equals(star.compose(star.transpose()))

    def strongly_confluent_check(self) -> bool:
        """Both one-sided conditions: peaks close with at most one step on a side."""
        refl = self.reflexive_closure()
        star = self.star()
        peak = self.transpose().compose(self)
        return (peak.leq(refl.compose(star.transpose()))
                and peak.leq(star.compose(refl.transpose())))

    # -- termination ---------------------------------------------------------

    def _successors(self) -> Dict[Node, List[Node]]:
        out: Dict[Node, List[Node]] = {a: [] for a in self.carrier}
        for a, b in self.edges:
            out[a].append(b)
        return out

    def strongly_normalizing_check(self) -> bool:
        """No infinite reduction sequence = no cycle in the edge graph: nodes
        that no remaining node steps to are peeled off one by one, and only
        a node on or below a cycle is never peeled."""
        succ = self._successors()
        preds = Counter(b for bs in succ.values() for b in bs)
        free = [n for n in self.carrier if not preds[n]]
        peeled = 0
        while free:
            peeled += 1
            for m in succ[free.pop()]:
                preds[m] -= 1
                if not preds[m]:
                    free.append(m)
        return peeled == len(self.carrier)

    def normal_forms(self) -> Set[Node]:
        succ = self._successors()
        return {n for n in self.carrier if not succ[n]}

    def weakly_normalizing_check(self) -> bool:
        nfs = self.normal_forms()
        star = self.star().edges
        for n in self.carrier:
            if n in nfs:
                continue
            if not any((n, m) in star for m in nfs):
                return False
        return True

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"quantale {self.quantale.name}",
                 "carrier " + " ".join(self.carrier)]
        for (a, b), v in sorted(self.edges.items()):
            lines.append(f"{a} {b} {self.quantale.format_value(v)}")
        return "\n".join(lines) + "\n"

    def to_dot(self, name: str = "qrel") -> str:
        lines = [f"digraph {name} {{"]
        for n in self.carrier:
            lines.append(f'  "{n}";')
        for (a, b), v in sorted(self.edges.items()):
            lines.append(f'  "{a}" -> "{b}" [label="{self.quantale.format_value(v)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def hindley_rosen_check(r: FiniteQRel, s: FiniteQRel) -> Dict[str, bool]:
    """Commutation of closures + componentwise confluence vs join confluence.

    When the three premises hold the conclusion is a theorem; a failure there
    is an internal soundness bug and raises.
    """
    report = {
        "stars_commute": r.star().commutes_check(s.star()),
        "left_confluent": r.confluent_check(),
        "right_confluent": s.confluent_check(),
        "join_confluent": r.join(s).confluent_check(),
    }
    if (report["stars_commute"] and report["left_confluent"]
            and report["right_confluent"] and not report["join_confluent"]):
        raise SoundnessError(
            "commuting confluent components produced a non-confluent join")
    return report
