"""Finite weighted relations: algebra, closures, and confluence checks."""

import random
from fractions import Fraction

import pytest

from qtrw.qrel import FiniteQRel, hindley_rosen_check
from qtrw.quantale import BOOL, INF, LAWVERE, QuantaleError, QUANTALES

F = Fraction


def rel(carrier, edges, q=LAWVERE):
    return FiniteQRel.make(carrier, {k: F(v) for k, v in edges.items()}, q)


def test_construction_drops_bottom_edges():
    r = FiniteQRel.make("ab", {("a", "b"): F(1), ("b", "a"): INF}, LAWVERE)
    assert r.edges == {("a", "b"): F(1)}
    assert r("b", "a") is INF
    with pytest.raises(QuantaleError):
        FiniteQRel.make("ab", {("a", "c"): F(1)}, LAWVERE)


def test_compose():
    r = rel("abc", {("a", "b"): 1})
    s = rel("abc", {("b", "c"): 2})
    assert r.compose(s)("a", "c") == F(3)
    # two mid-points: the join picks the cheaper path
    r2 = rel("abcd", {("a", "b"): 1, ("a", "c"): 0})
    s2 = rel("abcd", {("b", "d"): 3, ("c", "d"): 2})
    assert r2.compose(s2)("a", "d") == F(2)
    # Boolean composition is ordinary relational composition
    rb = FiniteQRel.make("abc", {("a", "b"): True}, BOOL)
    sb = FiniteQRel.make("abc", {("b", "c"): True}, BOOL)
    assert rb.compose(sb)("a", "c") is True


def test_compose_associative_and_identity():
    rng = random.Random(1)
    nodes = "abcd"
    for _ in range(50):
        def rand():
            edges = {}
            for s in nodes:
                for t in nodes:
                    if rng.random() < 0.4:
                        edges[(s, t)] = F(rng.randrange(0, 4))
            return FiniteQRel.make(nodes, edges, LAWVERE)
        r, s, t = rand(), rand(), rand()
        assert r.compose(s).compose(t).equals(r.compose(s.compose(t)))
        ident = FiniteQRel.identity(nodes, LAWVERE)
        assert r.compose(ident).equals(r)
        assert ident.compose(r).equals(r)


def test_transpose_and_join():
    r = rel("ab", {("a", "b"): 1})
    assert r.transpose()("b", "a") == F(1)
    assert r.transpose().transpose().equals(r)
    s = rel("ab", {("a", "b"): 3})
    assert r.join(s)("a", "b") == F(1)  # join = numeric inf


def test_star_least_fixed_point():
    rng = random.Random(2)
    nodes = "abcde"
    for _ in range(40):
        edges = {}
        for s in nodes:
            for t in nodes:
                if rng.random() < 0.3:
                    edges[(s, t)] = F(rng.randrange(0, 4), rng.choice((1, 2)))
        r = FiniteQRel.make(nodes, edges, LAWVERE)
        star = r.star()
        assert star.equals(r.diagonal().join(r.compose(star)))
        # star dominates every finite power
        assert r.diagonal().compose(r).compose(r).compose(r).leq(star)


def test_star_rejects_non_lawverian():
    q = QUANTALES["fuzzy-lukasiewicz"]
    r = FiniteQRel.make("ab", {("a", "b"): F(1, 2)}, q)
    with pytest.raises(QuantaleError):
        r.star()


def test_box():
    r = rel("abc", {("a", "b"): 0, ("a", "c"): 1})
    assert r.box().edges == {("a", "b"): F(0)}
    assert r.box().box().equals(r.box())
    assert r.box().leq(r)


def test_equivalence_closure_properties():
    r = rel("abc", {("a", "b"): 1, ("b", "c"): 2})
    e = r.equivalence_closure()
    for n in "abc":
        assert e(n, n) == F(0)               # reflexive at the unit
    for s in "abc":
        for t in "abc":
            assert e(s, t) == e(t, s)        # symmetric
            for u in "abc":                  # transitive up to tensor
                assert LAWVERE.leq(LAWVERE.tensor(e(s, t), e(t, u)), e(s, u))


def test_empty_relation_passes_all_checks():
    r = rel("abc", {})
    assert r.diamond_check() and r.locally_confluent_check()
    assert r.confluent_check() and r.church_rosser_check()
    assert r.strongly_confluent_check()


def test_sn_and_normal_forms():
    dag = rel("abc", {("a", "b"): 1, ("b", "c"): 0})
    assert dag.strongly_normalizing_check()
    assert dag.normal_forms() == {"c"}
    assert dag.weakly_normalizing_check()
    loop = rel("ab", {("a", "a"): 1, ("a", "b"): 0})
    assert not loop.strongly_normalizing_check()
    assert loop.weakly_normalizing_check()  # exit edge reaches the normal form


def test_divergence_without_attained_valley_truncation():
    # a branches to b1/b2 at 0; each bi reaches the stage node eps at eps/2;
    # on any finite truncation the best valley total stays strictly positive
    stages = [F(1), F(1, 2), F(1, 4)]
    carrier = ["a", "b1", "b2"] + [str(e) for e in stages]
    edges = {}
    for bi in ("b1", "b2"):
        edges[("a", bi)] = F(0)
        for e in stages:
            edges[(bi, str(e))] = e / 2
    r = FiniteQRel.make(carrier, edges, LAWVERE)
    star = r.star()
    assert star("b1", "1/4") == F(1, 8)
    best = min(
        LAWVERE.tensor(star("b1", d), star("b2", d)) for d in carrier
        if star("b1", d) is not INF and star("b2", d) is not INF)
    assert best == F(1, 4)  # positive at this truncation; halves at the next


def _random_relation(rng, nodes=6, acyclic=False, density=0.35):
    names = [f"n{i}" for i in range(rng.randrange(2, nodes + 1))]
    weights = [F(0), F(1, 2), F(1), F(2)]
    edges = {}
    for i, s in enumerate(names):
        for j, t in enumerate(names):
            if acyclic and j <= i:
                continue
            if rng.random() < density:
                edges[(s, t)] = rng.choice(weights)
    return FiniteQRel.make(names, edges, LAWVERE)


def test_confluence_iff_church_rosser_sampled():
    rng = random.Random(7)
    for _ in range(150):
        r = _random_relation(rng)
        assert r.confluent_check() == r.church_rosser_check()


def test_newman_on_acyclic_samples():
    rng = random.Random(8)
    for _ in range(150):
        r = _random_relation(rng, acyclic=True)
        assert r.strongly_normalizing_check()
        if r.locally_confluent_check():
            assert r.confluent_check()


def test_sn_iff_no_node_reaches_itself_sampled():
    # a cycle through a is a path of one or more steps from a back to a,
    # an entry on the diagonal of R;R*
    rng = random.Random(10)
    for _ in range(150):
        r = _random_relation(rng, density=0.2)
        plus = r.compose(r.star())
        cyclic = any(plus(a, a) is not INF for a in r.carrier)
        assert r.strongly_normalizing_check() == (not cyclic)


def test_strong_confluence_implies_confluence_sampled():
    rng = random.Random(9)
    for _ in range(150):
        r = _random_relation(rng)
        if r.strongly_confluent_check():
            assert r.confluent_check()


def test_hindley_rosen_report():
    r = rel("abcd", {("a", "b"): 1})
    s = rel("abcd", {("c", "d"): 2})
    report = hindley_rosen_check(r, s)
    assert all(report.values())
    rng = random.Random(10)
    for _ in range(100):
        r = _random_relation(rng, nodes=4)
        edges = {}
        for a2 in r.carrier:
            for b2 in r.carrier:
                if rng.random() < 0.3:
                    edges[(a2, b2)] = F(rng.randrange(0, 3))
        s = FiniteQRel.make(r.carrier, edges, LAWVERE)
        hindley_rosen_check(r, s)  # must never raise SoundnessError


def test_serialization_roundtrip():
    r = rel("ab", {("a", "b"): F(1, 2)})
    assert r.to_text() == "quantale lawvere\ncarrier a b\na b 1/2\n"
    assert '"a" -> "b" [label="1/2"]' in r.to_dot()
