"""Terms, positions, substitution, matching, and unification."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qtrw import term as term_module
from qtrw.dsl import parse_term
from qtrw.qtrs import SymbolFamily, critical_pairs
from qtrw.ratexpr import Lit, parse_expr
from qtrw.systems import CATALOG, nat_term
from qtrw.term import (
    Application,
    Renamer,
    Symbol,
    TermError,
    Variable,
    app,
    apply_substitution,
    function_positions,
    instantiate_params,
    is_ground,
    is_linear,
    match,
    name_bit,
    positions,
    preorder,
    replace_at,
    subterm_at,
    subterms,
    subterms_meeting,
    term_key,
    term_size,
    unify,
    variables,
)

f = Symbol("f", 2)
g = Symbol("g", 1)
a = Symbol("a", 0)
b = Symbol("b", 0)
x, y, z = Variable("x"), Variable("y"), Variable("z")

T = app(f, app(g, x), app(f, app(a), y))  # f(g(x),f(a,y))


def test_rendering_and_keys():
    assert str(T) == "f(g(x),f(a,y))"
    assert term_key(T) == str(T)
    sym = Symbol("+", 2, (Fraction(1, 2),))
    assert str(Application(sym, (x, y))) == "+{1/2}(x,y)"
    assert str(x) == "x"


def test_arity_enforced():
    with pytest.raises(TermError):
        Application(f, (x,))


def test_sizes_and_positions():
    assert term_size(T) == 6
    assert term_size(x) == 1
    assert positions(T) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    assert function_positions(T) == [(), (1,), (2,), (2, 1)]
    assert subterm_at(T, (2, 1)) == app(a)
    with pytest.raises(TermError):
        subterm_at(T, (3,))


def test_replace_and_contexts():
    assert replace_at(T, (1, 1), app(b)) == app(
        f, app(g, app(b)), app(f, app(a), y))
    assert replace_at(T, (), x) == x
    # a context is a term with a hole; filling the hole replaces it back
    hole = Variable("hole")
    ctx = replace_at(T, (2, 2), hole)
    assert subterm_at(ctx, (2, 2)) == hole
    assert replace_at(ctx, (2, 2), y) == T
    with pytest.raises(TermError):
        replace_at(T, (3,), y)  # no such position


def test_linearity_and_groundness():
    assert is_linear(T)
    assert not is_linear(app(f, x, x))
    assert not is_ground(T)
    assert is_ground(app(f, app(a), app(b)))


def test_substitution():
    sigma = {"x": app(a), "y": app(g, z)}
    assert apply_substitution(T, sigma) == app(
        f, app(g, app(a)), app(f, app(a), app(g, z)))
    # substitutions compose: (t sigma) rho applies both in turn
    sigma, rho = {"x": y}, {"y": app(b)}
    assert apply_substitution(apply_substitution(T, sigma), rho) == app(
        f, app(g, app(b)), app(f, app(a), app(b)))


def test_match_basics():
    m = match(app(f, x, y), app(f, app(a), app(b)))
    assert m is not None and m[0] == {"x": app(a), "y": app(b)}
    # non-linear pattern needs equal images
    assert match(app(f, x, x), app(f, app(a), app(b))) is None
    assert match(app(f, x, x), app(f, app(a), app(a))) is not None
    assert match(app(g, x), app(f, app(a), app(b))) is None


def test_match_symbol_parameters():
    bang = lambda p, t: Application(Symbol("!", 1, (p,)), (t,))
    pat = bang(parse_expr("n"), bang(parse_expr("m"), x))
    sub = bang(Fraction(3), bang(Fraction(2), app(a)))
    m = match(pat, sub)
    assert m is not None and m[1] == {"n": Fraction(3), "m": Fraction(2)}
    # compound parameter expressions check against earlier bindings
    pat2 = bang(parse_expr("n"), bang(parse_expr("n + 1"), x))
    assert match(pat2, sub) is None
    sub2 = bang(Fraction(3), bang(Fraction(4), app(a)))
    assert match(pat2, sub2) is not None
    # concrete slots must agree exactly
    assert match(bang(Fraction(1), x), bang(Fraction(2), app(a))) is None
    # a parameter bound twice must be bound to one value
    pat3 = bang(parse_expr("n"), bang(parse_expr("n"), x))
    assert match(pat3, bang(Fraction(1), bang(Fraction(2), app(a)))) is None
    assert match(pat3, bang(Fraction(2), bang(Fraction(2), app(a))))[1] == {
        "n": Fraction(2)}


def test_unify_basics():
    sigma = unify(app(f, x, app(a)), app(f, app(b), y))
    assert sigma == {"x": app(b), "y": app(a)}
    assert unify(x, app(f, x, x)) is None  # occurs check
    assert unify(app(f, x, y), app(g, x)) is None
    assert unify(x, y) in ({"x": y}, {"y": x})
    p1 = Application(Symbol("w", 1, (Fraction(1),)), (x,))
    p2 = Application(Symbol("w", 1, (Fraction(2),)), (y,))
    assert unify(p1, p2) is None  # parameters compare exactly


def test_unifier_is_most_general_on_samples():
    rng = random.Random(4)

    def rand_term(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            return rng.choice([x, y, z, app(a), app(b)])
        if r < 0.6:
            return app(g, rand_term(depth - 1))
        return app(f, rand_term(depth - 1), rand_term(depth - 1))

    for _ in range(300):
        s, t = rand_term(3), rand_term(3)
        sigma = unify(s, t)
        if sigma is not None:
            assert apply_substitution(s, sigma) == apply_substitution(t, sigma)
            # idempotent: no bound variable occurs in any image
            for img in sigma.values():
                assert not (variables(img) & set(sigma))


def test_instantiate_params():
    sym = Symbol("w", 1, (parse_expr("n + m"),))
    t = Application(sym, (x,))
    out = instantiate_params(t, {"n": Fraction(1), "m": Fraction(2)})
    assert out.symbol.params == (Fraction(3),)


def test_renamer():
    r = Renamer()
    [renamed], mapping = r.rename_apart([app(f, x, y)], avoid={"x0", "y0"})
    assert variables(renamed).isdisjoint({"x", "y", "x0", "y0"})
    assert apply_substitution(app(f, x, y), mapping) == renamed
    # a second call from the same renamer keeps names fresh
    [renamed2], _ = r.rename_apart([app(g, x)], avoid=set())
    assert variables(renamed2).isdisjoint(variables(renamed))


@given(st.data())
def test_match_after_substitution_roundtrip(data):
    names = ["x", "y", "z"]

    def terms(depth):
        if depth == 0:
            return st.one_of(
                st.sampled_from(names).map(Variable),
                st.just(app(a)), st.just(app(b)))
        sub = terms(depth - 1)
        return st.one_of(
            terms(0),
            st.builds(lambda t: app(g, t), sub),
            st.builds(lambda s, t: app(f, s, t), sub, sub))

    pattern = data.draw(terms(2))
    sigma = {n: data.draw(terms(1)) for n in sorted(variables(pattern))}
    subject = apply_substitution(pattern, sigma)
    m = match(pattern, subject)
    assert m is not None
    assert apply_substitution(pattern, m[0]) == subject


# ---------------------------------------------------------------------------
# the hash-consed term core


def reference_str(t):
    """The rendering, recursively: the string every term once stored."""
    if isinstance(t, Variable):
        return t.name
    head = str(t.symbol)
    return f"{head}({','.join(reference_str(a) for a in t.args)})" if t.args else head


FAMILIES = (SymbolFamily("f", 2), SymbolFamily("g", 1), SymbolFamily("a", 0),
            SymbolFamily("b", 0), SymbolFamily("p", 1, ("e",)))
HALVES = (Fraction(1, 2), Fraction(1, 3))

# a ground term as nested tuples: ("a",), ("g", t), ("f", t, t), ("p", e, t)
specs = st.recursive(
    st.sampled_from([("a",), ("b",)]),
    lambda sub: st.one_of(
        st.tuples(st.just("g"), sub),
        st.tuples(st.just("f"), sub, sub),
        st.tuples(st.just("p"), st.sampled_from(HALVES), sub)),
    max_leaves=6)


def build(spec, leaf=None, param=lambda e: e):
    """The term of ``spec`` by the constructor; ``leaf`` replaces each
    ``a``, and ``param`` wraps each parameter of ``p``."""
    head, *rest = spec
    if head == "a" and leaf is not None:
        return leaf
    if head == "p":
        return Application(Symbol("p", 1, (param(rest[0]),)),
                           (build(rest[1], leaf, param),))
    return Application(Symbol(head, len(rest)),
                       tuple(build(r, leaf, param) for r in rest))


def spec_text(spec):
    head, *rest = spec
    if head == "p":
        return f"p{{{rest[0]}}}({spec_text(rest[1])})"
    return f"{head}({','.join(map(spec_text, rest))})" if rest else head


def _spec_at(spec, p):
    for i in p:
        spec = spec[1:][i - 1] if spec[0] != "p" else spec[2]
    return spec


def every_route(spec):
    """The term of ``spec`` built by the parser, the constructor,
    ``replace_at``, ``apply_substitution`` and ``instantiate_params``."""
    direct = build(spec)
    p, _ = random.Random(spec_text(spec)).choice(list(subterms(direct)))
    return [
        parse_term(spec_text(spec), FAMILIES),
        direct,
        replace_at(app(g, app(b)), (1,), build(spec)).args[0],
        replace_at(direct, p, parse_term(
            spec_text(_spec_at(spec, p)), FAMILIES)),
        apply_substitution(build(spec, leaf=x), {"x": app(a)}),
        instantiate_params(build(spec, param=Lit), {}),
    ]


@given(specs, specs)
def test_equal_ground_terms_are_one_object(s1, s2):
    terms = every_route(s1) + every_route(s2)
    for u in terms:
        assert str(u) == reference_str(u)
        for v in terms:
            assert (u is v) == (reference_str(u) == reference_str(v))
            assert (u == v) == (u is v)
            if u is v:
                assert hash(u) == hash(v)


@given(st.lists(specs, max_size=8))
def test_sorting_by_rendering_keeps_the_string_order(ss):
    terms = [build(spec) for spec in ss]
    assert ([reference_str(t) for t in sorted(terms, key=str)]
            == sorted(reference_str(t) for t in terms))


def _chain(name, depth):
    t = app(Symbol(name, 0))
    for _ in range(depth):
        t = app(Symbol(name, 1), t)
    return t


def test_dropped_terms_leave_the_intern_table():
    gc.disable()
    try:
        before = len(term_module._TABLE)
        t = _chain("dropped", 5000)
        assert len(term_module._TABLE) == before + 5001
        str(t)
        del t
        assert len(term_module._TABLE) == before
    finally:
        gc.enable()


def test_terms_sharing_a_hash_stay_distinct():
    s1, s2 = Symbol("clash1", 0), Symbol("clash2", 0)
    object.__setattr__(s2, "_hash", hash(s1))
    t1, t2 = Application(s1, ()), Application(s2, ())
    assert hash(t1) == hash(t2) and t1 is not t2
    assert Application(s1, ()) is t1 and Application(s2, ()) is t2
    del t1
    assert Application(s2, ()) is t2
    t1 = Application(s1, ())
    del t2
    assert Application(s1, ()) is t1


def _chain_at(h):
    """The live applications on the intern table's chain for hash ``h``,
    newest first; every entry is live and filed under ``h``."""
    out, entry = [], term_module._TABLE.get(h)
    while entry is not None:
        assert entry.hash == h and entry() is not None
        out.append(entry())
        entry = entry.next
    return out


def test_dropping_the_head_or_the_tail_of_a_hash_chain_keeps_the_rest():
    # hash(-1) == hash(-2) == hash(-(2**61 + 1)) for CPython's ints, so the
    # three symbols, and the three applications, share one hash
    leaf = app(Symbol("chained", 0))

    def make(v):
        return Application(Symbol("chained", 1, (Fraction(v),)), (leaf,))

    gc.disable()
    try:
        t1, t2, t3 = make(-1), make(-2), make(-(2**61 + 1))
        h = hash(t1)
        assert hash(t2) == hash(t3) == h
        assert _chain_at(h) == [t3, t2, t1]
        del t1  # the tail of a chain of three
        assert _chain_at(h) == [t3, t2]
        del t3  # the head, with an entry behind it
        assert _chain_at(h) == [t2]
        assert make(-2) is t2
        t1 = make(-1)
        assert t1 is not t2 and _chain_at(h) == [t1, t2]
        del t1, t2
        assert h not in term_module._TABLE
    finally:
        gc.enable()


def test_deep_terms_render_hash_and_compare():
    t = _chain("S", 5000)
    assert str(t) == "S(" * 5000 + "S" + ")" * 5000
    assert term_size(t) == 5001
    again = _chain("S", 5000)
    assert again is t and again == t and hash(again) == hash(t)
    assert again != _chain("S", 4999)
    assert len(positions(t)) == 5001


def _names_mask(t):
    """The OR of the bits of the family names in ``preorder(t)``."""
    mask = 0
    for s in preorder(t):
        if isinstance(s, Application):
            mask |= name_bit(s.symbol.name)
    return mask


def test_name_masks_are_the_names_in_the_term():
    terms = [Variable("x"), T]
    for name in sorted(CATALOG):
        sys = CATALOG[name]()
        terms += [side for rule in sys.rules for side in (rule.lhs, rule.rhs)]
        terms += [peak.source for peak in critical_pairs(sys)]
    for t in terms:
        for u in (t, copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert u._mask == _names_mask(u)
    # rebuilt from its pickle once the original is gone
    t = pickle.loads(pickle.dumps(app(f, app(Symbol("unpickled", 1), x),
                                      app(b))))
    assert t._mask == _names_mask(t)
    # ``nat_term`` builds its numeral without recursion
    deep = nat_term(5000)
    assert deep._mask == name_bit("S") | name_bit("Z") == _names_mask(deep)
    assert deep.args[0]._mask == deep._mask


def test_a_walk_by_name_mask_enters_only_the_subterms_holding_a_name():
    t = app(f, app(g, app(g, app(a))), app(f, x, app(b)))
    every = list(subterms(t))
    for names in ([], ["f"], ["g"], ["a"], ["b"], ["g", "b"], ["f", "g"]):
        mask = 0
        for name in names:
            mask |= name_bit(name)
        assert list(subterms_meeting(t, mask)) == [
            (p, s) for p, s in every if s._mask & mask]
    assert list(subterms_meeting(x, -1)) == []
    assert sum(1 for _ in subterms_meeting(nat_term(5000), name_bit("Z"))
               ) == 5001


def test_copies_are_the_same_object_and_fields_are_read_only():
    sym = Symbol("+", 2, (Fraction(1, 2),))
    t = app(sym, T, app(a))
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert pickle.loads(pickle.dumps(sym)) == sym
    with pytest.raises(AttributeError):
        t.symbol = g
    with pytest.raises(AttributeError):
        t.args = ()
    assert t.symbol is sym


def test_subterms_are_the_positions_in_pre_order():
    assert [p for p, _ in subterms(T)] == positions(T)
    assert all(s is subterm_at(T, p) for p, s in subterms(T))


def test_symbols_are_interned_and_read_only():
    gc.disable()
    try:
        before = len(term_module._SYMBOLS)
        half = Symbol("interned", 2, [Fraction(1, 2)])
        assert Symbol("interned", 2, (Fraction(1, 2),)) is half
        assert Symbol("interned", 2, (Fraction(1, 3),)) is not half
        assert copy.deepcopy(half) is half
        assert pickle.loads(pickle.dumps(half)) is half
        assert half.params == (Fraction(1, 2),) and str(half) == "interned{1/2}"
        with pytest.raises(AttributeError):
            half.arity = 3
        pattern = Symbol("interned", 2, (parse_expr("e"),))
        t = app(pattern, Variable("x"), Variable("y"))
        assert instantiate_params(t, {"e": Fraction(1, 2)}).symbol is half
        assert len(term_module._SYMBOLS) == before + 2
        del half, pattern, t
        assert len(term_module._SYMBOLS) == before
    finally:
        gc.enable()


REIMPORT = """
import gc, importlib, sys
for _ in range(9):
    for name in [m for m in sys.modules if m.partition(".")[0] == "qtrw"]:
        del sys.modules[name]
    for name in ("qtrw", "qtrw.systems", "qtrw.cli"):
        importlib.import_module(name)
gc.collect()
print(sum(type(o) is dict and o.get("__name__") == "qtrw.term"
          for o in gc.get_objects()))
"""


def test_a_reimported_package_leaves_no_earlier_module_alive():
    # ``typing`` caches a type alias subscripted over qtrw classes, and with
    # them their module; counted in a fresh interpreter, as re-importing
    # qtrw here would leave the other tests with stale classes
    src = Path(term_module.__file__).resolve().parent.parent
    path = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", REIMPORT], check=True,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True).stdout
    assert out.split() == ["1"]
