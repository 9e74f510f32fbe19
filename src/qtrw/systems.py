"""Ready-made example systems and the independent distance oracles.

The oracles are deliberately naive, textbook implementations: they exist to
cross-check the search engine, so they share no code with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .quantale import LAWVERE, STRONG_LAWVERE
from .ratexpr import parse_comparison, parse_expr
from .term import Application, Symbol, Term, Variable, app
from .qtrs import Rule, RewriteSystem, SymbolFamily


# ---------------------------------------------------------------------------
# oracles (written first, frozen; no engine imports)


def oracle_levenshtein(s: str, t: str) -> int:
    """Classic dynamic-programming edit distance (unit costs)."""
    prev = list(range(len(t) + 1))
    for i, a in enumerate(s, 1):
        cur = [i]
        for j, b in enumerate(t, 1):
            cur.append(min(prev[j] + 1,          # delete a
                           cur[j - 1] + 1,       # insert b
                           prev[j - 1] + (a != b)))  # substitute
        prev = cur
    return prev[-1]


def oracle_hamming(s: str, t: str) -> Optional[int]:
    """Positionwise mismatch count; None when lengths differ."""
    if len(s) != len(t):
        return None
    return sum(a != b for a, b in zip(s, t))


def oracle_abs_diff(n: int, m: int) -> int:
    return abs(n - m)


# ---------------------------------------------------------------------------
# helpers


def _v(name: str) -> Variable:
    return Variable(name)


def _const(name: str) -> Term:
    return Application(Symbol(name, 0), ())


def _f(name: str, *args: Term) -> Term:
    return Application(Symbol(name, len(args)), tuple(args))


DNA_BASES = ("A", "C", "G", "T")


def dna_term(s: str) -> Term:
    """Encode a string as nested unary applications ending in nil."""
    t = _const("nil")
    for b in reversed(s):
        t = _f(b, t)
    return t


def dna_string(t: Term) -> str:
    out = []
    while isinstance(t, Application) and t.symbol.name != "nil":
        out.append(t.symbol.name)
        t = t.args[0]
    return "".join(out)


def nat_term(n: int) -> Term:
    t = _const("Z")
    for _ in range(n):
        t = _f("S", t)
    return t


def code_term(n: int) -> Term:
    """Combinatory numeral S·(S·(...·Z))."""
    t = _const("Z")
    for _ in range(n):
        t = app2(_const("S"), t)
    return t


def app2(f: Term, *args: Term) -> Term:
    for a in args:
        f = Application(Symbol("app", 2), (f, a))
    return f


# ---------------------------------------------------------------------------
# catalog


def make_nat() -> RewriteSystem:
    """Unary numerals with addition and unit-cost successor deletion."""
    x, y = _v("x"), _v("y")
    return RewriteSystem(
        name="nat",
        quantale=LAWVERE,
        signature=(
            SymbolFamily("Z", 0),
            SymbolFamily("S", 1),
            SymbolFamily("A", 2),
        ),
        rules=(
            Rule("addZ", _f("A", x, _const("Z")), x, Fraction(0)),
            Rule("addS", _f("A", x, _f("S", y)), _f("S", _f("A", x, y)),
                 Fraction(0)),
            Rule("sdel", _f("S", x), x, Fraction(1)),
        ),
    )


def make_dna(variant: str = "levenshtein") -> RewriteSystem:
    """DNA strings as unary terms; edit operations at unit cost.

    Variants: "levenshtein" (insert/delete/substitute), "hamming"
    (substitute only), "eigen_mccaskill" (substitutions priced by the
    purine/pyrimidine mutation table).
    """
    x = _v("x")
    sig = tuple(SymbolFamily(b, 1) for b in DNA_BASES) + (SymbolFamily("nil", 0),)
    rules: List[Rule] = []
    if variant == "levenshtein":
        for b in DNA_BASES:
            rules.append(Rule(f"ins{b}", x, _f(b, x), Fraction(1)))
            rules.append(Rule(f"del{b}", _f(b, x), x, Fraction(1)))
    if variant in ("levenshtein", "hamming"):
        for b in DNA_BASES:
            for c in DNA_BASES:
                if b != c:
                    rules.append(Rule(f"sub{b}{c}", _f(b, x), _f(c, x),
                                      Fraction(1)))
    elif variant == "eigen_mccaskill":
        table = [("A", "C", 1), ("G", "T", 1), ("A", "T", 1),
                 ("A", "G", 0), ("G", "C", 1), ("C", "T", 0)]
        for b, c, w in table:
            rules.append(Rule(f"mut{b}{c}", _f(b, x), _f(c, x), Fraction(w)))
    elif variant != "hamming":
        raise ValueError(f"unknown DNA variant {variant!r}")
    return RewriteSystem("dna-" + variant, LAWVERE, sig, tuple(rules))


BARYCENTRIC_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                    Fraction(2, 3), Fraction(3, 4), Fraction(1))


def make_barycentric() -> RewriteSystem:
    """Probabilistic choice: projection, commutativity, reassociation, and
    weighted left-perturbation (emitted at its minimal weight e)."""
    x, y, z = _v("x"), _v("y"), _v("z")

    def plus(e, a: Term, b: Term) -> Term:
        p = e if isinstance(e, Fraction) else parse_expr(e)
        return Application(Symbol("+", 2, (p,)), (a, b))

    return RewriteSystem(
        name="barycentric",
        quantale=LAWVERE,
        signature=(SymbolFamily("+", 2, ("e",), infix=True),),
        rules=(
            Rule("proj", plus(Fraction(1), x, y), x, Fraction(0)),
            Rule("comm", plus("e", x, y), plus("1 - e", y, x), Fraction(0),
                 params=("e",)),
            Rule("assoc",
                 plus("e2", plus("e1", x, y), z),
                 plus("e1 * e2", x,
                      plus("(e2 - e1 * e2) / (1 - e1 * e2)", y, z)),
                 Fraction(0),
                 params=("e1", "e2"),
                 conditions=(parse_comparison("0 < e1 < 1"),
                             parse_comparison("0 < e2 < 1"))),
            Rule("perturb", plus("e", x, y), plus("e", z, y),
                 parse_expr("e"), params=("e",)),
        ),
        grid=BARYCENTRIC_GRID,
    )


def make_bck() -> RewriteSystem:
    """Affine combinatory logic: B, C, K over a binary application."""
    x, y, z = _v("x"), _v("y"), _v("z")
    return RewriteSystem(
        name="bck",
        quantale=LAWVERE,
        signature=(
            SymbolFamily("app", 2, infix=True),
            SymbolFamily("B", 0),
            SymbolFamily("C", 0),
            SymbolFamily("K", 0),
        ),
        rules=(
            Rule("B", app2(_const("B"), x, y, z), app2(x, app2(y, z)),
                 Fraction(0)),
            Rule("C", app2(_const("C"), x, y, z), app2(app2(x, z), y),
                 Fraction(0)),
            Rule("K", app2(_const("K"), x, y), x, Fraction(0)),
        ),
    )


def make_bck_nat() -> RewriteSystem:
    """BCK extended with combinatory numerals and costly successor removal."""
    base = make_bck()
    x, y = _v("x"), _v("y")
    return RewriteSystem(
        name="bck-nat",
        quantale=LAWVERE,
        signature=base.signature + (
            SymbolFamily("Z", 0),
            SymbolFamily("S", 0),
            SymbolFamily("A", 0),
        ),
        rules=base.rules + (
            Rule("addZ", app2(_const("A"), x, _const("Z")), x, Fraction(0)),
            Rule("addS", app2(_const("A"), x, app2(_const("S"), y)),
                 app2(_const("S"), app2(_const("A"), x, y)), Fraction(0)),
            Rule("sdel", app2(_const("S"), x), x, Fraction(1)),
        ),
    )


def make_bck_w(base: Optional[RewriteSystem] = None) -> RewriteSystem:
    """Add the duplicating combinator W·x·y → x·y·y (breaks affineness)."""
    base = base if base is not None else make_bck_nat()
    x, y = _v("x"), _v("y")
    return RewriteSystem(
        name=base.name + "-w",
        quantale=base.quantale,
        signature=base.signature + (SymbolFamily("W", 0),),
        rules=base.rules + (
            Rule("W", app2(_const("W"), x, y), app2(x, y, y), Fraction(0)),
        ),
        grid=base.grid,
    )


TICK_GRID = tuple(Fraction(n) for n in range(6))


def make_ticking(terminating: bool = False) -> RewriteSystem:
    """Cost-counting writer operations w{n}; recounting from n to m costs
    |n-m|.  The terminating variant only recounts downward (m < n)."""
    x = _v("x")

    def w(n, t: Term) -> Term:
        p = n if isinstance(n, Fraction) else parse_expr(n)
        return Application(Symbol("w", 1, (p,)), (t,))

    conds = (parse_comparison("m < n"),) if terminating else ()
    return RewriteSystem(
        name="ticking-terminating" if terminating else "ticking",
        quantale=LAWVERE,
        signature=(SymbolFamily("w", 1, ("n",)), SymbolFamily("nil", 0)),
        rules=(
            Rule("drop0", w(Fraction(0), x), x, Fraction(0)),
            Rule("merge", w("n", w("m", x)), w("n + m", x), Fraction(0),
                 params=("m", "n")),
            Rule("recount", w("n", x), w("m", x), parse_expr("abs(n - m)"),
                 params=("m", "n"), conditions=conds),
        ),
        grid=TICK_GRID,
    )


def make_tick_simple() -> RewriteSystem:
    """A single unit-cost tick-removal rule."""
    x = _v("x")
    return RewriteSystem(
        name="tick",
        quantale=LAWVERE,
        signature=(SymbolFamily("tick", 1), SymbolFamily("nil", 0)),
        rules=(Rule("tick", _f("tick", x), x, Fraction(1)),),
    )


def make_semilattice() -> RewriteSystem:
    """Join-semilattice expansion over the max-cost quantale."""
    x, y, z = _v("x"), _v("y"), _v("z")

    def u(a: Term, b: Term) -> Term:
        return _f("un", a, b)

    return RewriteSystem(
        name="semilattice",
        quantale=STRONG_LAWVERE,
        signature=(
            SymbolFamily("un", 2, infix=True),
            SymbolFamily("a", 0),
            SymbolFamily("b", 0),
            SymbolFamily("c", 0),
        ),
        rules=(
            Rule("dup", x, u(x, x), Fraction(0)),
            Rule("assoc", u(u(x, y), z), u(x, u(y, z)), Fraction(0)),
            Rule("comm", u(x, y), u(y, x), Fraction(0)),
        ),
    )


W_GRID = tuple(Fraction(n) for n in range(4))


def make_graded_combinators() -> RewriteSystem:
    """Graded combinatory logic: the modality !{n} amplifies distances by n;
    combinators manage grades (contraction splits n+m, dereliction uses 1,
    digging factors n·m, promotion distributes over application)."""
    x, y, z = _v("x"), _v("y"), _v("z")

    def bang(n, t: Term) -> Term:
        p = n if isinstance(n, Fraction) else parse_expr(n)
        return Application(Symbol("!", 1, (p,)), (t,))

    def combi(name: str, *params: str) -> Term:
        ps = tuple(parse_expr(p) for p in params)
        return Application(Symbol(name, 0, ps), ())

    one = Fraction(1)
    sig = (
        SymbolFamily("app", 2, infix=True, grades=(one, one)),
        SymbolFamily("!", 1, ("n",), grades=(parse_expr("n"),)),
        SymbolFamily("B", 0),
        SymbolFamily("C", 0),
        SymbolFamily("K", 0),
        SymbolFamily("D", 0),
        SymbolFamily("I", 0),
        SymbolFamily("delta", 0, ("n", "m")),
        SymbolFamily("F", 0, ("n",)),
        SymbolFamily("W", 0, ("n", "m")),
    )
    rules = (
        Rule("B", app2(_const("B"), x, y, z), app2(x, app2(y, z)), Fraction(0)),
        Rule("C", app2(_const("C"), x, y, z), app2(app2(x, z), y), Fraction(0)),
        Rule("K", app2(_const("K"), x, bang(Fraction(0), y)), x, Fraction(0)),
        Rule("D", app2(_const("D"), bang(Fraction(1), x)), x, Fraction(0)),
        Rule("delta", app2(combi("delta", "n", "m"), bang("n * m", x)),
             bang("n", bang("m", x)), Fraction(0), params=("m", "n")),
        Rule("F", app2(combi("F", "n"), bang("n", x), bang("n", y)),
             bang("n", app2(x, y)), Fraction(0), params=("n",)),
        Rule("W", app2(combi("W", "n", "m"), x, bang("n + m", y)),
             app2(x, bang("n", y), bang("m", y)), Fraction(0),
             params=("m", "n")),
    )
    return RewriteSystem(
        "graded-combinators", LAWVERE, sig, rules, grid=W_GRID)


def make_linearity_example() -> RewriteSystem:
    """Two rules whose variable overlap breaks confluence quantitatively:
    collapsing f(x,x) to x competes with decaying e to i at cost 1."""
    x = _v("x")
    return RewriteSystem(
        name="linearity-example",
        quantale=LAWVERE,
        signature=(
            SymbolFamily("f", 2),
            SymbolFamily("e", 0),
            SymbolFamily("i", 0),
        ),
        rules=(
            Rule("collapse", _f("f", x, x), x, Fraction(0)),
            Rule("decay", _const("e"), _const("i"), Fraction(1)),
        ),
    )


CATALOG = {
    "nat": make_nat,
    "dna-levenshtein": lambda: make_dna("levenshtein"),
    "dna-hamming": lambda: make_dna("hamming"),
    "dna-eigen-mccaskill": lambda: make_dna("eigen_mccaskill"),
    "barycentric": make_barycentric,
    "bck": make_bck,
    "bck-nat": make_bck_nat,
    "bck-nat-w": make_bck_w,
    "ticking": make_ticking,
    "ticking-terminating": lambda: make_ticking(terminating=True),
    "tick": make_tick_simple,
    "semilattice": make_semilattice,
    "graded-combinators": make_graded_combinators,
    "linearity-example": make_linearity_example,
}
