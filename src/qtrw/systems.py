"""Ready-made example systems and the independent distance oracles.

The example systems are the files in ``samples/`` of the source checkout,
which is why this module needs the editable install; ``CATALOG`` maps the
stem of each file to a constructor:

* ``nat``: unary numerals with addition and unit-cost successor deletion;
* ``dna-levenshtein``, ``dna-hamming``, ``dna-eigen-mccaskill``: DNA strings
  as unary terms under unit-cost insertion, deletion and substitution,
  substitution only, or substitutions priced by the purine/pyrimidine
  mutation table;
* ``barycentric``: probabilistic choice with projection, commutativity,
  reassociation and a left perturbation weighted by its parameter;
* ``bck``, ``bck-nat``, ``bck-nat-w``: affine combinatory logic, extended
  with combinatory numerals and costly successor removal, then with the
  duplicating combinator ``W`` (which breaks affineness);
* ``ticking``, ``ticking-terminating``: cost-counting writer operations
  ``w{n}`` where recounting from n to m costs |n - m| (downward only in the
  terminating variant); ``tick``: one unit-cost tick removal;
* ``semilattice``: join-semilattice expansion over the max-cost quantale;
* ``graded-combinators``: graded combinatory logic, where ``!{n}`` amplifies
  distances by n and the combinators manage grades;
* ``linearity-example``: collapsing ``f(x,x)`` to ``x`` against decaying
  ``e`` to ``i`` at cost 1, a variable overlap that breaks confluence
  quantitatively.

Each file is parsed once per process, and every call returns a fresh copy
(``RewriteSystem.copy``).  The copies of one file share what is compiled
from its rules: the rule indexes, the self-inverse test, the invariants and
the potential are each built once, on first use by any copy.  Each copy
owns its step cache, empty at the start.

The oracles are deliberately naive, textbook implementations: they exist to
cross-check the search engine, so they share no code with it.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Optional

from .dsl import parse_system
from .qtrs import RewriteSystem
from .term import Application, Symbol, Term


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

SAMPLES = Path(__file__).resolve().parents[2] / "samples"


@functools.lru_cache(maxsize=None)
def _parsed(name: str) -> RewriteSystem:
    return parse_system((SAMPLES / f"{name}.qtrs").read_text())


def _fresh(name: str) -> RewriteSystem:
    return _parsed(name).copy()


CATALOG = {name: functools.partial(_fresh, name) for name in (
    "nat", "dna-levenshtein", "dna-hamming", "dna-eigen-mccaskill",
    "barycentric", "bck", "bck-nat", "bck-nat-w", "ticking",
    "ticking-terminating", "tick", "semilattice", "graded-combinators",
    "linearity-example")}


def make_dna(variant: str = "levenshtein") -> RewriteSystem:
    if variant not in ("levenshtein", "hamming", "eigen_mccaskill"):
        raise ValueError(f"unknown DNA variant {variant!r}")
    return _fresh("dna-" + variant.replace("_", "-"))


def make_nat() -> RewriteSystem:
    return _fresh("nat")


def make_barycentric() -> RewriteSystem:
    return _fresh("barycentric")


def make_bck() -> RewriteSystem:
    return _fresh("bck")


def make_bck_nat() -> RewriteSystem:
    return _fresh("bck-nat")


def make_bck_w() -> RewriteSystem:
    return _fresh("bck-nat-w")


def make_semilattice() -> RewriteSystem:
    return _fresh("semilattice")


def make_graded_combinators() -> RewriteSystem:
    return _fresh("graded-combinators")


def make_linearity_example() -> RewriteSystem:
    return _fresh("linearity-example")
