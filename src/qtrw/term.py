"""First-order terms, positions, substitution, matching, and unification.

Terms are immutable.  Positions are 1-indexed tuples of integers (the empty
tuple addresses the root).  Function symbols may carry rational parameters
(symbol families such as the probabilistic choice operators ``+{1/2}`` or
the usage modalities ``!{3}``); in rule patterns those parameter slots may
hold expressions over schema parameters, while fully concrete terms always
carry plain ``Fraction`` values.

Applications are hash-consed: constructing ``Application(symbol, args)``
returns the one live instance with that symbol and those arguments, kept in
a process-wide table of weak references, so structurally equal applications
are the same object; symbols are interned the same way.  Equality is
identity, and the hash, the node count and the name mask are fields
computed at construction.  Terms are therefore dictionary keys themselves
and define no ordering.  The name mask tells which symbol families occur in
a term: each family name owns one bit of an int, handed out in order of
first use by a table kept beside the symbol table (``name_bit``), and an
application's mask ORs its symbol's bit with its arguments' masks; a
variable's is 0.  A walk that looks for some names passes over every
subterm whose mask holds none of their bits (``subterms_meeting``).  The
string form is rendered on first demand, without recursion, and cached on
every node it renders; it is for output and for sorts that fix an
observable order (``key=str``), and ``term_key`` names that use.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import (ClassVar, Dict, Iterator, List, Optional, Set, Tuple,
                    TypeAlias, Union)

from .ratexpr import Env, Expr, ExprError, Param

Position = Tuple[int, ...]
ROOT: Position = ()


class TermError(Exception):
    pass


# a string, as ``typing`` would cache the alias with this import's classes
ParamSlot: TypeAlias = "Union[Fraction, Expr]"


class Symbol:
    """A function symbol instance: family name, arity, concrete parameters.

    Interned like applications: ``Symbol(name, arity, params)`` returns the
    one live symbol with those fields, so equality is identity."""

    __slots__ = ("name", "arity", "params", "_hash", "_bit", "_str",
                 "__weakref__")

    name: str
    arity: int
    params: Tuple[ParamSlot, ...]

    def __new__(cls, name: str, arity: int,
                params: Tuple[ParamSlot, ...] = ()) -> "Symbol":
        if type(params) is not tuple:
            params = tuple(params)
        key = (name, arity, params)
        sym = _SYMBOLS.get(key)
        if sym is not None:
            return sym
        sym = object.__new__(cls)
        init = object.__setattr__
        init(sym, "name", name)
        init(sym, "arity", arity)
        init(sym, "params", params)
        init(sym, "_hash", hash(key))
        init(sym, "_bit", name_bit(name))
        if params:
            init(sym, "_str", f"{name}{{{','.join(str(p) for p in params)}}}")
        else:
            init(sym, "_str", name)
        _SYMBOLS[key] = sym
        return sym

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a symbol")

    __delattr__ = __setattr__  # type: ignore[assignment]

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copies and unpickled symbols go through the table again
        return Symbol, (self.name, self.arity, self.params)

    def __repr__(self) -> str:
        return (f"Symbol(name={self.name!r}, arity={self.arity!r},"
                f" params={self.params!r})")

    def __str__(self) -> str:
        return self._str


# (name, arity, params) -> the live symbol with those fields
_SYMBOLS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

# family name -> its bit in name masks, in order of first use; never freed,
# as a process meets few family names
_NAME_BITS: Dict[str, int] = {}


def name_bit(name: str) -> int:
    """The bit of family ``name`` in name masks; a name met for the first
    time takes the next free bit.  Independent of the string hash, so masks
    are the same under every ``PYTHONHASHSEED``."""
    bit = _NAME_BITS.get(name)
    if bit is None:
        bit = _NAME_BITS[name] = 1 << len(_NAME_BITS)
    return bit


@dataclass(frozen=True)
class Variable:
    name: str

    _size: ClassVar[int] = 1
    _mask: ClassVar[int] = 0

    def __str__(self) -> str:
        return self.name


class _AppRef(weakref.ref):
    """An intern-table entry: a weak reference to an application, with the
    application's hash and the next entry under the same hash."""

    __slots__ = ("hash", "next")


def _forget(entry: _AppRef) -> None:
    """Unlink the entry of an application that died."""
    head = _TABLE.get(entry.hash)
    if head is entry:
        if entry.next is None:
            del _TABLE[entry.hash]
        else:
            _TABLE[entry.hash] = entry.next
        return
    while head is not None and head.next is not entry:
        head = head.next
    if head is not None:
        head.next = entry.next


class Application:
    """A function symbol applied to argument terms; hash-consed.  Besides
    its hash and node count, each application keeps its name mask
    (``_mask``): the bits (``name_bit``) of the family names that occur in
    it."""

    __slots__ = ("symbol", "args", "_hash", "_size", "_mask", "_str",
                 "__weakref__")

    symbol: Symbol
    args: Tuple["Term", ...]

    def __new__(cls, symbol: Symbol, args: Tuple["Term", ...]) -> "Application":
        if type(args) is not tuple:
            args = tuple(args)
        h = hash((symbol, args))
        entry = _TABLE.get(h)
        while entry is not None:
            t = entry()
            if t is not None and t.symbol is symbol and t.args == args:
                return t
            entry = entry.next
        if len(args) != symbol.arity:
            raise TermError(
                f"symbol {symbol} expects {symbol.arity} arguments,"
                f" got {len(args)}")
        size, mask = 1, symbol._bit
        for a in args:
            size += a._size
            mask |= a._mask
        t = object.__new__(cls)
        init = object.__setattr__
        init(t, "symbol", symbol)
        init(t, "args", args)
        init(t, "_hash", h)
        init(t, "_size", size)
        init(t, "_mask", mask)
        init(t, "_str", None)
        entry = _AppRef(t, _forget)
        entry.hash, entry.next = h, _TABLE.get(h)
        _TABLE[h] = entry
        return t

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a term")

    __delattr__ = __setattr__  # type: ignore[assignment]

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copies and unpickled terms go through the table again
        return Application, (self.symbol, self.args)

    def __repr__(self) -> str:
        return f"Application({str(self)!r})"

    def __str__(self) -> str:
        s = self._str
        return s if s is not None else _render(self)


# a string, as ``typing`` would cache the alias with this import's classes
Term: TypeAlias = "Union[Variable, Application]"

Substitution: TypeAlias = "Dict[str, Term]"

# hash of (symbol, args) -> the entries of the live applications with that
# hash, chained through ``_AppRef.next``
_TABLE: Dict[int, _AppRef] = {}


def _render(t: Application) -> str:
    """Render ``t`` in post-order without recursion, caching every node."""
    stack = [t]
    while stack:
        node = stack[-1]
        todo = [a for a in node.args
                if isinstance(a, Application) and a._str is None]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if node._str is None:
            s = str(node.symbol)
            if node.args:
                s = f"{s}({','.join([str(a) for a in node.args])})"
            object.__setattr__(node, "_str", s)
    return t._str  # type: ignore[return-value]


def app(symbol: Symbol, *args: Term) -> Application:
    return Application(symbol, tuple(args))


def term_key(t: Term) -> str:
    """Canonical string form, for output: the keys of public results and
    the order of sorted output.  Internally terms are their own keys."""
    return str(t)


def term_size(t: Term) -> int:
    return t._size  # type: ignore[union-attr]


def subterms(t: Term) -> Iterator[Tuple[Position, Term]]:
    """Every (position, subterm) pair of ``t`` in pre-order, left to right;
    iterative, so term depth is not bounded by the recursion limit.  So is
    every walk in this module but ``apply_substitution`` and
    ``instantiate_params``: the engine only applies those to rule sides."""
    stack = [(ROOT, t)]
    while stack:
        p, s = stack.pop()
        yield p, s
        if isinstance(s, Application):
            args = s.args
            for i in range(len(args), 0, -1):
                stack.append((p + (i,), args[i - 1]))


def subterms_meeting(t: Term, mask: int) -> Iterator[Tuple[Position, Term]]:
    """The (position, subterm) pairs of ``subterms(t)``, in the same order,
    whose name mask shares a bit with ``mask``: a subterm that holds no
    name of those bits, and so none of its own subterms does, is passed
    over without entering it.  Variables have mask 0 and never meet."""
    stack = [(ROOT, t)] if t._mask & mask else []
    while stack:
        p, s = stack.pop()
        yield p, s
        args = s.args  # type: ignore[union-attr]
        for i in range(len(args), 0, -1):
            a = args[i - 1]
            if a._mask & mask:
                stack.append((p + (i,), a))


def positions(t: Term) -> List[Position]:
    return [p for p, _ in subterms(t)]


def function_positions(t: Term) -> List[Position]:
    return [p for p, s in subterms(t) if isinstance(s, Application)]


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if not isinstance(t, Application) or not 1 <= i <= len(t.args):
            raise TermError(f"invalid position {p} in {t}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, s: Term) -> Term:
    path: List[Application] = []
    cur = t
    for i in p:
        if not isinstance(cur, Application) or not 1 <= i <= len(cur.args):
            raise TermError(f"invalid position {p} in {t}")
        path.append(cur)
        cur = cur.args[i - 1]
    for node, i in zip(reversed(path), reversed(p)):
        args = node.args
        s = Application(node.symbol, args[:i - 1] + (s,) + args[i:])
    return s


def preorder(t: Term) -> Iterator[Term]:
    """Every subterm occurrence of ``t`` in pre-order, left to right, like
    ``subterms`` but without positions."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Application):
            stack.extend(reversed(s.args))


def variables(t: Term) -> Set[str]:
    out: Set[str] = set()
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Variable):
            out.add(s.name)
        else:
            stack.extend(s.args)
    return out


def is_linear(t: Term) -> bool:
    names = [s.name for s in preorder(t) if isinstance(s, Variable)]
    return len(names) == len(set(names))


def is_ground(t: Term) -> bool:
    return not any(isinstance(s, Variable) for s in preorder(t))


def apply_substitution(t: Term, sigma: Substitution) -> Term:
    if isinstance(t, Variable):
        return sigma.get(t.name, t)
    args = tuple([apply_substitution(a, sigma) for a in t.args])
    return t if args == t.args else Application(t.symbol, args)


def instantiate_params(t: Term, env: Env) -> Term:
    """Evaluate every expression-valued symbol parameter under ``env``."""
    if isinstance(t, Variable):
        return t
    sym = t.symbol
    if sym.params and not all(isinstance(p, Fraction) for p in sym.params):
        sym = Symbol(sym.name, sym.arity, tuple(
            p if isinstance(p, Fraction) else p.evaluate(env)
            for p in sym.params))
    args = tuple([instantiate_params(a, env) for a in t.args])
    if sym is t.symbol and args == t.args:
        return t
    return Application(sym, args)


# ---------------------------------------------------------------------------
# matching


def match(pattern: Term, subject: Term) -> Optional[Tuple[Substitution, Env]]:
    """Match ``pattern`` against ``subject``.

    Returns bindings for the pattern's variables and for any schema
    parameters occurring in its symbol slots, or None.  A compound parameter
    expression (e.g. ``n*m``) is checked after its parameters were bound by
    earlier (left-to-right) bare occurrences; if it still has unbound
    parameters, the match fails.
    """
    sigma: Substitution = {}
    env: Env = {}
    # pre-order, left to right, without recursion: an inner ``walk`` closure
    # would refer to itself, and every call would leave a reference cycle
    # holding its bindings until the next cyclic garbage collection
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Variable):
            bound = sigma.get(p.name)
            if bound is None:
                sigma[p.name] = s
            elif bound != s:
                return None
            continue
        if not isinstance(s, Application):
            return None
        if p.symbol.name != s.symbol.name or p.symbol.arity != s.symbol.arity:
            return None
        if len(p.symbol.params) != len(s.symbol.params):
            return None
        for pslot, sval in zip(p.symbol.params, s.symbol.params):
            if not isinstance(sval, Fraction):
                return None  # subject must be concrete
            if isinstance(pslot, Fraction):
                if pslot != sval:
                    return None
            elif isinstance(pslot, Param):
                bound_v = env.get(pslot.name)
                if bound_v is None:
                    env[pslot.name] = sval
                elif bound_v != sval:
                    return None
            else:
                try:
                    if pslot.evaluate(env) != sval:
                        return None
                except ExprError:
                    return None
        stack.extend(reversed(tuple(zip(p.args, s.args))))
    return sigma, env


# ---------------------------------------------------------------------------
# unification (concrete terms only; symbol parameters compare exactly)


def unify(t: Term, s: Term) -> Optional[Substitution]:
    """Most general unifier with occurs-check, or None.

    >>> f = Symbol("f", 2)
    >>> x, y, a, b = Variable("x"), Variable("y"), Symbol("a", 0), Symbol("b", 0)
    >>> sigma = unify(app(f, x, app(a)), app(f, app(b), y))
    >>> sorted((k, str(v)) for k, v in sigma.items())
    [('x', 'b'), ('y', 'a')]
    >>> unify(x, app(f, x, x)) is None
    True
    """
    sigma: Substitution = {}
    stack = [(t, s)]
    while stack:
        a, b = stack.pop()
        a = apply_substitution(a, sigma)
        b = apply_substitution(b, sigma)
        if a == b:
            continue
        if isinstance(a, Variable):
            if a.name in variables(b):
                return None
            bind = {a.name: b}
            sigma = {x: apply_substitution(v, bind) for x, v in sigma.items()}
            sigma[a.name] = b
        elif isinstance(b, Variable):
            stack.append((b, a))
        else:
            if (a.symbol.name != b.symbol.name
                    or a.symbol.arity != b.symbol.arity
                    or a.symbol.params != b.symbol.params):
                return None
            stack.extend(zip(a.args, b.args))
    return sigma


# ---------------------------------------------------------------------------
# renaming


class Renamer:
    """Fresh-variable supply for renaming rules apart.

    The only mutable state in this module; confine one instance to each
    renaming session so outputs stay deterministic.
    """

    def __init__(self) -> None:
        self._counter = 0

    def fresh(self, base: str, avoid: Set[str]) -> str:
        base = base.rstrip("0123456789")
        while True:
            name = f"{base}{self._counter}"
            self._counter += 1
            if name not in avoid:
                return name

    def rename_apart(
        self, terms: List[Term], avoid: Set[str]
    ) -> Tuple[List[Term], Substitution]:
        """Rename all variables of ``terms`` away from ``avoid``."""
        mapping: Substitution = {}
        used = set(avoid)
        for t in terms:
            for v in sorted(variables(t)):
                if v not in mapping:
                    name = self.fresh(v, used)
                    used.add(name)
                    mapping[v] = Variable(name)
        return [apply_substitution(t, mapping) for t in terms], mapping
