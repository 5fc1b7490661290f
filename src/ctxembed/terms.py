"""First-order terms, positions, one-hole contexts and matching.

Terms are immutable trees over a signature of fixed-arity symbols, plus named
pattern variables.  Positions are tuples of 1-based child indices; the empty
tuple is the root.  A context is a term with exactly one hole; filling the
hole embeds a term, and merging two contexts nests the right one inside the
left one's hole.

Terms are hash-consed: equal terms are one object, so equality and hashing
are identity, and each App stores its depth when it is built.  The intern
table, its weak entries, its locked insertion and the base class ``_Interned``
serve the strategy nodes of ``ctxembed.strategy`` as well.
"""

from __future__ import annotations

import enum
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import product
from typing import Iterable, Optional, Union


class PositionError(ValueError):
    """A position does not exist in the term it was applied to."""


class SignatureError(ValueError):
    """A symbol occurs with inconsistent arities, or outside the signature."""


def fields_repr(obj) -> str:
    """The dataclass's form, ``Cls(field=value, ...)``, on an explicit stack
    of values and finished text.  Tuples, and values whose class uses this
    function as its ``repr``, are opened in place, so nesting costs no frames;
    anything else is written by ``repr``.  The fields are ``__match_args__``."""
    parts: list[str] = []
    stack: list = [obj]
    while stack:
        x = stack.pop()
        cls = type(x)
        if cls is str:
            parts.append(x)
            continue
        if cls is tuple:
            names, values = None, x
            parts.append("(")
            stack.append(",)" if len(x) == 1 else ")")
        else:
            names = cls.__match_args__
            values = [getattr(x, name) for name in names]
            parts.append(f"{cls.__name__}(")
            stack.append(")")
        # pieces go on the stack last first
        for k in range(len(values) - 1, -1, -1):
            v = values[k]
            stack.append(v if type(v) is tuple or type(v).__repr__ is fields_repr else repr(v))
            if names:
                stack.append(f"{names[k]}=")
            if k:
                stack.append(", ")
    return "".join(parts)


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------

# Terms and strategy nodes are hash-consed (Filliâtre & Conchon, "Type-safe
# modular hash-consing", 2006): the table maps a key to a weak reference to
# the one live value with that key.  Child terms and nodes are interned
# before their parent, so a key holds them by identity (variables and holes
# compare by value), and equality and hashing are those of the object.  A
# constructor reads the table itself, without a lock; only ``_insert``, on a
# miss, takes _LOCK.
_TABLE: dict[tuple, "_Ref"] = {}
_LOCK = threading.Lock()


class _Ref(weakref.ref):
    """A table entry: a weak reference that knows its key."""

    __slots__ = ("key",)


def _drop(ref: _Ref, table=_TABLE, remove=_remove_dead_weakref) -> None:
    # A value's death removes its entry, unless an equal value built since has
    # taken the key: only an entry holding a dead reference goes.  No lock:
    # a collection can run this while a thread holds _LOCK.
    remove(table, ref.key)


def _insert(key: tuple, value):
    """Enter ``value`` under ``key`` after a lookup missed, and return the
    live value for ``key``: an equal one another thread entered first, or
    ``value``."""
    ref = _Ref(value, _drop)
    ref.key = key
    with _LOCK:  # check again and insert, with no other insertion between
        won = _TABLE.setdefault(key, ref)
        if won is not ref:
            other = won()
            if other is not None:
                return other
            _TABLE[key] = ref  # in place of a dead entry whose callback has not run
    return value


class _Interned:
    """Base of terms and strategy nodes: interned values, frozen once built,
    which hash and compare by identity.  A subclass names its fields in
    ``__match_args__`` and sets its slots through their descriptors."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a copy or an unpickled value is built again, so it is the interned
        # one, and nothing but its fields is carried
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])

    __repr__ = fields_repr


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    """Pattern variable, written ?name."""

    name: str


class App(_Interned):
    """Application of a symbol to child terms; constants have no children.

    Terms are interned: building an App whose head and children equal those
    of a live one returns that one, so equality and hashing are identity.
    The depth is stored when the node is built, from its children's.
    """

    __slots__ = ("head", "args", "_depth")
    __match_args__ = ("head", "args")

    head: str
    args: tuple["CtxTerm", ...]

    def __new__(cls, head: str, args: tuple["CtxTerm", ...] = ()) -> "App":
        key = (head, args)
        ref = _TABLE.get(key)  # one dict read, atomic: a hit takes no lock
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        # the slots' own descriptors skip __setattr__
        node = _new(cls)
        _set_head(node, head)
        _set_args(node, args)
        d = 0
        for c in args:
            cd = c._depth + 1 if type(c) is App else 1
            if cd > d:
                d = cd
        _set_depth(node, d)
        return _insert(key, node)


_new = object.__new__
_set_head = App.head.__set__
_set_args = App.args.__set__
_set_depth = App._depth.__set__


@dataclass(frozen=True, slots=True)
class Hole:
    """The unique hole of a context."""


HOLE = Hole()

Term = Union[Var, App]
CtxTerm = Union[Var, App, Hole]
Position = tuple[int, ...]
EPSILON: Position = ()

Substitution = dict[str, Term]
Signature = dict[str, int]

DEFAULT_SIGNATURE: Signature = {"a": 0, "b": 0, "f": 1, "g": 2}


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------


def positions(t: CtxTerm) -> list[Position]:
    """All positions of ``t`` in pre-order; the root comes first."""
    out: list[Position] = []
    stack: list[tuple[CtxTerm, Position]] = [(t, EPSILON)]
    while stack:
        s, here = stack.pop()
        out.append(here)
        if isinstance(s, App):
            # reversed, so the leftmost child comes off the stack first
            for i in range(len(s.args), 0, -1):
                stack.append((s.args[i - 1], here + (i,)))
    return out


def subterm(t: CtxTerm, p: Position) -> CtxTerm:
    """Subterm of ``t`` at ``p``; raises PositionError when ``p`` is absent."""
    s = t
    for i in p:
        if not isinstance(s, App) or not 1 <= i <= len(s.args):
            raise PositionError(f"no position {'.'.join(map(str, p)) or 'eps'} in term")
        s = s.args[i - 1]
    return s


def replace(t: CtxTerm, p: Position, new: CtxTerm) -> CtxTerm:
    """Copy of ``t`` with the subterm at ``p`` replaced by ``new``."""
    path: list[App] = []
    for i in p:
        if type(t) is not App or not 1 <= i <= len(t.args):
            raise PositionError(f"no position {'.'.join(map(str, p[len(path):]))} in term")
        path.append(t)
        t = t.args[i - 1]
    k = len(p)
    while k:
        k -= 1
        node, i = path[k], p[k]
        args = node.args
        new = App(node.head, args[: i - 1] + (new,) + args[i:])
    return new


def depth(t: CtxTerm) -> int:
    """Depth of a term: 0 for variables and constants, 1+max over children.
    Stored on each App when it is built."""
    return t._depth if type(t) is App else 0


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def match(pattern: Term, subject: Term) -> Optional[Substitution]:
    """Match ``subject`` against ``pattern``.

    Repeated variables must bind equal subterms.  The binding lists the
    variables in the order of their first occurrence, left to right.

    >>> match(App("g", (Var("x"), Var("x"))), App("g", (App("a"), App("b")))) is None
    True
    """
    binding: Substitution = {}
    stack = [(pattern, subject)]
    while stack:
        u, t = stack.pop()
        if type(u) is Var:
            seen = binding.get(u.name)
            if seen is None:
                binding[u.name] = t
            elif seen != t:
                return None
        elif type(t) is App and u.head == t.head and len(u.args) == len(t.args):
            # reversed, so the leftmost pair comes off the stack first
            stack.extend(zip(reversed(u.args), reversed(t.args)))
        else:
            return None
    return binding


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


def _hole_positions(t: CtxTerm) -> list[Position]:
    """Positions of every hole in ``t``, in pre-order."""
    found: list[Position] = []
    # each entry carries its path as a linked list (index, parent's path)
    stack: list[tuple[CtxTerm, Optional[tuple]]] = [(t, None)]
    while stack:
        s, path = stack.pop()
        if type(s) is Hole:
            p: list[int] = []
            while path is not None:
                i, path = path
                p.append(i)
            found.append(tuple(reversed(p)))
        elif type(s) is App:
            for i in range(len(s.args), 0, -1):
                stack.append((s.args[i - 1], (i, path)))
    return found


@dataclass(frozen=True, slots=True)
class Context:
    """A term with exactly one hole, at ``hole_position``."""

    body: CtxTerm
    hole_position: Position = field(default=EPSILON, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        found = _hole_positions(self.body)
        if len(found) != 1:
            raise ValueError(f"context must contain exactly one hole, found {len(found)}")
        object.__setattr__(self, "hole_position", found[0])

    def fill(self, t: Term) -> Term:
        """Embed ``t`` at the hole."""
        return replace(self.body, self.hole_position, t)


BOX = Context(HOLE)


class MergePolicy(enum.Enum):
    """How two contexts combine when both insert at the same place."""

    NEST = "nest"
    LEFT_PROJECT = "leftproject"


def merge(left: Context, right: Context, policy: MergePolicy = MergePolicy.NEST) -> Context:
    """Merge two contexts.

    Under NEST the right context is plugged into the left one's hole, so the
    left context ends up outermost:

    >>> li = Context(App("list", (HOLE, App("i"))))
    >>> lj = Context(App("list", (HOLE, App("j"))))
    >>> merge(li, lj).body == App("list", (App("list", (HOLE, App("j"))), App("i")))
    True

    LEFT_PROJECT keeps the left context unchanged; it is the degenerate
    idempotent merge used to exercise the algebraic laws.
    """
    if policy is MergePolicy.LEFT_PROJECT:
        return left
    return Context(replace(left.body, left.hole_position, right.body))


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def infer_signature(terms: Iterable[CtxTerm]) -> Signature:
    """Collect symbol arities from ``terms``, rejecting inconsistent use."""
    sig: Signature = {}
    for t in terms:
        # pre-order, left to right: the first conflict met is the one reported
        stack = [t]
        while stack:
            s = stack.pop()
            if isinstance(s, App):
                seen = sig.get(s.head)
                if seen is None:
                    sig[s.head] = len(s.args)
                elif seen != len(s.args):
                    raise SignatureError(
                        f"symbol {s.head!r} used with arities {seen} and {len(s.args)}"
                    )
                stack.extend(reversed(s.args))
    return sig


def max_arity(sig: Signature) -> int:
    return max(sig.values(), default=0)


def check_signature(t: CtxTerm, sig: Signature) -> None:
    """Raise SignatureError when ``t`` uses a symbol outside ``sig``; the
    first such symbol in pre-order, left to right, is the one reported."""
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, App):
            if sig.get(s.head) != len(s.args):
                raise SignatureError(
                    f"symbol {s.head!r}/{len(s.args)} is not in the signature"
                )
            stack.extend(reversed(s.args))


def terms_up_to_depth(sig: Signature, n: int) -> list[Term]:
    """Every ground term of depth <= n, in a deterministic order."""
    by_symbol = sorted(sig.items())
    level: list[Term] = [App(name) for name, ar in by_symbol if ar == 0]
    for _ in range(n):
        level = level + [App(name, args) for name, ar in by_symbol if ar for args in product(level, repeat=ar)]
    return list(dict.fromkeys(level))
