"""The strategy language: syntax tree, executable semantics, and measures.

A strategy navigates a subject term without changing it and embeds one-hole
contexts at the positions it reaches.  The constructors:

* ``FAIL_S``        -- the strategy that always fails
* ``SVar(X)``       -- a fixed-point variable
* ``Ins(tau)``      -- embed context ``tau`` at the current position
* ``Guard(u, S)``   -- run ``S`` when the subject matches pattern ``u``
* ``Choice(l, r)``  -- left-biased alternative
* ``Mu(X, S)``      -- fixed point; on ``t`` it means ``S`` iterated depth(t)
                       times (``mu_iterate``), run with ``X`` bound in an
                       environment instead of substituted
* ``Conj(entries)`` -- apply sub-strategies at child indices (``None`` = here),
                       skipping failures, failing only when all entries fail
* ``Most(S)``       -- apply ``S`` at every immediate child where it succeeds
* ``IfThen(c, b)``  -- run ``b`` when ``c`` would succeed; ``c`` is run for
                       success only, so its term is never built, and not at
                       all when its syntax forces success

``eval_strategy`` rejects an open strategy before evaluation starts.  It
answers a repeated call from a memo on the strategy node: a closed node
other than a leaf keeps its results by term, failures included, at most
``_MEMO_CAP`` of them (the memo is emptied when full), and the memo lives
and dies with its node.  Only the node ``eval_strategy`` was called on gets
one: inner nodes keep no evaluation memo.  A closed condition keeps its
success by term instead, in its ``holds`` map, bounded the same way, so a
condition that gates many outputs runs once per subject; an open condition
depends on its environment and stores nothing.  ψ (``ctxembed.translate``)
reads neither, so the homomorphism suite compares two evaluations that share
no stored result.  In the same way a node keeps its concrete syntax once
``syntax.print_strategy`` has printed it, its ``Validation`` once
``validate`` has checked it, and its simplification once ``simplify`` has
rewritten it; ``simplify`` stops at a node that holds one, alone or inside a
larger strategy.  A stored result never leads back to its node, so reference
counting alone frees both.  None of these takes a lock:
each stores the one result of a pure function, so threads that race store
equal results.

``jump(p, S)`` builds the derived form @p.S as nested single-entry
conjunctions.

Strategies are interned by the mechanism that interns terms
(``ctxembed.terms``): one weak table keyed by (class, *fields), whose entries
go when their nodes die, a lookup without a lock and an insertion under one,
and the base class ``_Interned``, which freezes a node and pickles it by its
fields.  Building a node whose class and fields equal those of a live node
returns that node, so structurally equal strategies are one object and
equality and hashing are identity, O(1) at any depth.
Each node stores its children (``kids``, left to right) and six facts when it
is built, from its fields and its children's facts: ``free`` (its free
variables), ``star_height`` (the deepest binder nesting), ``tree_depth`` (the
constructor depth, binders not counted, Most counted as a map of jumps),
``simple`` (no node in it is a redex of ``simplify``, so ``simplify`` returns
it as it is), and whether the syntax alone forces success on every term
(``never_fails``) or failure on every arity-0 term (``fails_on_constants``).
A miss in the intern table builds the node in one step: the builder of its
class sets the fields and the seven stored values straight from the
arguments and the children's stored values.  Every rewriting pass, and the
JSON encoding, is one children-first pass; ``repr`` is ``terms.fields_repr``,
on an explicit stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Optional, Union

from ctxembed.terms import _TABLE, App, Context, Position, Term, _insert, _Interned, depth, match


class ValidationFailure(ValueError):
    """A strategy does not satisfy a required structural property."""


_NO_NAMES: frozenset[str] = frozenset()


class _Node(_Interned):
    """Base of the strategy constructors: interning, the stored facts, and
    the results stored by a call on the node: the evaluation memo
    (``eval_strategy``), the success of the node as a condition
    (``holds``, filled by ``_eval``), the printed text
    (``syntax.print_strategy``), the simplification (``simplify``) and the
    validation (``validate``)."""

    __slots__ = ("kids", "free", "star_height", "tree_depth", "simple", "never_fails", "fails_on_constants",
                 "memo", "holds", "printed", "simplified", "validation")

    def __new__(cls, *args):
        # interned in the table of ``ctxembed.terms`` under (class, *fields)
        key = (cls, *args)
        ref = _TABLE.get(key)  # one dict read, atomic: a hit takes no lock
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        build, arity = _BUILDERS[cls]
        if len(args) != arity:
            raise TypeError(f"{cls.__name__} takes {arity} fields, got {len(args)}")
        return _insert(key, build(*args))


class SFail(_Node):
    __slots__ = __match_args__ = ()


class SVar(_Node):
    __slots__ = __match_args__ = ("name",)
    name: str


class Ins(_Node):
    __slots__ = __match_args__ = ("ctx",)
    ctx: Context


class Guard(_Node):
    __slots__ = __match_args__ = ("pattern", "body")
    pattern: Term
    body: "Strat"


class Choice(_Node):
    __slots__ = __match_args__ = ("left", "right")
    left: "Strat"
    right: "Strat"


class Mu(_Node):
    __slots__ = __match_args__ = ("var", "body")
    var: str
    body: "Strat"


class Conj(_Node):
    """Indexed entries; index None targets the current position (root).

    A map has at least one entry, and each index is None or an ``int`` of
    at least 1; any other map raises ``ValueError`` when built.
    """

    __slots__ = __match_args__ = ("entries",)
    entries: tuple[tuple[Optional[int], "Strat"], ...]


class Most(_Node):
    __slots__ = __match_args__ = ("body",)
    body: "Strat"


class IfThen(_Node):
    __slots__ = __match_args__ = ("cond", "body")
    cond: "Strat"
    body: "Strat"


Strat = Union[SFail, SVar, Ins, Guard, Choice, Mu, Conj, Most, IfThen]


def jump(p: Position, body: Strat) -> Strat:
    """The derived jump @p.S; the root position gives a single None entry."""
    if not p:
        return Conj(((None, body),))
    out = body
    for i in reversed(p):
        out = Conj(((i, out),))
    return out


# ---------------------------------------------------------------------------
# building a node
# ---------------------------------------------------------------------------

# A miss in the intern table calls its class's builder, which makes the node
# and sets its fields and stored values from the arguments and the children's
# stored values.  Slots are set through their own descriptors, which skip the
# frozen base's __setattr__; a builder takes its fields' setters as
# defaults, so they are locals.  Constructor depth counts a node one level
# above its deepest child, a binder none and Most two (a map of jumps).  As
# for what the syntax forces: a binder fails on constants outright (the zero
# iterate fails), a compound guard pattern matches no leaf, child entries and
# Most have no child there, and a free variable is unknown.
_new = object.__new__
_set_kids = _Node.kids.__set__
_set_free = _Node.free.__set__
_set_height = _Node.star_height.__set__
_set_depth = _Node.tree_depth.__set__
_set_simple = _Node.simple.__set__
_set_never = _Node.never_fails.__set__
_set_foc = _Node.fails_on_constants.__set__
_set_memo = _Node.memo.__set__
_set_holds = _Node.holds.__set__
_set_printed = _Node.printed.__set__
_set_simplified = _Node.simplified.__set__
_set_validation = _Node.validation.__set__


def _stored(cls, kids, free, height, tdepth, simple, never, foc):
    """A new ``cls`` node with its seven stored values set, no memo, no
    stored condition success, no printed text, no stored simplification or
    validation, fields unset."""
    node = _new(cls)
    _set_kids(node, kids)
    _set_free(node, free)
    _set_height(node, height)
    _set_depth(node, tdepth)
    _set_simple(node, simple)
    _set_never(node, never)
    _set_foc(node, foc)
    _set_memo(node, None)
    _set_holds(node, None)
    _set_printed(node, None)
    _set_simplified(node, None)
    _set_validation(node, None)
    return node


def _build_fail():
    return _stored(SFail, (), _NO_NAMES, 0, 0, True, False, True)


def _build_var(name, _set=SVar.name.__set__):
    node = _stored(SVar, (), frozenset((name,)), 0, 0, True, False, False)
    _set(node, name)
    return node


def _build_ins(ctx, _set=Ins.ctx.__set__):
    node = _stored(Ins, (), _NO_NAMES, 0, 1, True, True, False)
    _set(node, ctx)
    return node


def _build_guard(pattern, body, _set_pattern=Guard.pattern.__set__, _set_body=Guard.body.__set__):
    compound = isinstance(pattern, App) and bool(pattern.args)
    node = _stored(Guard, (body,), body.free, body.star_height, body.tree_depth + 1, body.simple,
                   False, compound or body.fails_on_constants)
    _set_pattern(node, pattern)
    _set_body(node, body)
    return node


def _build_choice(left, right, _set_left=Choice.left.__set__, _set_right=Choice.right.__set__):
    lf, rf = left.free, right.free
    lh, rh = left.star_height, right.star_height
    ld, rd = left.tree_depth, right.tree_depth
    # simplify drops a failing alternative
    simple = left.simple and right.simple and left is not FAIL_S and right is not FAIL_S
    node = _stored(Choice, (left, right), lf | rf if lf and rf else lf or rf, lh if lh > rh else rh,
                   (ld if ld > rd else rd) + 1, simple, left.never_fails or right.never_fails,
                   left.fails_on_constants and right.fails_on_constants)
    _set_left(node, left)
    _set_right(node, right)
    return node


def _build_mu(var, body, _set_var=Mu.var.__set__, _set_body=Mu.body.__set__):
    free = body.free
    used = var in free
    # simplify drops an unused binder over a body that fails on constants
    simple = body.simple and (used or not body.fails_on_constants)
    node = _stored(Mu, (body,), free - {var} if used else free, body.star_height + 1, body.tree_depth,
                   simple, False, True)
    _set_var(node, var)
    _set_body(node, body)
    return node


def _build_conj(entries, _set=Conj.entries.__set__):
    # only a map the concrete syntax can write is built
    if not entries:
        raise ValueError("a map needs at least one entry")
    free, height, tdepth, simple = _NO_NAMES, 0, 0, True
    never, foc = False, True  # only root entries act on a constant; a map succeeds when one does
    for i, kid in entries:
        if i is not None and (type(i) is not int or i < 1):
            raise ValueError(f"a map index is None or an int of at least 1, not {i!r}")
        if kid.free:
            free = free | kid.free if free else kid.free
        if kid.star_height > height:
            height = kid.star_height
        if kid.tree_depth > tdepth:
            tdepth = kid.tree_depth
        if not kid.simple:
            simple = False
        if i is None:
            never, foc = never or kid.never_fails, foc and kid.fails_on_constants
    node = _stored(Conj, tuple([b for _, b in entries]), free, height, tdepth + 1, simple, never, foc)
    _set(node, entries)
    return node


def _build_most(body, _set=Most.body.__set__):
    node = _stored(Most, (body,), body.free, body.star_height, body.tree_depth + 2, body.simple, False, True)
    _set(node, body)
    return node


def _build_ifthen(cond, body, _set_cond=IfThen.cond.__set__, _set_body=IfThen.body.__set__):
    cf, bf = cond.free, body.free
    ch, bh = cond.star_height, body.star_height
    cd, bd = cond.tree_depth, body.tree_depth
    node = _stored(IfThen, (cond, body), cf | bf if cf and bf else cf or bf, ch if ch > bh else bh,
                   (cd if cd > bd else bd) + 1, cond.simple and body.simple,
                   cond.never_fails and body.never_fails, cond.fails_on_constants or body.fails_on_constants)
    _set_cond(node, cond)
    _set_body(node, body)
    return node


# each class's builder and its number of fields
_BUILDERS: dict[type, tuple[Callable[..., Strat], int]] = {
    cls: (build, len(cls.__match_args__)) for cls, build in (
        (SFail, _build_fail), (SVar, _build_var), (Ins, _build_ins), (Guard, _build_guard),
        (Choice, _build_choice), (Mu, _build_mu), (Conj, _build_conj), (Most, _build_most),
        (IfThen, _build_ifthen),
    )
}


FAIL_S = SFail()


def children(s: Strat) -> tuple[Strat, ...]:
    """The immediate sub-strategies of ``s``, left to right."""
    return s.kids


def rebuild(s: Strat, kids: tuple[Strat, ...]) -> Strat:
    """``s`` with its sub-strategies replaced; ``s`` itself when none changed."""
    if kids == s.kids:  # node equality is identity
        return s
    if isinstance(s, Conj):
        return Conj(tuple((i, k) for (i, _), k in zip(s.entries, kids)))
    if isinstance(s, Guard):
        return Guard(s.pattern, kids[0])
    if isinstance(s, Mu):
        return Mu(s.var, kids[0])
    return type(s)(*kids)


def _children_first(s: Strat, f: Callable[[Strat, tuple], Any],
                    known: Optional[Callable[[Strat], Any]] = None) -> Any:
    """``f(node, its children's results)`` once per distinct node of ``s``,
    children before their parent, on an explicit stack; the result of ``s``
    comes back.  Where ``known(node)`` is not None it is the node's result,
    and the node's children are not visited.  The memo lasts one call."""
    memo: dict[Strat, Any] = {}
    stack: list = [s]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, kids = node
            memo[node] = f(node, tuple([memo[c] for c in kids]))
        elif node not in memo:
            got = None if known is None else known(node)
            if got is not None:
                memo[node] = got
            else:
                # (node, children) comes back off the stack once they are done
                kids = node.kids
                stack.append((node, kids))
                stack.extend(kids)
    return memo[s]


def nodes(s: Strat) -> Iterator[Strat]:
    """Every distinct node of ``s`` once, ``s`` first; siblings come out right
    to left.  A shared node comes out where the walk first meets it, so the
    order is that of the whole tree with repeated nodes left out."""
    seen: set[Strat] = set()
    stack = [s]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        yield node
        stack.extend(node.kids)


# ---------------------------------------------------------------------------
# variables and substitution
# ---------------------------------------------------------------------------

def bound_vars(s: Strat) -> set[str]:
    return {node.var for node in nodes(s) if isinstance(node, Mu)}


def subst_var(s: Strat, var: str, rep: Strat) -> Strat:
    """Replace free occurrences of ``var`` by ``rep`` (binders shadow).

    Subtrees without a free ``var`` come back as the same objects.
    """
    return _children_first(s, lambda node, kids: rep if isinstance(node, SVar) else rebuild(node, kids),
                           lambda node: None if var in node.free else node)


def mu_iterate(var: str, body: Strat, n: int) -> Strat:
    """The n-th iterate of a binder body: 0 is failure, n+1 substitutes n.

    This is the reference semantics of fixed points: ``Mu(var, body)`` on
    ``t`` means ``mu_iterate(var, body, depth(t))`` on ``t``.  Evaluation
    and the translation use an environment instead; the stabilization and
    unfolding suites compare them against this definition.
    """
    out = FAIL_S
    for _ in range(n):
        out = subst_var(body, var, out)
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


# A fixed-point variable's binding: the binder body, the environment the
# binder ran in, and how many more times reaching the variable may run it.
Env = dict[str, tuple[Strat, "Env", int]]

# the results a node's memo holds before it is emptied
_MEMO_CAP = 1024
# a memo lookup's default: None is a stored failure
_MISS = object()


def eval_strategy(s: Strat, t: Term) -> Optional[Term]:
    """Run a closed strategy on a term; None is failure.

    An open strategy is rejected before evaluation starts, whichever
    branches would run: ``ValidationFailure`` names the least free variable.

    Fixed points run in an environment: ``Mu(X, S)`` on ``t`` fails when
    depth(t) is 0 and otherwise runs ``S`` with ``X`` bound to ``S``, the
    binder's environment and depth(t) - 1 iterations left.  Reaching ``X``
    runs ``S`` in that environment with one iteration fewer, and fails when
    none are left.  The result is that of the substituted iterate
    ``mu_iterate(X, S, depth(t))``, the reference semantics, which is never
    built here.

    The condition of ``IfThen(c, b)`` is run for success only: its term is
    thrown away, so inside it an insertion fills no context and a map or
    ``Most`` stops at its first succeeding entry and rebuilds nothing.  A
    condition whose syntax forces success (``never_fails``) is not run.  A
    closed condition's success on an ``App`` subject is stored on the
    condition node, in its ``holds`` map, the term as the key and a bool as
    the value, once the run returns, so an exception is never stored.  The
    map is emptied when it holds ``_MEMO_CAP`` answers and dies with its
    node.  An open condition reads the environment, so it is run every time
    and stores nothing.

    A repeated call returns the stored result, the same object: a closed node
    other than a leaf keeps a memo from an ``App`` subject, the term itself as
    the key, to its result, failure included.  Only this function reads or
    fills it, on its own argument, after the open-strategy check and after
    evaluation returns, so an exception is never stored, and inner nodes,
    conditions and ``eval_strategy(td(s), t)`` leave the memo of ``s`` as it
    was; a condition's answers go to its ``holds`` map instead.  The memo
    lives as long as the node and holds terms only; it is emptied when it
    holds ``_MEMO_CAP`` results.
    """
    if s.free:
        raise ValidationFailure(f"cannot evaluate open strategy (free {min(s.free)})")
    if not s.kids or type(t) is not App:  # a leaf or a variable: no memo
        return _eval(s, t, {}, True)
    # No lock: an entry is the one result of a pure function, so a race
    # between threads can only lose an entry or store an equal one again.
    memo = s.memo
    if memo is None:
        memo = {}
        _set_memo(s, memo)
    else:
        got = memo.get(t, _MISS)
        if got is not _MISS:
            return got
        if len(memo) >= _MEMO_CAP:
            memo.clear()
    got = _eval(s, t, {}, True)
    memo[t] = got
    return got


def _eval(s: Strat, t: Term, env: Env, whole: bool) -> Optional[Term]:
    # With whole false only success counts: any term stands for it, and t is
    # returned.  Tail positions rebind s and env and loop instead of
    # recursing, so an unfolding costs no Python frame of its own.  Maps and
    # Most run their entries in this same frame: one frame per term level.
    # The tests go on the exact type, most frequent first.
    while True:
        cls = type(s)
        if cls is Choice:
            got = _eval(s.left, t, env, whole)
            if got is not None:
                return got
            s = s.right
        elif cls is Conj:
            # The entries apply left to right to the running result, and the
            # map fails only when every entry fails on the unmodified input.
            # Until the first entry succeeds the running result is that input,
            # so one pass evaluates each entry once and settles both the gate
            # and the result.
            out, hit = t, False
            for i, b in s.entries:
                if i is None:
                    got = _eval(b, out, env, whole)
                elif type(out) is App and 1 <= i <= len(out.args):
                    got = _eval(b, out.args[i - 1], env, whole)
                    if got is not None and whole:
                        got = App(out.head, out.args[: i - 1] + (got,) + out.args[i:])
                else:
                    continue
                if got is not None:
                    if not whole:
                        return t
                    out, hit = got, True
            return out if hit else None
        elif cls is Ins:
            return s.ctx.fill(t) if whole else t
        elif cls is SVar:
            # the strategy is closed, so every variable reached is bound
            name = s.name
            s, defined, left = env[name]
            if left == 0:
                return None
            env = {**defined, name: (s, defined, left - 1)}
        elif cls is Guard:
            if match(s.pattern, t) is None:
                return None
            s = s.body
        elif cls is Mu:
            n = depth(t)
            if n == 0:
                return None
            env = {**env, s.var: (s.body, env, n - 1)}
            s = s.body
        elif cls is Most:
            # the body at each child, left to right; fails when all of them fail
            if type(t) is not App:
                return None
            body, args, new = s.body, t.args, None
            for k, c in enumerate(args):
                got = _eval(body, c, env, whole)
                if got is not None:
                    if not whole:
                        return t
                    if new is None:
                        new = list(args)
                    new[k] = got
            return None if new is None else App(t.head, tuple(new))
        elif cls is IfThen:
            c = s.cond
            if c.never_fails:
                pass  # its syntax forces success: nothing to run
            elif c.free or type(t) is not App:
                # an open condition reads env; a variable subject keeps no
                # memo, as in eval_strategy
                if _eval(c, t, env, False) is None:
                    return None
            else:
                # a closed condition's success on t, stored on it; see
                # eval_strategy
                holds = c.holds
                if holds is None:
                    holds = {}
                    _set_holds(c, holds)
                ok = holds.get(t)
                if ok is None:
                    if len(holds) >= _MEMO_CAP:
                        holds.clear()
                    ok = holds[t] = _eval(c, t, env, False) is not None
                if not ok:
                    return None
            s = s.body
        elif cls is SFail:
            return None
        else:
            raise TypeError(f"not a strategy: {s!r}")


def fresh_names(base: str, taken: set[str]) -> Iterator[str]:
    """Each next name is the first of ``base``, ``base2``, ``base3``, ... not
    in ``taken``, which is then added to ``taken``.  The scan resumes where
    the last name was drawn: while ``taken`` only grows, every name before
    that is still taken."""
    name, k = base, 2
    while True:
        if name not in taken:
            taken.add(name)
            yield name
        name, k = f"{base}{k}", k + 1


def td(s: Strat) -> Strat:
    """Top-down driver: try ``s`` here, else at the topmost children it fits."""
    name = next(fresh_names("X", set(s.free) | bound_vars(s)))
    return Mu(name, Choice(s, Most(SVar(name))))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Validation:
    """Structural conditions of a strategy, one field each.

    ``ok`` is exactly what the reduction engine requires of an input: closed,
    monotone, well-founded maps and insertions as the only root map entries.
    The engine needs neither linearity nor renaming its inputs apart: every
    sub-problem it opens is a pair of closed strategies, so an input's binder
    can capture nothing, and each binder it makes takes a name its pair does
    not reach.
    """

    closed: bool
    monotone: bool
    well_founded: bool
    insertion_entries: bool

    @property
    def ok(self) -> bool:
        return self.closed and self.monotone and self.well_founded and self.insertion_entries


def _monotone_at(m: Mu) -> bool:
    """The binder's variable occurs only past a child index (numbered entry or most)."""
    seen: set[Strat] = set()
    stack = [m.body]
    while stack:
        node = stack.pop()
        if m.var not in node.free or node in seen:
            continue
        seen.add(node)
        if isinstance(node, SVar):
            return False
        if isinstance(node, Conj):
            stack.extend(b for i, b in node.entries if i is None)
        elif not isinstance(node, Most):
            stack.extend(node.kids)
    return True


def _well_founded_at(c: Conj) -> bool:
    """The map's indices are distinct, and a root entry comes last."""
    idxs = [i for i, _ in c.entries]
    return len(set(idxs)) == len(idxs) and (None not in idxs or idxs[-1] is None)


def validate(s: Strat) -> Validation:
    """Check the structural side conditions the reduction engine relies on.

    The result is stored on ``s``, in its ``validation`` slot, so a repeated
    call returns it without walking ``s`` again, and it dies with ``s``.
    Only ``s`` stores one: the nodes inside it are walked, not validated.
    """
    v = s.validation
    if v is not None:
        return v
    binders: list[Mu] = []
    maps: list[Conj] = []
    for node in nodes(s):
        if isinstance(node, Mu):
            binders.append(node)
        elif isinstance(node, Conj):
            maps.append(node)
    v = Validation(
        closed=not s.free,
        monotone=all(map(_monotone_at, binders)),
        well_founded=all(map(_well_founded_at, maps)),
        insertion_entries=all(
            isinstance(b, Ins) for c in maps for i, b in c.entries if i is None
        ),
    )
    _set_validation(s, v)
    return v


# ---------------------------------------------------------------------------
# unfolding and simplification
# ---------------------------------------------------------------------------


def _binder_free(node: Strat) -> Optional[Strat]:
    """``node`` itself when it holds no binder, which a pass over binders
    leaves as it is; else None."""
    return None if node.star_height else node


def unfold(s: Strat, counts: Mapping[str, int]) -> Strat:
    """Replace each binder by a finite iterate; counts maps binder names, and
    a binder missing from it raises KeyError."""
    return _children_first(s, lambda node, kids: (
        mu_iterate(node.var, kids[0], counts[node.var]) if isinstance(node, Mu) else rebuild(node, kids)
    ), _binder_free)


def simplify(s: Strat) -> Strat:
    """Remove removable unused binders and prune failing alternatives.

    An unused binder only disappears when its body fails on every constant:
    the zero iterate makes every fixed point fail on arity-0 terms, so
    dropping mu from a body that succeeds there would change the semantics.
    Shared subtrees are simplified once, children before their parent.

    The pass stores its result on each node it rewrites, in the node's
    ``simplified`` slot, so the result lives and dies with that node.  It
    stops at a node that holds a stored result, which it returns, and at a
    simple node, which it would leave as it is and which stores nothing.  A
    node that is not simple always simplifies to another node, made of
    simple nodes only, so no node stores itself and no stored result leads
    back to the node that holds it.
    """
    return _children_first(s, _simplify_and_store, _known_simplification)


def _known_simplification(node: Strat) -> Optional[Strat]:
    return node if node.simple else node.simplified


def _simplify_and_store(node: Strat, kids: tuple[Strat, ...]) -> Strat:
    out = _simplify_node(node, kids)
    _set_simplified(node, out)
    return out


def _simplify_node(node: Strat, kids: tuple[Strat, ...]) -> Strat:
    if isinstance(node, Choice):
        if isinstance(kids[0], SFail):
            return kids[1]
        if isinstance(kids[1], SFail):
            return kids[0]
    elif isinstance(node, Mu) and node.var not in kids[0].free and kids[0].fails_on_constants:
        return kids[0]
    return rebuild(node, kids)


# ---------------------------------------------------------------------------
# alpha renaming
# ---------------------------------------------------------------------------


def _rename_binders(s: Strat, taken: set[str]) -> Strat:
    """``s`` with every binder named after its star height, which strictly
    decreases along every path, so no binder shadows another.  The names are
    drawn from outside ``taken``, which holds every name in ``s``, so none
    captures a free variable.  A node's renaming depends on the node alone."""
    names: list[str] = []
    k = 0
    while len(names) < s.star_height:
        k += 1
        if f"V{k}" not in taken:
            names.append(f"V{k}")

    def rename(node: Strat, kids: tuple[Strat, ...]) -> Strat:
        if not isinstance(node, Mu):
            return rebuild(node, kids)
        name = names[node.star_height - 1]
        return Mu(name, subst_var(kids[0], node.var, SVar(name)))

    return _children_first(s, rename, _binder_free)


def alpha_rename(s: Strat, avoid: set[str]) -> Strat:
    """Rename binders so no bound name lies in ``avoid``; deterministic."""
    return _rename_binders(s, set(avoid) | s.free | bound_vars(s))


def alpha_eq(s1: Strat, s2: Strat) -> bool:
    """Equality up to consistent renaming of bound variables."""
    taken = s1.free | s2.free | bound_vars(s1) | bound_vars(s2)
    return _rename_binders(s1, taken) is _rename_binders(s2, taken)
