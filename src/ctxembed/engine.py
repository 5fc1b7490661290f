"""Prioritized reduction system for unifying and combining strategies.

``unify(S, R)`` builds a single strategy that, where both inputs succeed,
performs the work of both (contexts merged inside-out, left outermost), and
fails elsewhere.  ``combine(S, R)`` additionally falls back to either input
alone.  A rule fires on a pair of strategies (plus a memory of already-opened
fixed-point pairs), chosen by strict priority, and opens sub-problems; each
sub-problem is solved where the rule opens it, left to right, and the rule's
output is built from the finished results, so reduction is deterministic.

A rule returns data: its finished output, or a builder and the sub-problems
whose results it takes, and ``solve`` is one loop over an explicit stack.

Termination is enforced, not assumed: ``solve`` measures each sub-problem
just before solving it and asserts that the measure

    (lambda, delta(left), delta(right))

is strictly below that of the pair whose rule opened it.
lambda counts not-yet-opened fixed-point pairs (closure sizes minus the memory
entries still relevant to the pair) and delta is the (star height, tree depth)
pair.  A violation raises ``EngineError`` instead of looping.

Each call first builds one closure table, in one walk over both inputs
(``_table``): it numbers every strategy either input can reach, unfolding
each fixed point once, and stores phi of every numbered node as a bitset; a
measure is a few popcounts and bit tests on that table.  The same walk gives
rules 8a/8b their unfoldings and the names their new binders must avoid, and
``phi`` is that walk from one strategy.

The inputs are taken as they are given, neither renamed apart nor required
to be linear.  Every sub-problem is closed: a rule descends only through
constructors that bind nothing, and rules 8a/8b replace a fixed point by its
closed unfolding.  So no input binder can capture a variable of the output,
and each new binder takes a name neither input uses.

A result about one strategy node is stored on that node (``strategy``
keeps a node's simplification and validation there), and a result keyed by
anything else lives in a ``functools.lru_cache``.  So a repeated call is
answered from ``_reduced``, an ``lru_cache`` of at most 16 entries from
(left, right, policy, arity bound) to the raw, unsimplified output of the
reduction; when full it drops the entry used least recently.  Strategy nodes
are interned, so equal inputs are one object and a lookup compares
identities.  An ``lru_cache`` stores only a call that returned: a hit means
both inputs passed the admissibility gate and every measure of that
reduction decreased, and a rejected input or a stopped reduction raises
again on every call.  A call with a trace runs the same function unwrapped,
so it always reduces and leaves the cache as it was.  The cache keeps its
inputs and outputs alive until it drops them.  ``combine`` reaches it
through ``unify``, so ``combine`` after ``unify`` of the same pair reduces
once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

from ctxembed.strategy import (
    FAIL_S,
    Choice,
    Conj,
    Guard,
    IfThen,
    Ins,
    Most,
    Mu,
    SFail,
    Strat,
    SVar,
    ValidationFailure,
    fresh_names,
    simplify as simplify_strategy,
    subst_var,
    validate,
)
from ctxembed.terms import DEFAULT_SIGNATURE, MergePolicy, Signature, max_arity, merge


class EngineError(RuntimeError):
    """The reduction system violated one of its own invariants."""


_PHI_CAP = 100_000
_MAX_STEPS = 1_000_000

Measure = tuple[int, tuple[int, int], tuple[int, int]]
# A rule's output: finished, or a builder and the sub-problems (one or more)
# whose results it takes, in order.  A sub-problem (left, right, memory, at)
# is a pair, the memory it is solved under and where its result sits.
Problem = tuple[Strat, Strat, frozenset, tuple[int, ...]]
Output = Union[Strat, tuple[Callable[..., Strat], tuple[Problem, ...]]]


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def phi(s: Strat) -> frozenset:
    """All strategies reachable by the reduction from ``s`` on one side.

    Fixed points contribute both their body and their one-step unfolding;
    the result is finite because unfolding only ever reintroduces ``s``.
    """
    return frozenset(_table(s)[0])


def _table(*roots: Strat) -> tuple[dict, list[int], dict, int, int, set]:
    """The closure table of everything ``roots`` reach, from one walk:
    (number, closure, unfoldings, mus, svars, taken) as ``_Engine`` keeps them.

    The walk numbers a node when it first meets it and gives a fixed point
    its one-step unfolding there, as one more edge out.  It is Tarjan's
    strongly connected components with the depth-first calls on an explicit
    stack, ``calls``; ``stack`` holds the numbers not yet in a component,
    and a component is its top down to the first node of it the walk met.
    A component is complete only after every component it reaches, so its
    closure is its own nodes plus the closures of its edges out (Purdom
    1970), and is set for all of them at once.  Until then ``closure[k]``
    gathers what node ``k``'s edges out reach, and ``low[k]`` is the least
    number on ``stack`` that ``k`` reaches back to (``_PHI_CAP``, above
    every number, once ``k`` is in a component).
    """
    number: dict[Strat, int] = {}
    unfoldings: dict[Mu, Strat] = {}
    taken: set[str] = set()
    mus = svars = 0  # bitsets of the fixed points and of the variables
    low: list[int] = []
    closure: list[int] = []
    stack: list[int] = []
    calls: list[tuple[int, Iterator[Strat]]] = []
    for node in roots:
        if node in number:
            continue
        while True:
            if node is not None:
                k = len(low)
                if k >= _PHI_CAP:
                    raise EngineError("closure exceeded size cap")
                number[node] = k
                kids = node.kids
                if isinstance(node, Mu):
                    unfoldings[node] = unfolding = subst_var(node.body, node.var, node)
                    kids += (unfolding,)
                    mus |= 1 << k
                    taken.add(node.var)
                elif isinstance(node, SVar):
                    svars |= 1 << k
                    taken.add(node.name)
                low.append(k)
                closure.append(0)
                stack.append(k)
                calls.append((k, iter(kids)))
            v, edges = calls[-1]
            for node in edges:
                j = number.get(node)
                if j is None:
                    break
                closure[v] |= closure[j]
                if low[j] < low[v]:
                    low[v] = low[j]
            else:
                node = None
                calls.pop()
                if low[v] == v:
                    bits, w = closure[v], -1
                    component = []
                    while w != v:
                        w = stack.pop()
                        bits |= 1 << w
                        component.append(w)
                    for w in component:
                        closure[w], low[w] = bits, _PHI_CAP
                if not calls:
                    break
                u = calls[-1][0]
                closure[u] |= closure[v]
                if low[v] < low[u]:
                    low[u] = low[v]
    return number, closure, unfoldings, mus, svars, taken


# ---------------------------------------------------------------------------
# rule machinery
# ---------------------------------------------------------------------------


def _gate(s: Strat, r: Strat, body: Strat) -> Strat:
    """``body`` under an IfThen for each of ``s``, ``r`` that can fail; it
    sits at ``_under_gates(s, r)``."""
    for cond in (r, s):
        if not cond.never_fails:
            body = IfThen(cond, body)
    return body


def _under_gates(s: Strat, r: Strat) -> tuple[int, ...]:
    return (2,) * ((not s.never_fails) + (not r.never_fails))


class _Engine:
    """One ``unify`` call: the rules and the closure table of both inputs.

    ``_table`` walks both inputs once and gives the rest: ``number`` numbers
    every node either input reaches, ``closure[k]`` is phi of node ``k`` as a
    bitset over those numbers, ``unfoldings`` maps each fixed point to its
    one-step unfolding, ``mus`` and ``svars`` are the bitsets of the fixed
    points and of the variables, and ``taken`` holds every variable name of
    both inputs plus the binder names made so far; ``binder_names`` draws
    the next of those.
    """

    def __init__(
        self, policy: MergePolicy, arity_bound: int, left: Strat, right: Strat,
        trace: Optional[list],
    ):
        self.policy = policy
        self.arity_bound = arity_bound
        self.trace = trace
        self.steps = 0
        self.number, self.closure, self.unfoldings, self.mus, self.svars, self.taken = _table(
            left, right
        )
        self.binder_names = fresh_names("Z", self.taken)

    def measure(self, left: Strat, right: Strat, memory: frozenset) -> Measure:
        """(lambda, delta(left), delta(right)) of a pair.

        lambda is |mus(phi_l)| * |phi_r| + |phi_l| * |mus(phi_r)| less the
        memory entries (a, b) still relevant to the pair: a is a fixed point
        of phi_l and b a non-variable of phi_r, or the other way round.
        """
        number = self.number
        phi_l, phi_r = self.closure[number[left]], self.closure[number[right]]
        mu_l, mu_r = phi_l & self.mus, phi_r & self.mus
        rest_l, rest_r = phi_l & ~self.svars, phi_r & ~self.svars
        lam = mu_l.bit_count() * phi_r.bit_count() + phi_l.bit_count() * mu_r.bit_count()
        for a, b, _ in memory:
            i, j = number[a], number[b]
            if (mu_l >> i & rest_r >> j | rest_l >> i & mu_r >> j) & 1:
                lam -= 1
        return (lam, (left.star_height, left.tree_depth), (right.star_height, right.tree_depth))

    def solve(self, s: Strat, r: Strat) -> Strat:
        """The unification of ``s`` and ``r``.  ``waiting`` holds the rules
        whose sub-problems are not all solved: (rule, measure and place of the
        pair it fired on, the trace's opened children, builder, sub-problems,
        results so far).  A place is the pair's position as the trace writes
        it, ``eps`` at the root; a child's is its parent's with the child's
        ``at`` appended.  Without a trace, the place stays ``eps`` and the
        opened children None."""
        mem: frozenset = frozenset()
        focus, place = self.measure(s, r, mem), "eps"
        waiting: list[tuple] = []
        while True:
            if self.steps >= _MAX_STEPS:
                raise EngineError("reduction exceeded the step cap")
            self.steps += 1
            rule, out = self.step(s, r, mem)
            opened: Optional[list] = None
            if self.trace is not None:
                opened = []
                self.trace.append(
                    {
                        "rule": rule,
                        "path": place,
                        "lambda": focus[0],
                        "dl": list(focus[1]),
                        "dr": list(focus[2]),
                        "mem": len(mem),
                        "children": opened,
                    }
                )
            if type(out) is tuple:
                waiting.append((rule, focus, place, opened, *out, []))
            else:
                while waiting:
                    results = waiting[-1][6]
                    results.append(out)
                    if len(results) < len(waiting[-1][5]):
                        break
                    out = waiting.pop()[4](*results)
                else:
                    return out
            # the next sub-problem of the rule on top
            rule, focus, place, opened, _, subs, results = waiting[-1]
            s, r, mem, at = subs[len(results)]
            kid = self.measure(s, r, mem)
            if not kid < focus:
                raise EngineError(f"measure failed to decrease at rule {rule}: {focus} -> {kid}")
            if opened is not None:
                opened.append([kid[0], list(kid[1]), list(kid[2])])
                dotted = ".".join(map(str, at))
                place = dotted if place == "eps" else f"{place}.{dotted}"
            focus = kid

    def entries(self, s: Strat) -> tuple:
        """The entries of ``s`` read as a map: a Most's body at every child
        index, an insertion at the root."""
        if isinstance(s, Most):
            return tuple((i, s.body) for i in range(1, self.arity_bound + 1))
        return s.entries if isinstance(s, Conj) else ((None, s),)

    def combine_conjs(self, s: Strat, r: Strat, mem: frozenset) -> Output:
        """Rules 4b, 7b and 7c: ``s`` and ``r`` as maps, entry by entry; an
        index both maps use opens the joint of its two entries."""
        l_entries, r_entries = self.entries(s), self.entries(r)
        l_num = [(i, b) for i, b in l_entries if i is not None]
        r_num = [(j, b) for j, b in r_entries if j is not None]
        l_eps = [b for i, b in l_entries if i is None]
        r_eps = [b for j, b in r_entries if j is None]
        lmap, rmap = dict(l_num), dict(r_num)
        shared = [(i, b, rmap[i]) for i, b in l_num if i in rmap]
        rest = [(i, b) for i, b in l_num if i not in rmap] + [(j, b) for j, b in r_num if j not in lmap]
        if l_eps and r_eps:
            rest.append((None, Ins(merge(l_eps[0].ctx, r_eps[0].ctx, self.policy))))
        elif l_eps:
            rest.append((None, l_eps[0]))
        elif r_eps:
            rest.append((None, r_eps[0]))

        def build(*joints: Strat) -> Strat:
            out = [(i, Choice(Choice(j, b), c)) for (i, b, c), j in zip(shared, joints)]
            return _gate(s, r, Conj(tuple(out + rest)))

        if not shared:
            return build()
        at = _under_gates(s, r)
        return build, tuple((b, c, mem, at + (k, 1, 1)) for k, (_, b, c) in enumerate(shared, 1))

    def bind(self, s: Strat, r: Strat, mem: frozenset, left: Strat, right: Strat) -> Output:
        """The variable of the binder opened for the pair (s, r), or a new
        binder for it whose body solves (left, right), named when it opens."""
        for a, b, z in mem:
            if a == s and b == r:
                return SVar(z)
        z = next(self.binder_names)
        return lambda body: Mu(z, body), ((left, right, mem | {(s, r, z)}, (1,)),)

    def step(self, s: Strat, r: Strat, mem: frozenset) -> tuple[str, Output]:
        """The rule that fires on (s, r) and its output."""
        if isinstance(s, SFail):
            return "1a", FAIL_S
        if isinstance(r, SFail):
            return "1b", FAIL_S
        if isinstance(s, Ins) and isinstance(r, Ins):
            return "2", Ins(merge(s.ctx, r.ctx, self.policy))
        if isinstance(s, Guard):
            return "3a", (lambda body: Guard(s.pattern, body), ((s.body, r, mem, (1,)),))
        if isinstance(r, Guard):
            return "3b", (lambda body: Guard(r.pattern, body), ((s, r.body, mem, (1,)),))
        if isinstance(s, (Conj, Ins)) and isinstance(r, (Conj, Ins)):
            if (
                isinstance(s, Conj)
                and isinstance(r, Conj)
                and len(s.entries) == len(r.entries) == 1
                and s.entries[0][0] is not None
                and s.entries[0][0] == r.entries[0][0]
            ):
                i, sb = s.entries[0]
                _, rb = r.entries[0]
                return "4a", (lambda body: Conj(((i, body),)), ((sb, rb, mem, (1,)),))
            return "4b", self.combine_conjs(s, r, mem)
        if isinstance(s, Choice):
            return "5a", (Choice, ((s.left, r, mem, (1,)), (s.right, r, mem, (2,))))
        if isinstance(r, Choice):
            return "5b", (Choice, ((s, r.left, mem, (1,)), (s, r.right, mem, (2,))))
        if isinstance(s, IfThen):
            return "6a", (lambda body: IfThen(s.cond, body), ((s.body, r, mem, (2,)),))
        if isinstance(r, IfThen):
            return "6b", (lambda body: IfThen(r.cond, body), ((s, r.body, mem, (2,)),))
        if isinstance(s, Most) and isinstance(r, Most):
            at = _under_gates(s, r) + (1, 1, 1)
            return "7a", (
                lambda joint: _gate(s, r, Most(Choice(Choice(joint, s.body), r.body))),
                ((s.body, r.body, mem, at),),
            )
        if isinstance(s, Most) and isinstance(r, (Conj, Ins)):
            if self.arity_bound == 0:
                return "7b", FAIL_S
            return "7b", self.combine_conjs(s, r, mem)
        if isinstance(s, (Conj, Ins)) and isinstance(r, Most):
            if self.arity_bound == 0:
                return "7c", FAIL_S
            return "7c", self.combine_conjs(s, r, mem)
        if isinstance(s, Mu):
            return "8a", self.bind(s, r, mem, self.unfoldings[s], r)
        if isinstance(r, Mu):
            return "8b", self.bind(s, r, mem, s, self.unfoldings[r])
        raise EngineError(f"no rule applies to {s!r} / {r!r}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _require_valid(s: Strat, side: str) -> None:
    v = validate(s)
    if not v.closed:
        raise ValidationFailure(f"{side} strategy is open: {sorted(s.free)}")
    if not v.monotone:
        raise ValidationFailure(f"{side} strategy is not monotone")
    if not v.well_founded:
        raise ValidationFailure(f"{side} strategy has a malformed conjunction")
    if not v.insertion_entries:
        raise ValidationFailure(f"{side} strategy has a root map entry that is not an insertion")


@lru_cache(maxsize=16)
def _reduced(
    s: Strat, r: Strat, policy: MergePolicy, arity_bound: int, trace: Optional[list] = None
) -> Strat:
    """The raw output of the reduction of ``s`` and ``r``, once both pass
    the admissibility gate."""
    _require_valid(s, "left")
    _require_valid(r, "right")
    return _Engine(policy, arity_bound, s, r, trace).solve(s, r)


def unify(
    s: Strat,
    r: Strat,
    *,
    policy: MergePolicy = MergePolicy.NEST,
    signature: Optional[Signature] = None,
    simplify_output: bool = True,
    trace: Optional[list] = None,
) -> Strat:
    """The strategy that performs both ``s`` and ``r`` where both succeed."""
    arity_bound = max_arity(DEFAULT_SIGNATURE if signature is None else signature)
    if trace is None:
        out = _reduced(s, r, policy, arity_bound)
    else:
        out = _reduced.__wrapped__(s, r, policy, arity_bound, trace)
    return simplify_strategy(out) if simplify_output else out


def combine(
    s: Strat,
    r: Strat,
    *,
    policy: MergePolicy = MergePolicy.NEST,
    signature: Optional[Signature] = None,
    simplify_output: bool = True,
    trace: Optional[list] = None,
) -> Strat:
    """Both where possible, otherwise left, otherwise right."""
    u = unify(
        s, r, policy=policy, signature=signature, simplify_output=False, trace=trace
    )
    out = Choice(Choice(u, s), r)
    return simplify_strategy(out) if simplify_output else out
