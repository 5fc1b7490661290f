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
rules 8a/8b their unfoldings.  ``phi`` walks one strategy's nodes and
unfoldings without building a table.

The inputs are taken as they are given, neither renamed apart nor required
to be linear.  Every sub-problem is closed: a rule descends only through
constructors that bind nothing, and rules 8a/8b replace a fixed point by its
closed unfolding.  An output variable is never placed inside an input
fragment, and an input fragment is closed, so no binder of either side can
capture a variable of the other: a binder only has to avoid the names of the
output binders around it.  Those are exactly the memory's, so a binder
opened under a memory of k entries is named ``Z`` when k is 0 and ``Z{k+1}``
otherwise; it may shadow an input's binder of the same name.  A binder's
name is thus a function of its sub-problem, not of what the call, or an
earlier call, named before.

A result about one strategy node is stored on that node (``strategy``
keeps a node's simplification and validation there), and a result keyed by
anything else lives in a bounded memo.  The engine's memo is ``_solved``, a
plain dict from (left, right, policy, arity bound) to the raw, unsimplified
output of a pair solved under an empty memory.  A lookup is one ``get``, and
a store into a memo that holds ``_SOLVED_CAP`` entries first empties it, as
``strategy`` empties a node's memo.  It takes no lock: the output for a key
is a pure function of the key, so threads that race can only store equal
outputs, or leave a few entries past the cap for the next store to empty.  Such a pair has no output binder around it, so its output is
closed and depends on the pair alone, and ``solve`` looks each one up
before stepping it and stores its output once its rule has finished, if the
rule opened sub-problems: a pair that a rule answers at once costs one step
to solve again, and is stored only as the root.  The root pair is one of
them: ``unify`` looks it up after the admissibility gate and before
building the table, so a repeated call builds nothing.  Strategy nodes are
interned, so equal inputs are one object and a lookup compares identities.
Only a finished pair is stored: a rejected input or a stopped reduction
raises again on every call.  A hit still passes the measure check of the
rule that opened it.  A call with a trace neither reads nor stores the
memo, so it reduces every pair.  The memo keeps its pairs and outputs alive
until it is emptied.  ``combine`` reaches it through ``unify``, so
``combine`` after ``unify`` of the same pair reduces once, and a nested
build reduces once each pair that an earlier call already solved under an
empty memory.
"""

from __future__ import annotations

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
    simplify as simplify_strategy,
    subst_var,
    validate,
)
from ctxembed.terms import DEFAULT_SIGNATURE, MergePolicy, Signature, max_arity, merge


class EngineError(RuntimeError):
    """The reduction system violated one of its own invariants."""


_PHI_CAP = 100_000
_MAX_STEPS = 1_000_000
_SOLVED_CAP = 256

Measure = tuple[int, tuple[int, int], tuple[int, int]]
# A rule's output: finished, or a builder and the sub-problems (one or more)
# whose results it takes, in order.  A sub-problem (left, right, memory, at)
# is a pair, the memory it is solved under and where its result sits.
Problem = tuple[Strat, Strat, frozenset, tuple[int, ...]]
Output = Union[Strat, tuple[Callable[..., Strat], tuple[Problem, ...]]]
# (left, right, policy, arity bound) of a pair solved under an empty memory
Key = tuple[Strat, Strat, MergePolicy, int]

_solved: dict[Key, Strat] = {}


def _store(key: Key, out: Strat) -> None:
    if len(_solved) >= _SOLVED_CAP:
        _solved.clear()
    _solved[key] = out


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def phi(s: Strat) -> frozenset:
    """All strategies reachable by the reduction from ``s`` on one side.

    Fixed points contribute both their body and their one-step unfolding;
    the result is finite because unfolding only ever reintroduces ``s``.
    """
    seen, work = {s}, [s]
    while work:
        node = work.pop()
        kids = node.kids
        if isinstance(node, Mu):
            kids += (subst_var(node.body, node.var, node),)
        for kid in kids:
            if kid not in seen:
                seen.add(kid)
                work.append(kid)
    return frozenset(seen)


def _table(*roots: Strat) -> tuple[dict, list[int], dict, int]:
    """The closure table of everything ``roots`` reach, from one walk:
    (number, closure, unfoldings, mus) as ``_Engine`` keeps them.

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
    mus = 0  # the bitset of the fixed points
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
    return number, closure, unfoldings, mus


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
    one-step unfolding, and ``mus`` is the bitset of the fixed points.
    """

    def __init__(
        self, policy: MergePolicy, arity_bound: int, left: Strat, right: Strat,
        trace: Optional[list],
    ):
        self.policy = policy
        self.arity_bound = arity_bound
        self.trace = trace
        self.steps = 0
        self.number, self.closure, self.unfoldings, self.mus = _table(left, right)

    def measure(self, left: Strat, right: Strat, memory: frozenset) -> Measure:
        """(lambda, delta(left), delta(right)) of a pair.

        lambda is |mus(phi_l)| * |phi_r| + |phi_l| * |mus(phi_r)| less the
        memory entries (a, b) still relevant to the pair: a is a fixed point
        of phi_l and b a non-variable of phi_r, or the other way round.  A
        memory entry is a pair, and every pair is closed, so neither side of
        it is a variable and only the fixed-point half needs a test.
        """
        number = self.number
        phi_l, phi_r = self.closure[number[left]], self.closure[number[right]]
        mu_l, mu_r = phi_l & self.mus, phi_r & self.mus
        lam = mu_l.bit_count() * phi_r.bit_count() + phi_l.bit_count() * mu_r.bit_count()
        for a, b, _ in memory:
            i, j = number[a], number[b]
            if (mu_l >> i & phi_r >> j | phi_l >> i & mu_r >> j) & 1:
                lam -= 1
        return (lam, (left.star_height, left.tree_depth), (right.star_height, right.tree_depth))

    def solve(self, s: Strat, r: Strat) -> Strat:
        """The unification of ``s`` and ``r``.  ``waiting`` holds the rules
        whose sub-problems are not all solved: (rule, measure and place of the
        pair it fired on, the trace's opened children, the pair's memo key,
        builder, sub-problems, results so far).  A place is the pair's
        position as the trace writes it, ``eps`` at the root; a child's is its
        parent's with the child's ``at`` appended.  Without a trace, the place
        stays ``eps`` and the opened children None.  A pair has a key when
        it is solved under an empty memory and without a trace: it is looked
        up before it is stepped, and its output is stored once its rule has
        finished, if the rule opened sub-problems or the pair is the
        root."""
        policy, arity_bound, memo = self.policy, self.arity_bound, self.trace is None
        mem: frozenset = frozenset()
        focus, place = self.measure(s, r, mem), "eps"
        waiting: list[tuple] = []
        while True:
            key = (s, r, policy, arity_bound) if memo and not mem else None
            # ``unify`` has looked the root up already
            out = _solved.get(key) if key is not None and waiting else None
            if out is None:
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
                    waiting.append((rule, focus, place, opened, key, *out, []))
                    out = None
                elif key is not None and not waiting:
                    _store(key, out)
            # a finished output goes to the rule that waits for it
            while out is not None:
                if not waiting:
                    return out
                results = waiting[-1][7]
                results.append(out)
                if len(results) < len(waiting[-1][6]):
                    break
                done = waiting.pop()
                out = done[5](*results)
                if done[4] is not None:
                    _store(done[4], out)
            # the next sub-problem of the rule on top
            rule, focus, place, opened, _, _, subs, results = waiting[-1]
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
        binder for it whose body solves (left, right).  The memory holds the
        binders around it, named Z, Z2, ... by depth, so the new binder is
        named by the next depth."""
        for a, b, z in mem:
            if a == s and b == r:
                return SVar(z)
        z = f"Z{len(mem) + 1}" if mem else "Z"
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
    _require_valid(s, "left")
    _require_valid(r, "right")
    out = None if trace is not None else _solved.get((s, r, policy, arity_bound))
    if out is None:
        out = _Engine(policy, arity_bound, s, r, trace).solve(s, r)
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
