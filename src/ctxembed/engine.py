"""Prioritized reduction system for unifying and combining strategies.

``unify(S, R)`` builds a single strategy that, where both inputs succeed,
performs the work of both (contexts merged inside-out, left outermost), and
fails elsewhere.  ``combine(S, R)`` additionally falls back to either input
alone.  The reduction works on trees containing ``Pending`` nodes (a pair of
strategies waiting to be unified plus a memory of already-opened fixed-point
pairs); rules fire by strict priority on the leftmost-outermost pending node,
so reduction is deterministic.

Termination is enforced, not assumed: every step asserts that the measure

    (lambda, delta(left), delta(right))

strictly decreases from the focused node to every pending node it creates,
where lambda counts not-yet-opened fixed-point pairs (closure sizes minus the
memory entries still relevant to the pair) and delta is the (star height,
tree depth) pair.  A violation raises ``EngineError`` instead of looping.

Each call first builds one closure table.  It numbers every strategy either
input can reach by the walk ``phi`` makes, unfolding each fixed point once,
and stores phi of every numbered node as a bitset.  Each pending is measured
once, when the step that opens it runs, by popcounts and bit tests on that
table.  The same table tells which nodes a step copied from its focus, and
gives rules 8a/8b their unfoldings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    alpha_rename,
    children,
    delta,
    free_vars,
    fresh_name,
    rebuild,
    simplify as simplify_strategy,
    subst_var,
    validate,
)
from ctxembed.terms import DEFAULT_SIGNATURE, MergePolicy, Signature, max_arity, merge


class EngineError(RuntimeError):
    """The reduction system violated one of its own invariants."""


_FRESH_PREFIX = "Z#"
_PHI_CAP = 100_000
_MAX_STEPS = 1_000_000


@dataclass(frozen=True, slots=True, eq=False)
class Pending:
    """A pair of strategies awaiting unification, with fixed-point memory.

    Equality is identity, so no node built around a pending is shared with
    another.  Such a node's stored facts come from the placeholders below and
    are never read: ``descend`` replaces every node that holds a pending."""

    left: Strat
    right: Strat
    memory: frozenset

    free, star_height, tree_depth = frozenset(), 0, 0


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def phi(s: Strat) -> frozenset:
    """All strategies reachable by the reduction from ``s`` on one side.

    Fixed points contribute both their body and their one-step unfolding;
    the result is finite because unfolding only ever reintroduces ``s``.
    """
    seen: set = set()
    work = [s]
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        if len(seen) > _PHI_CAP:
            raise EngineError("closure exceeded size cap")
        work.extend(children(node))
        if isinstance(node, Mu):
            work.append(subst_var(node.body, node.var, node))
    return frozenset(seen)


def _closures(succ: list[list[int]]) -> list[int]:
    """Everything each node of a numbered graph reaches, itself included, as
    bitsets; the graph may have cycles.

    Tarjan's strongly connected components, iteratively: a component is
    complete only after every component it reaches, so its closure is its
    own nodes plus the closures of its edges out (Purdom 1970).
    """
    n = len(succ)
    order = [-1] * n  # visit order: -1 before the visit, n once in a component
    low = [0] * n
    closure = [0] * n
    stack: list[int] = []
    visits = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visits
        visits += 1
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, edges = calls[-1]
            for w in edges:
                if order[w] < 0:
                    order[w] = low[w] = visits
                    visits += 1
                    stack.append(w)
                    calls.append((w, iter(succ[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                calls.pop()
                if calls and low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
                if low[v] == order[v]:
                    component, w = [], -1
                    while w != v:
                        w = stack.pop()
                        component.append(w)
                    bits = sum(1 << w for w in component)
                    for w in component:
                        order[w] = n
                        for x in succ[w]:
                            bits |= closure[x]  # 0 inside the component
                    for w in component:
                        closure[w] = bits
    return closure


# ---------------------------------------------------------------------------
# rule machinery
# ---------------------------------------------------------------------------


def _never_fails(s: Strat) -> bool:
    if isinstance(s, Ins):
        return True
    if isinstance(s, Conj):
        return any(i is None and _never_fails(b) for i, b in s.entries)
    if isinstance(s, Choice):
        return _never_fails(s.left) or _never_fails(s.right)
    if isinstance(s, IfThen):
        return _never_fails(s.cond) and _never_fails(s.body)
    return False


def _gate(conds: list[Strat], body: Strat) -> Strat:
    for cond in reversed([c for c in conds if not _never_fails(c)]):
        body = IfThen(cond, body)
    return body


def _as_conj(s: Strat) -> Conj:
    if isinstance(s, Conj):
        return s
    return Conj(((None, s),))


class _Engine:
    """One ``unify`` call: the rules and the closure table of both inputs.

    ``number`` numbers every node either input reaches, ``closure[k]`` is phi
    of node ``k`` as a bitset over those numbers, and ``unfoldings`` maps each
    fixed point to its one-step unfolding.
    """

    def __init__(self, policy: MergePolicy, arity_bound: int, left: Strat, right: Strat):
        self.policy = policy
        self.arity_bound = arity_bound
        self.counter = 0
        self.spawned: list[Pending] = []
        self.number: dict[Strat, int] = {}
        self.unfoldings: dict[Mu, Strat] = {}
        self.mus = self.svars = 0  # bitsets of the fixed points and of the variables
        succ: list[tuple[Strat, ...]] = []
        for side in (left, right):
            # the walk of phi, with the size cap on each side's closure
            seen: set = set()
            work = [side]
            while work:
                node = work.pop()
                if node in seen:
                    continue
                seen.add(node)
                if len(seen) > _PHI_CAP:
                    raise EngineError("closure exceeded size cap")
                k = self.number.get(node)
                if k is None:
                    k = self.number[node] = len(succ)
                    kids = children(node)
                    if isinstance(node, Mu):
                        self.mus |= 1 << k
                        unfolding = self.unfoldings[node] = subst_var(node.body, node.var, node)
                        kids += (unfolding,)
                    elif isinstance(node, SVar):
                        self.svars |= 1 << k
                    succ.append(kids)
                work.extend(succ[k])
        self.closure = _closures([[self.number[c] for c in kids] for kids in succ])

    def measure(self, p: Pending) -> tuple[int, tuple[int, int], tuple[int, int]]:
        """(lambda, delta(left), delta(right)) of a pending pair.

        lambda is |mus(phi_l)| * |phi_r| + |phi_l| * |mus(phi_r)| less the
        memory entries (a, b) still relevant to the pair: a is a fixed point
        of phi_l and b a non-variable of phi_r, or the other way round.
        """
        number = self.number
        phi_l, phi_r = self.closure[number[p.left]], self.closure[number[p.right]]
        mu_l, mu_r = phi_l & self.mus, phi_r & self.mus
        rest_l, rest_r = phi_l & ~self.svars, phi_r & ~self.svars
        lam = mu_l.bit_count() * phi_r.bit_count() + phi_l.bit_count() * mu_r.bit_count()
        for a, b, _ in p.memory:
            i, j = number[a], number[b]
            if (mu_l >> i & rest_r >> j | rest_l >> i & mu_r >> j) & 1:
                lam -= 1
        return (lam, delta(p.left), delta(p.right))

    def fresh(self) -> str:
        name = f"{_FRESH_PREFIX}{self.counter}"
        self.counter += 1
        return name

    def pend(self, left: Strat, right: Strat, mem: frozenset) -> Pending:
        """Every rule opens sub-problems through here so the reduction loop
        can assert the measure drops on each one."""
        p = Pending(left, right, mem)
        self.spawned.append(p)
        return p

    def expand_most(self, m: Most) -> Conj:
        return Conj(tuple((i, m.body) for i in range(1, self.arity_bound + 1)))

    def combine_conjs(
        self, sc: Conj, rc: Conj, mem: frozenset, orig_s: Strat, orig_r: Strat
    ) -> Strat:
        l_num = [(i, b) for i, b in sc.entries if i is not None]
        r_num = [(j, b) for j, b in rc.entries if j is not None]
        l_eps = [b for i, b in sc.entries if i is None]
        r_eps = [b for j, b in rc.entries if j is None]
        lmap, rmap = dict(l_num), dict(r_num)
        out: list[tuple[Optional[int], Strat]] = []
        for i, b in l_num:
            if i in rmap:
                out.append((i, Choice(Choice(self.pend(b, rmap[i], mem), b), rmap[i])))
        for i, b in l_num:
            if i not in rmap:
                out.append((i, b))
        for j, b in r_num:
            if j not in lmap:
                out.append((j, b))
        if l_eps and r_eps:
            out.append((None, Ins(merge(l_eps[0].ctx, r_eps[0].ctx, self.policy))))
        elif l_eps:
            out.append((None, l_eps[0]))
        elif r_eps:
            out.append((None, r_eps[0]))
        return _gate([orig_s, orig_r], Conj(tuple(out)))

    def step(self, p: Pending) -> tuple[str, Strat]:
        s, r, mem = p.left, p.right, p.memory
        if isinstance(s, SFail):
            return "1a", FAIL_S
        if isinstance(r, SFail):
            return "1b", FAIL_S
        if isinstance(s, Ins) and isinstance(r, Ins):
            return "2", Ins(merge(s.ctx, r.ctx, self.policy))
        if isinstance(s, Guard):
            return "3a", Guard(s.pattern, self.pend(s.body, r, mem))
        if isinstance(r, Guard):
            return "3b", Guard(r.pattern, self.pend(s, r.body, mem))
        if isinstance(s, Conj) and isinstance(r, Conj):
            if (
                len(s.entries) == 1
                and len(r.entries) == 1
                and s.entries[0][0] is not None
                and s.entries[0][0] == r.entries[0][0]
            ):
                i, sb = s.entries[0]
                _, rb = r.entries[0]
                return "4a", Conj(((i, self.pend(sb, rb, mem)),))
            return "4b", self.combine_conjs(s, r, mem, s, r)
        if isinstance(s, Ins) and isinstance(r, Conj):
            return "4b", self.combine_conjs(_as_conj(s), r, mem, s, r)
        if isinstance(s, Conj) and isinstance(r, Ins):
            return "4b", self.combine_conjs(s, _as_conj(r), mem, s, r)
        if isinstance(s, Choice):
            return "5a", Choice(self.pend(s.left, r, mem), self.pend(s.right, r, mem))
        if isinstance(r, Choice):
            return "5b", Choice(self.pend(s, r.left, mem), self.pend(s, r.right, mem))
        if isinstance(s, IfThen):
            return "6a", IfThen(s.cond, self.pend(s.body, r, mem))
        if isinstance(r, IfThen):
            return "6b", IfThen(r.cond, self.pend(s, r.body, mem))
        if isinstance(s, Most) and isinstance(r, Most):
            inner = Choice(Choice(self.pend(s.body, r.body, mem), s.body), r.body)
            return "7a", _gate([s, r], Most(inner))
        if isinstance(s, Most) and isinstance(r, (Conj, Ins)):
            if self.arity_bound == 0:
                return "7b", FAIL_S
            return "7b", self.combine_conjs(self.expand_most(s), _as_conj(r), mem, s, r)
        if isinstance(s, (Conj, Ins)) and isinstance(r, Most):
            if self.arity_bound == 0:
                return "7c", FAIL_S
            return "7c", self.combine_conjs(_as_conj(s), self.expand_most(r), mem, s, r)
        if isinstance(s, Mu):
            for a, b, z in mem:
                if a == s and b == r:
                    return "8a", SVar(z)
            z = self.fresh()
            return "8a", Mu(z, self.pend(self.unfoldings[s], r, mem | {(s, r, z)}))
        if isinstance(r, Mu):
            for a, b, z in mem:
                if a == s and b == r:
                    return "8b", SVar(z)
            z = self.fresh()
            return "8b", Mu(z, self.pend(s, self.unfoldings[r], mem | {(s, r, z)}))
        raise EngineError(f"no rule applies to {s!r} / {r!r}")


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _reduce(engine: _Engine, root: Pending, trace: Optional[list]) -> Strat:
    """Normalize every pending node in one depth-first pass.

    Pendings never interact (each carries its own memory), so the result does
    not depend on scheduling; descending once and rewriting in place avoids
    re-scanning the tree after every step.  Each step asserts that the
    measure of every sub-problem it opens drops strictly below the focus.
    """
    steps = 0
    number, closure = engine.number, engine.closure
    # each pending's measure, taken by the step that opened it
    measured: dict[Pending, tuple] = {root: engine.measure(root)}

    def resolve(node: Pending, path: tuple[int, ...]) -> Strat:
        nonlocal steps
        out: Strat = node
        while isinstance(out, Pending):
            if steps >= _MAX_STEPS:
                raise EngineError("reduction exceeded the step cap")
            steps += 1
            focus = measured.pop(out)
            mem_size = len(out.memory)
            copied = closure[number[out.left]] | closure[number[out.right]]
            engine.spawned = []
            rule, out = engine.step(out)
            kids = [engine.measure(k) for k in engine.spawned]
            for kid in kids:
                if not kid < focus:
                    raise EngineError(
                        f"measure failed to decrease at rule {rule}: {focus} -> {kid}"
                    )
            measured.update(zip(engine.spawned, kids))
            if trace is not None:
                trace.append(
                    {
                        "rule": rule,
                        "path": ".".join(str(i) for i in path) if path else "eps",
                        "lambda": focus[0],
                        "dl": list(focus[1]),
                        "dr": list(focus[2]),
                        "mem": mem_size,
                        "children": [[m[0], list(m[1]), list(m[2])] for m in kids],
                    }
                )
        if not engine.spawned:
            return out
        return descend(out, path, copied)

    def descend(s: Strat, path: tuple[int, ...], copied: int) -> Strat:
        # Rules copy parts of the focus unchanged; those lie in its closures
        # (``copied``, a bitset of the table), hold no pending node, and stay
        # shared.  Only the nodes a step built around a pending are rebuilt.
        if isinstance(s, Pending):
            return resolve(s, path)
        bit = number.get(s)
        if bit is not None and copied >> bit & 1:
            return s
        return rebuild(
            s,
            tuple(descend(c, path + (k,), copied) for k, c in enumerate(children(s), start=1)),
        )

    return resolve(root, ())


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _names_in(s: Strat) -> set[str]:
    """Every variable name in ``s``, free or bound; shared subtrees are walked once."""
    names: set[str] = set()
    seen: set = set()
    work = [s]
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, SVar):
            names.add(node.name)
        elif isinstance(node, Mu):
            names.add(node.var)
        work.extend(children(node))
    return names


def _require_valid(s: Strat, side: str) -> None:
    v = validate(s)
    if not v.closed:
        raise ValidationFailure(f"{side} strategy is open: {sorted(free_vars(s))}")
    if not v.monotone:
        raise ValidationFailure(f"{side} strategy is not monotone")
    if not v.linear:
        raise ValidationFailure(f"{side} strategy is not linear")
    if not v.well_founded:
        raise ValidationFailure(f"{side} strategy has a malformed conjunction")
    if not v.insertion_entries:
        raise ValidationFailure("conjunction entries at the root must be insertions")


def _rename_fresh(s: Strat, used: set[str]) -> Strat:
    """Give engine-generated binders readable names, in first-use order.

    Each generated name binds exactly one node, visited before its body, so a
    subtree renames the same way wherever it recurs and is renamed once.
    """
    assigned: dict[str, str] = {}
    memo: dict[Strat, Strat] = {}

    def walk(node: Strat) -> Strat:
        out = memo.get(node)
        if out is None:
            if isinstance(node, Mu) and node.var.startswith(_FRESH_PREFIX):
                assigned[node.var] = fresh_name("Z", used)
                out = Mu(assigned[node.var], walk(node.body))
            elif isinstance(node, SVar):
                out = SVar(assigned[node.name]) if node.name in assigned else node
            else:
                out = rebuild(node, tuple(walk(c) for c in children(node)))
            memo[node] = out
        return out

    return walk(s)


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
    _require_valid(s, "left")
    _require_valid(r, "right")
    sig = DEFAULT_SIGNATURE if signature is None else signature
    r2 = alpha_rename(r, _names_in(s))
    engine = _Engine(policy, max_arity(sig), s, r2)
    raw = _reduce(engine, Pending(s, r2, frozenset()), trace)
    used = set(_names_in(s) | _names_in(r)) | {
        n for n in _names_in(raw) if not n.startswith(_FRESH_PREFIX)
    }
    out = _rename_fresh(raw, used)
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
