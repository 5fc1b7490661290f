"""Seeded generators and law-checking suites.

Every suite is a deterministic function of its GenConfig: generators draw from
``random.Random`` streams keyed on (seed, stream, index), so the same config
reproduces the same report byte for byte.  Failure records carry the textual
forms of their inputs and are re-runnable through the parsers.

Strategy generation threads an *obligation* for each open binder: the bound
variable must be placed exactly once, and only after crossing a child index
(a numeric conjunction entry or a Most).  That makes every generated strategy
closed, monotone, linear, and well-founded by construction, so the whole
stream is admissible to the unification engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ctxembed.engine import combine, unify
from ctxembed.posce import apply_pos_ce, combine_pos, eq_pos, unify_pos
from ctxembed.strategy import (
    FAIL_S,
    Choice,
    Conj,
    Guard,
    IfThen,
    Ins,
    Most,
    Mu,
    Strat,
    SVar,
    alpha_rename,
    bound_vars,
    eval_strategy,
    jump,
    mu_iterate,
    nodes,
    subst_var,
    td,
    unfold,
)
from ctxembed.syntax import print_posce, print_strategy, print_term
from ctxembed.terms import (
    DEFAULT_SIGNATURE,
    HOLE,
    App,
    Context,
    MergePolicy,
    Signature,
    SignatureError,
    Term,
    Var,
    depth,
    max_arity,
    positions,
    replace,
    terms_up_to_depth,
)
from ctxembed.translate import psi


@dataclass(frozen=True)
class GenConfig:
    """Bounds and seed for one generated suite run."""

    signature: Signature = field(default_factory=lambda: dict(DEFAULT_SIGNATURE))
    max_term_depth: int = 3
    max_strategy_depth: int = 4
    max_mu_nesting: int = 2
    seed: int = 0
    cases: int = 200
    merge_mode: MergePolicy = MergePolicy.NEST

    def __post_init__(self):
        if not any(ar == 0 for ar in self.signature.values()):
            raise SignatureError("the signature needs at least one constant")
        if self.max_strategy_depth < 1 or self.max_term_depth < 0:
            raise ValueError("generation bounds must be positive")
        if self.cases < 0:
            raise ValueError("the number of cases must not be negative")


# binder names by nesting level; levels never collide, so shadowing and
# capture are impossible regardless of how obligations are routed
_BINDER_POOLS = (("X", "Y"), ("W", "V"), ("X2", "Y2"))


def _rng(cfg: GenConfig, stream: str, index: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{stream}:{index}")


def _constants(sig: Signature) -> list[str]:
    return [name for name in sorted(sig) if sig[name] == 0]


def _gen_term(rng: random.Random, sig: Signature, budget: int) -> Term:
    names = _constants(sig) if budget <= 0 else sorted(sig)
    name = rng.choice(names)
    return App(name, tuple(_gen_term(rng, sig, budget - 1) for _ in range(sig[name])))


def gen_term(cfg: GenConfig, index: int) -> Term:
    """The index-th ground term of the seeded stream; depth is bounded."""
    return _gen_term(_rng(cfg, "term", index), cfg.signature, cfg.max_term_depth)


def _gen_context(rng: random.Random, sig: Signature) -> Context:
    skeleton = _gen_term(rng, sig, rng.randint(0, 2))
    spots = positions(skeleton)
    return Context(replace(skeleton, spots[rng.randrange(len(spots))], HOLE))


def gen_context(cfg: GenConfig, index: int) -> Context:
    return _gen_context(_rng(cfg, "context", index), cfg.signature)


def _gen_pattern(rng: random.Random, sig: Signature, budget: int) -> Term:
    # leaves favor variables so guards succeed often enough to be interesting
    if budget <= 0 or rng.random() < 0.40:
        if rng.random() < 0.65:
            return Var(rng.choice(("x", "y", "z")))
        return App(rng.choice(_constants(sig)))
    name = rng.choice(sorted(sig))
    return App(name, tuple(_gen_pattern(rng, sig, budget - 1) for _ in range(sig[name])))


# one obligation per open binder: (variable name, crossed a child index yet)
Obligation = tuple[str, bool]


def _strat(rng, cfg, budget, mu_budget, obligations: tuple[Obligation, ...]) -> Strat:
    if len(obligations) >= 2:
        return _split(rng, cfg, budget, mu_budget, obligations)
    if obligations:
        return _route(rng, cfg, budget, mu_budget, obligations[0])
    return _pure(rng, cfg, budget, mu_budget)


def _split(rng, cfg, budget, mu_budget, obligations):
    # distribute two pending placements over disjoint child branches
    big = max_arity(cfg.signature)
    inner = max(0, budget - 1)
    first, second = obligations
    if big >= 2:
        i1, i2 = sorted(rng.sample(range(1, big + 1), 2))
        if rng.random() < 0.5:
            first, second = second, first
        return Conj(
            (
                (i1, _route(rng, cfg, inner, mu_budget, (first[0], True))),
                (i2, _route(rng, cfg, inner, mu_budget, (second[0], True))),
            )
        )
    rest = _route(rng, cfg, max(0, inner - 1), mu_budget, (second[0], True))
    return Conj(((1, Choice(SVar(first[0]), rest)),))


def _route(rng, cfg, budget, mu_budget, obligation: Obligation) -> Strat:
    name, crossed = obligation
    sig = cfg.signature
    big = max(1, max_arity(sig))
    if budget <= 1:
        if crossed and (budget <= 0 or rng.random() < 0.6):
            return SVar(name)
        return Conj(((rng.randint(1, big), SVar(name)),))
    if crossed and rng.random() < 0.25:
        return SVar(name)
    roll = rng.random()
    if roll < 0.10 and mu_budget > 0 and budget >= 3:
        level = min(cfg.max_mu_nesting - mu_budget, len(_BINDER_POOLS) - 1)
        fresh = rng.choice(_BINDER_POOLS[level])
        body = _strat(rng, cfg, budget, mu_budget - 1, (obligation, (fresh, False)))
        return Mu(fresh, body)
    if roll < 0.35:
        count = rng.randint(1, min(big, 2))
        idxs = sorted(rng.sample(range(1, big + 1), count))
        slot = rng.choice(idxs)
        entries = []
        for i in idxs:
            if i == slot:
                entries.append((i, _route(rng, cfg, budget - 1, mu_budget, (name, True))))
            else:
                entries.append((i, _pure(rng, cfg, budget - 1, mu_budget)))
        if rng.random() < 0.25:
            entries.append((None, Ins(_gen_context(rng, sig))))
        return Conj(tuple(entries))
    if roll < 0.50:
        return Guard(_gen_pattern(rng, sig, 2), _route(rng, cfg, budget - 1, mu_budget, obligation))
    if roll < 0.70:
        mine = _route(rng, cfg, budget - 1, mu_budget, obligation)
        other = _pure(rng, cfg, budget - 1, mu_budget)
        return Choice(mine, other) if rng.random() < 0.5 else Choice(other, mine)
    if roll < 0.80:
        return Most(_route(rng, cfg, budget - 2, mu_budget, (name, True)))
    return IfThen(
        _pure(rng, cfg, budget - 1, mu_budget),
        _route(rng, cfg, budget - 1, mu_budget, obligation),
    )


def _pure(rng, cfg, budget, mu_budget) -> Strat:
    sig = cfg.signature
    big = max(1, max_arity(sig))
    if budget <= 0:
        return FAIL_S
    if budget == 1 or rng.random() < 0.18:
        return FAIL_S if rng.random() < 0.08 else Ins(_gen_context(rng, sig))
    roll = rng.random()
    if roll < 0.16:
        return Guard(_gen_pattern(rng, sig, 2), _pure(rng, cfg, budget - 1, mu_budget))
    if roll < 0.34:
        return Choice(_pure(rng, cfg, budget - 1, mu_budget), _pure(rng, cfg, budget - 1, mu_budget))
    if roll < 0.50:
        count = rng.randint(1, min(big, 2))
        idxs = sorted(rng.sample(range(1, big + 1), count))
        entries = [(i, _pure(rng, cfg, budget - 1, mu_budget)) for i in idxs]
        if rng.random() < 0.35:
            entries.append((None, Ins(_gen_context(rng, sig))))
        return Conj(tuple(entries))
    if roll < 0.60:
        return jump((rng.randint(1, big),), _pure(rng, cfg, budget - 1, mu_budget))
    if roll < 0.70 and budget >= 3:
        return Most(_pure(rng, cfg, budget - 2, mu_budget))
    if roll < 0.80:
        return IfThen(_pure(rng, cfg, budget - 1, mu_budget), _pure(rng, cfg, budget - 1, mu_budget))
    if mu_budget > 0:
        level = min(cfg.max_mu_nesting - mu_budget, len(_BINDER_POOLS) - 1)
        name = rng.choice(_BINDER_POOLS[level])
        return Mu(name, _strat(rng, cfg, budget, mu_budget - 1, ((name, False),)))
    return Ins(_gen_context(rng, sig))


def gen_strategy(cfg: GenConfig, index: int) -> Strat:
    """The index-th strategy of the seeded stream; always engine-admissible."""
    rng = _rng(cfg, "strategy", index)
    if cfg.max_mu_nesting > 0 and cfg.max_strategy_depth >= 2 and rng.random() < 0.45:
        name = rng.choice(_BINDER_POOLS[0])
        body = _strat(rng, cfg, cfg.max_strategy_depth, cfg.max_mu_nesting - 1, ((name, False),))
        return Mu(name, body)
    return _strat(rng, cfg, cfg.max_strategy_depth, cfg.max_mu_nesting, ())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _show(t: Optional[Term]) -> str:
    return "FAIL" if t is None else print_term(t)


def _failure(index: int, law: str, inputs: dict, expected: str, got: str) -> dict:
    return {"index": index, "inputs": dict(inputs, law=law), "expected": expected, "got": got}


def _report(suite: str, cfg: GenConfig, failures: list[dict]) -> dict:
    return {"suite": suite, "seed": cfg.seed, "cases": cfg.cases, "failures": failures}


def _hom(s: Strat, t: Term, image, index: int, failures: list, role: str) -> None:
    via = apply_pos_ce(image, t)
    direct = eval_strategy(s, t)
    if via != direct:
        failures.append(
            _failure(
                index,
                "homomorphism",
                {"strategy": print_strategy(s), "term": print_term(t), "role": role},
                _show(direct),
                _show(via),
            )
        )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def check_homomorphism(cfg: GenConfig) -> dict:
    """Applying the translated strategy agrees with direct evaluation."""
    failures: list[dict] = []
    for i in range(cfg.cases):
        s = gen_strategy(cfg, i)
        t = gen_term(cfg, i)
        _hom(s, t, psi(s, t), i, failures, "generated")
    return _report("homomorphism", cfg, failures)


def check_theorem1(cfg: GenConfig) -> dict:
    """Translate-then-unify equals unify-then-translate on every sample.

    Samples are drawn from the frontier-progressing class: a fixed point
    restarted at a subterm u only gets depth(u) unfoldings, while the image
    that reaches u from the root can carry more, and bodies that succeed on
    constants observe the difference.  Progressing bodies stabilise at
    depth(u), so there the restart is invisible and the agreement holds.
    """
    return _check_distribution(cfg, "theorem1", unify, unify_pos, "unify-translation", "unified")


def check_theorem2(cfg: GenConfig) -> dict:
    """The combination analogue of check_theorem1, on the same class."""
    return _check_distribution(cfg, "theorem2", combine, combine_pos, "combine-translation", "combined")


def _check_distribution(
    cfg: GenConfig, suite: str, op: Callable, op_pos: Callable, law: str, role: str
) -> dict:
    """ψ(op(s, r)) equals op_pos(ψ(s), ψ(r)), and each image applies as its
    strategy evaluates, on pairs from the frontier-progressing stream."""
    failures: list[dict] = []
    stream = _progressing_stream(cfg, 2 * cfg.cases)
    for i in range(cfg.cases):
        s = stream[2 * i]
        r = stream[2 * i + 1]
        t = gen_term(cfg, i)
        joint = op(s, r, policy=cfg.merge_mode, signature=cfg.signature)
        ps, pr = psi(s, t), psi(r, t)
        lhs = psi(joint, t)
        rhs = op_pos(ps, pr, policy=cfg.merge_mode)
        if not eq_pos(lhs, rhs):
            inputs = {"left": print_strategy(s), "right": print_strategy(r), "term": print_term(t)}
            failures.append(_failure(i, law, inputs, print_posce(rhs), print_posce(lhs)))
        _hom(s, t, ps, i, failures, "left")
        _hom(r, t, pr, i, failures, "right")
        _hom(joint, t, lhs, i, failures, role)
    return _report(suite, cfg, failures)


def check_unfold_oracle(
    s: Strat,
    r: Strat,
    n: int,
    *,
    signature: Optional[Signature] = None,
    policy: MergePolicy = MergePolicy.NEST,
) -> list[dict]:
    """Unifying finite unfoldings agrees with unifying the originals.

    Equality is taken image-by-image over every term of depth <= n, which is
    stronger than evaluation agreement.  Binder-free inputs unfold to
    themselves, making the check an identity there.  The agreement is a
    theorem only when every binder body makes frontier progress; on other
    inputs this reports the (real) disagreements it finds.
    """
    sig = dict(DEFAULT_SIGNATURE) if signature is None else signature
    joint = unify(s, r, policy=policy, signature=sig)  # the engine's gate comes first
    su = unfold(s, {name: n for name in bound_vars(s)})
    ru = unfold(r, {name: n for name in bound_vars(r)})
    unrolled = unify(su, ru, policy=policy, signature=sig)
    failures: list[dict] = []
    for j, t in enumerate(terms_up_to_depth(sig, n)):
        a = psi(joint, t)
        b = psi(unrolled, t)
        if not eq_pos(a, b):
            inputs = {"left": print_strategy(s), "right": print_strategy(r), "n": n, "term": print_term(t)}
            failures.append(_failure(j, "unfold", inputs, print_posce(b), print_posce(a)))
        _hom(joint, t, a, j, failures, "joint")
        _hom(unrolled, t, b, j, failures, "unrolled")
    return failures


def _progresses(body: Strat, sig: Signature) -> bool:
    """A binder body must descend before it can succeed.

    Probes the body with all its variables cut to failure on every constant;
    a body that still succeeds on one makes extra unfoldings observable
    there, which is exactly the class the unfolding equivalence excludes.
    """
    for name in body.free:
        body = subst_var(body, name, FAIL_S)
    return all(eval_strategy(body, App(c)) is None for c in _constants(sig))


def _binder_bodies_progress(s: Strat, sig: Signature) -> bool:
    """Every fixed point in ``s`` must descend before it can succeed."""
    return all(_progresses(node.body, sig) for node in nodes(s) if isinstance(node, Mu))


def _progressing_stream(cfg: GenConfig, count: int) -> list[Strat]:
    out: list[Strat] = []
    j = 0
    while len(out) < count:
        s = gen_strategy(cfg, j)
        j += 1
        if _binder_bodies_progress(s, cfg.signature):
            out.append(s)
    return out


def suite_unfold(cfg: GenConfig) -> dict:
    """Unfolding agreement over pairs whose fixed points all make progress."""
    failures: list[dict] = []
    stream = _progressing_stream(cfg, 2 * cfg.cases)
    for i in range(cfg.cases):
        s = stream[2 * i]
        r = stream[2 * i + 1]
        for n in (0, 1, 2):
            for f in check_unfold_oracle(s, r, n, signature=cfg.signature, policy=cfg.merge_mode):
                failures.append(dict(f, index=i))
    return _report("unfold", cfg, failures)


def check_algebra(cfg: GenConfig) -> dict:
    """Associativity, units, congruence, idempotence, pointwise failure laws.

    Failing-nowhere is not preserved by unification (conflicting guards give a
    unification that fails everywhere although neither side does), so the
    failure laws are checked pointwise: the unification fails at t exactly
    when either side fails at t, the combination exactly when both do.

    Inputs come from the frontier-progressing class, the domain of the
    translation agreement these laws lean on.  Associativity runs on every
    triple; the unit, failure, and congruence laws on a deterministic prefix;
    the translation invariant on a smaller prefix still (it has a dedicated
    suite of its own).
    """
    sig = cfg.signature
    policy = cfg.merge_mode
    suite = terms_up_to_depth(sig, 2)
    neutral = Ins(Context(HOLE))
    secondary = max(1, min(cfg.cases, max(60, cfg.cases // 3)))
    hom_slice = max(1, min(cfg.cases, max(20, cfg.cases // 12)))
    failures: list[dict] = []

    def uni(a, b):
        return unify(a, b, policy=policy, signature=sig)

    def comb(a, b):
        return combine(a, b, policy=policy, signature=sig)

    def vec(s):
        return tuple(eval_strategy(s, t) for t in suite)

    def first_diff(va, vb):
        return next((k for k in range(len(suite)) if va[k] != vb[k]), None)

    def names(trio):
        # failure-record inputs, printed only when a law fails
        return {f"s{k}": print_strategy(s) for k, s in enumerate(trio, start=1)}

    def law(index, name, trio, va, vb):
        k = first_diff(va, vb)
        if k is not None:
            failures.append(
                _failure(index, name, dict(names(trio), term=print_term(suite[k])), _show(vb[k]), _show(va[k]))
            )

    def pointwise(index, name, trio, vout, v1, v2, expect):
        # the output fails at a term exactly when ``expect`` holds of the
        # inputs failing there; the first term where it does not is reported
        for k, got in enumerate(vout):
            fails = expect((v1[k] is None, v2[k] is None))
            if (got is None) != fails:
                failures.append(_failure(index, name, dict(names(trio), term=print_term(suite[k])),
                                         "FAIL" if fails else "non-FAIL", _show(got)))
                return

    stream = _progressing_stream(cfg, 3 * cfg.cases)
    for i in range(cfg.cases):
        trio = s1, s2, s3 = stream[3 * i : 3 * i + 3]
        u12 = uni(s1, s2)
        c12 = comb(s1, s2)

        law(i, "unify-associative", trio, vec(uni(u12, s3)), vec(uni(s1, uni(s2, s3))))
        law(i, "combine-associative", trio, vec(comb(c12, s3)), vec(comb(s1, comb(s2, s3))))

        if policy is MergePolicy.LEFT_PROJECT:
            v1 = vec(s1)
            law(i, "unify-idempotent", trio, vec(uni(s1, s1)), v1)
        if i >= secondary:
            continue

        v1, v2 = vec(s1), vec(s2)
        vu12, vc12 = vec(u12), vec(c12)
        pointwise(i, "unify-pointwise-failure", trio, vu12, v1, v2, any)
        pointwise(i, "combine-pointwise-failure", trio, vc12, v1, v2, all)

        law(i, "unify-neutral-right", trio, vec(uni(s1, neutral)), v1)
        if policy is MergePolicy.NEST:
            law(i, "unify-neutral-left", trio, vec(uni(neutral, s1)), v1)
        if uni(FAIL_S, s1) != FAIL_S or uni(s1, FAIL_S) != FAIL_S:
            failures.append(_failure(i, "unify-absorbing", names(trio), "fail", "a non-fail strategy"))
        law(i, "combine-neutral-left", trio, vec(comb(FAIL_S, s1)), v1)
        law(i, "combine-neutral-right", trio, vec(comb(s1, FAIL_S)), v1)

        variant = alpha_rename(s1, bound_vars(s1))
        law(i, "unify-congruence", trio, vec(uni(variant, s2)), vu12)
        law(i, "combine-congruence", trio, vec(comb(variant, s2)), vc12)

        if i >= hom_slice:
            continue
        for role, s in (("s1", s1), ("s2", s2), ("s3", s3), ("unified", u12), ("combined", c12)):
            for t in suite:
                _hom(s, t, psi(s, t), i, failures, role)

    # stored counterexamples: under the nesting merge these laws must fail
    if policy is MergePolicy.NEST and cfg.cases > 0:
        li = Context(App("list", (HOLE, App("i"))))
        lj = Context(App("list", (HOLE, App("j"))))
        wrap = Ins(li)
        if vec(uni(wrap, wrap)) == vec(wrap):
            failures.append(
                _failure(-1, "nest-idempotence-counterexample", {"s": print_strategy(wrap)},
                         "a doubled insertion", "the single insertion")
            )
        if vec(uni(Ins(li), Ins(lj))) == vec(uni(Ins(lj), Ins(li))):
            failures.append(
                _failure(-1, "nest-commutativity-counterexample", {}, "order-dependent results", "equal results")
            )
        consts = _constants(sig)
        if len(consts) >= 2:
            ga = Guard(App(consts[0]), Ins(li))
            gb = Guard(App(consts[1]), Ins(li))
            joined = uni(ga, gb)
            if any(x is not None for x in vec(joined)) or all(x is None for x in vec(ga)):
                failures.append(
                    _failure(-1, "conflicting-guards-counterexample",
                             {"left": print_strategy(ga), "right": print_strategy(gb)},
                             "failure everywhere with both sides satisfiable", "unexpected success")
                )
    return _report("algebra", cfg, failures)


# ---------------------------------------------------------------------------
# fixed-point semantics
# ---------------------------------------------------------------------------


def _gen_fixed_point(cfg: GenConfig, index: int) -> Mu:
    rng = _rng(cfg, "fixedpoint", index)
    for _ in range(200):
        name = rng.choice(_BINDER_POOLS[0])
        body = _strat(rng, cfg, cfg.max_strategy_depth, max(0, cfg.max_mu_nesting - 1), ((name, False),))
        if _progresses(body, cfg.signature):
            return Mu(name, body)
    ctx = gen_context(cfg, index)
    return Mu("X", Conj(((1, Choice(Ins(ctx), SVar("X"))),)))


def check_stabilization(cfg: GenConfig) -> dict:
    """Iterating a frontier-progressing body past the term depth changes nothing."""
    failures: list[dict] = []
    for i in range(cfg.cases):
        m = _gen_fixed_point(cfg, i)
        t = gen_term(cfg, i)
        base = eval_strategy(m, t)
        d = depth(t)
        for extra in (0, 1, 2):
            got = eval_strategy(mu_iterate(m.var, m.body, d + extra), t)
            if got != base:
                failures.append(
                    _failure(
                        i,
                        "stabilization",
                        {"strategy": print_strategy(m), "term": print_term(t), "extra": extra},
                        _show(base),
                        _show(got),
                    )
                )
    return _report("stabilization", cfg, failures)


def replay(
    s: Strat, t: Term, fuel: int, memo: Optional[dict] = None
) -> Optional[Term]:
    """Brute-force recursive descent with one fuel unit per level.

    Mirrors the iterate budget of the fixed-point semantics exactly: the root
    try costs nothing, each step down to the children costs one unit.
    ``memo`` keeps results by (subterm, fuel) across calls for the same ``s``.
    """
    if fuel <= 0:
        return None
    if memo is None:
        memo = {}
    key = (t, fuel)
    if key in memo:
        return memo[key]
    out = eval_strategy(s, t)
    if out is None and isinstance(t, App) and t.args:
        kids = [replay(s, child, fuel - 1, memo) for child in t.args]
        if any(k is not None for k in kids):
            out = App(
                t.head, tuple(orig if new is None else new for orig, new in zip(t.args, kids))
            )
    memo[key] = out
    return out


def check_td_replay(cfg: GenConfig) -> dict:
    """The derived top-down traversal agrees with the brute-force replay."""
    failures: list[dict] = []
    suite = terms_up_to_depth(cfg.signature, 3)
    for i in range(cfg.cases):
        s = gen_strategy(cfg, i)
        descended = td(s)
        memo: dict = {}
        for t in suite:
            a = eval_strategy(descended, t)
            b = replay(s, t, depth(t), memo)
            if a != b:
                failures.append(
                    _failure(
                        i,
                        "td-replay",
                        {"strategy": print_strategy(s), "term": print_term(t)},
                        _show(b),
                        _show(a),
                    )
                )
    return _report("td-replay", cfg, failures)
