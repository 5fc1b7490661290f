"""Seeded generators and law suites: determinism, admissibility, clean runs.

The suite functions are pure functions of their GenConfig; several tests pin
that down by running them twice and comparing the JSON bytes.  Frozen law
instances (the descent pair, the merge counterexamples, the conflicting-guard
pair) are computed by hand and asserted exactly.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxembed import strategy
from ctxembed.checks import (
    GenConfig,
    _binder_bodies_progress,
    check_algebra,
    check_homomorphism,
    check_stabilization,
    check_td_replay,
    check_theorem1,
    check_theorem2,
    check_unfold_oracle,
    gen_context,
    gen_strategy,
    gen_term,
    replay,
    suite_unfold,
)
from ctxembed.engine import combine, unify
from ctxembed.posce import PosCE, eq_pos, unify_pos
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
    SVar,
    ValidationFailure,
    eval_strategy,
    jump,
    nodes,
    td,
    validate,
)
from ctxembed.syntax import parse_strategy, parse_term, print_posce, print_term
from ctxembed.terms import (
    DEFAULT_SIGNATURE,
    HOLE,
    App,
    Context,
    MergePolicy,
    SignatureError,
    Var,
    check_signature,
    depth,
    positions,
    subterm,
    terms_up_to_depth,
)
from ctxembed.translate import psi

TAU = Context(App("list", (HOLE, App("i"))))
TAU_P = Context(App("list", (HOLE, App("j"))))

# The guarded-descent pair: insert under a matching guard, else move to child 1.
XI = Mu("X", Choice(Guard(App("g", (Var("x"), Var("x"))), Ins(TAU)), jump((1,), SVar("X"))))
XI2 = Mu("Y", Choice(Guard(App("g", (Var("x"), App("b"))), Ins(TAU_P)), jump((1,), SVar("Y"))))


# ---------------------------------------------------------------------------
# configuration and generators
# ---------------------------------------------------------------------------


def test_config_requires_a_constant():
    with pytest.raises(SignatureError):
        GenConfig(signature={"f": 1, "g": 2})


def test_gen_term_deterministic_bounded_ground():
    cfg = GenConfig()
    for i in range(200):
        t = gen_term(cfg, i)
        assert t == gen_term(GenConfig(), i)
        assert depth(t) <= cfg.max_term_depth
        assert not any(isinstance(subterm(t, p), Var) for p in positions(t))
        check_signature(t, cfg.signature)


def test_gen_term_streams_vary_with_seed():
    a = [gen_term(GenConfig(seed=1), i) for i in range(60)]
    b = [gen_term(GenConfig(seed=2), i) for i in range(60)]
    assert a != b


def test_gen_term_accepts_wide_seeds():
    gen_term(GenConfig(seed=2**63 - 1), 0)


def test_gen_context_deterministic_single_hole():
    cfg = GenConfig()
    for i in range(120):
        c = gen_context(cfg, i)
        assert isinstance(c, Context)
        assert c == gen_context(GenConfig(), i)


def test_gen_strategy_always_validates():
    cfg = GenConfig()
    for i in range(400):
        s = gen_strategy(cfg, i)
        assert validate(s).ok, i
        assert s.tree_depth <= cfg.max_strategy_depth, i
        assert s.star_height <= cfg.max_mu_nesting, i
        assert s == gen_strategy(GenConfig(), i)


def test_gen_strategy_covers_every_constructor():
    cfg = GenConfig()
    seen = set()
    for i in range(600):
        for node in nodes(gen_strategy(cfg, i)):
            seen.add(type(node).__name__)
    assert {"SFail", "SVar", "Ins", "Guard", "Choice", "Mu", "Conj", "Most", "IfThen"} <= seen


def test_gen_strategy_grammar_admits_guarded_descent():
    assert validate(XI).ok
    assert validate(XI2).ok
    # and the generator does reach fixed points over guarded alternatives
    cfg = GenConfig()
    assert any(
        isinstance(s, Mu) and isinstance(s.body, Choice)
        for s in (gen_strategy(cfg, i) for i in range(400))
    )


def test_admissible_rejects_non_insertion_root_entries():
    assert not validate(Conj(((None, Guard(App("a"), Ins(TAU))),))).ok
    assert validate(Conj(((None, Ins(TAU)),))).ok
    assert not validate(SVar("X")).ok


def test_engine_accepts_generated_strategies():
    cfg = GenConfig()
    for i in range(25):
        out = unify(gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1))
        assert validate(out).monotone


def test_exhaustive_depth_one_terms():
    suite = terms_up_to_depth(DEFAULT_SIGNATURE, 1)
    assert len(suite) == 8
    assert {print_term(t) for t in suite} == {
        "a", "b", "f(a)", "f(b)", "g(a,a)", "g(a,b)", "g(b,a)", "g(b,b)",
    }


# ---------------------------------------------------------------------------
# translation law suites
# ---------------------------------------------------------------------------


def test_unify_translation_on_the_descent_pair():
    # u = g(?x, ?y) and u' = g(a, ?z) both match g(a, b) at the root, so the
    # joint strategy and the pointwise unification agree on one root insertion
    # of the merged context list(list([], j), i).
    s = Mu("X", Choice(Guard(App("g", (Var("x"), Var("y"))), Ins(TAU)), jump((1,), SVar("X"))))
    r = Mu("Y", Choice(Guard(App("g", (App("a"), Var("z"))), Ins(TAU_P)), jump((1,), SVar("Y"))))
    t = App("g", (App("a"), App("b")))
    lhs = psi(unify(s, r), t)
    rhs = unify_pos(psi(s, t), psi(r, t))
    expected = PosCE((((), Context(App("list", (App("list", (HOLE, App("j"))), App("i"))))),))
    assert eq_pos(lhs, rhs)
    assert eq_pos(lhs, expected)


def test_theorem1_suite_clean():
    rep = check_theorem1(GenConfig(cases=60))
    assert rep["suite"] == "theorem1"
    assert rep["seed"] == 0
    assert rep["cases"] == 60
    assert rep["failures"] == []


def test_theorem2_suite_clean():
    rep = check_theorem2(GenConfig(cases=40))
    assert rep["failures"] == []


def test_homomorphism_suite_clean():
    rep = check_homomorphism(GenConfig(cases=150))
    assert rep["suite"] == "homomorphism"
    assert rep["failures"] == []


def test_report_shape_and_reproducibility():
    rep1 = check_theorem1(GenConfig(cases=30))
    rep2 = check_theorem1(GenConfig(cases=30))
    assert set(rep1) == {"suite", "seed", "cases", "failures"}
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reports_reproducible_for_any_seed(seed):
    cfg = GenConfig(seed=seed, cases=4)
    assert json.dumps(check_homomorphism(cfg), sort_keys=True) == json.dumps(
        check_homomorphism(GenConfig(seed=seed, cases=4)), sort_keys=True
    )


# ---------------------------------------------------------------------------
# unfolding oracle
# ---------------------------------------------------------------------------


def test_unfold_oracle_on_the_descent_pair():
    assert check_unfold_oracle(XI, XI2, 2) == []


def test_unfold_oracle_identity_without_fixed_points():
    s = Guard(App("g", (Var("x"), Var("x"))), Ins(TAU))
    r = jump((1,), Ins(TAU_P))
    assert check_unfold_oracle(s, r, 1) == []
    # with no binders the unfolded pair is the original pair, so the two
    # reduction paths coincide step for step
    tr1, tr2 = [], []
    u1 = unify(s, r, trace=tr1)
    u2 = unify(s, r, trace=tr2)
    assert u1 == u2
    assert tr1 == tr2


def test_unfold_oracle_rejects_open_strategies():
    with pytest.raises(ValidationFailure, match=r"^left strategy is open: \['X'\]$"):
        check_unfold_oracle(SVar("X"), XI, 1)


def test_unfold_oracle_raises_the_engine_gate_message_naming_the_side():
    looping = Mu("X", Choice(Ins(TAU), SVar("X")))
    with pytest.raises(ValidationFailure, match=r"^left strategy is not monotone$"):
        check_unfold_oracle(looping, XI, 1)
    with pytest.raises(ValidationFailure, match=r"^right strategy is not monotone$"):
        check_unfold_oracle(XI, looping, 1)


def test_unfold_suite_clean():
    rep = suite_unfold(GenConfig(cases=25))
    assert rep["suite"] == "unfold"
    assert rep["cases"] == 25
    assert rep["failures"] == []


# ---------------------------------------------------------------------------
# algebraic law suite
# ---------------------------------------------------------------------------


def test_algebra_suite_clean_under_nest():
    assert check_algebra(GenConfig(cases=40))["failures"] == []


def test_algebra_suite_clean_under_left_project():
    cfg = GenConfig(cases=40, merge_mode=MergePolicy.LEFT_PROJECT)
    assert check_algebra(cfg)["failures"] == []


def test_nest_idempotence_counterexample():
    s = Ins(TAU)
    u = unify(s, s)
    t = App("a")
    assert eval_strategy(s, t) == App("list", (App("a"), App("i")))
    assert eval_strategy(u, t) == App("list", (App("list", (App("a"), App("i"))), App("i")))


def test_nest_commutativity_counterexample():
    left = eval_strategy(unify(Ins(TAU), Ins(TAU_P)), App("a"))
    right = eval_strategy(unify(Ins(TAU_P), Ins(TAU)), App("a"))
    assert left == App("list", (App("list", (App("a"), App("j"))), App("i")))
    assert right == App("list", (App("list", (App("a"), App("i"))), App("j")))


def test_conflicting_guards_unify_to_nowhere():
    # both sides succeed somewhere, yet their unification fails everywhere:
    # failing-nowhere is not preserved by unification, only the pointwise
    # direction (either side fails at t => the unification fails at t) holds
    left = Guard(App("a"), Ins(TAU))
    right = Guard(App("b"), Ins(TAU))
    u = unify(left, right)
    assert eval_strategy(left, App("a")) == App("list", (App("a"), App("i")))
    assert eval_strategy(right, App("b")) == App("list", (App("b"), App("i")))
    assert all(eval_strategy(u, t) is None for t in terms_up_to_depth(DEFAULT_SIGNATURE, 2))
    # the combination instead fails exactly where both sides fail
    c = combine(left, right)
    for t in terms_up_to_depth(DEFAULT_SIGNATURE, 2):
        both_fail = eval_strategy(left, t) is None and eval_strategy(right, t) is None
        assert (eval_strategy(c, t) is None) == both_fail


def test_fixed_point_restart_counterexample():
    """Why the translation-agreement suites stay frontier-progressing.

    The unified strategy carries mu Y into a conjunction entry, so at a
    subterm u it restarts with depth(u) unfoldings; the image of the original
    arrives at u with whatever count is left over from the root, which can be
    larger.  A body that succeeds on constants (here via the insertion at
    eps) observes the difference at the shallow child f(b): two leftover
    unfoldings reach position 1.1, one restart unfolding does not.
    """
    s = parse_strategy("@2.ins <[]>")
    r = parse_strategy("mu Y. [@1.Y, @eps.ins <[]>]")
    t = parse_term("g(f(b), f(f(a)))")
    assert not _binder_bodies_progress(r, DEFAULT_SIGNATURE)
    pointwise = unify_pos(psi(s, t), psi(r, t))
    assert print_posce(pointwise) == "[@1.1.<[]>, @1.<[]>, @2.<[]>, @eps.<[]>]"
    restarted = psi(unify(s, r), t)
    assert print_posce(restarted) == "[@1.<[]>, @2.<[]>, @eps.<[]>]"
    assert not eq_pos(restarted, pointwise)
    # guarding the body restores progress, and with it the agreement
    r2 = parse_strategy("mu Y. g(?x, ?y) ; [@1.Y, @eps.ins <[]>]")
    assert _binder_bodies_progress(r2, DEFAULT_SIGNATURE)
    again = unify_pos(psi(s, t), psi(r2, t))
    assert eq_pos(psi(unify(s, r2), t), again)
    assert print_posce(again) == "[@2.<[]>, @eps.<[]>]"


# ---------------------------------------------------------------------------
# fixed-point semantics
# ---------------------------------------------------------------------------


def test_stabilization_suite_clean():
    rep = check_stabilization(GenConfig(cases=30))
    assert rep["suite"] == "stabilization"
    assert rep["failures"] == []


def test_td_replay_suite_clean():
    assert check_td_replay(GenConfig(cases=5))["failures"] == []


def test_a_wrong_stored_condition_answer_is_reported_by_both_oracles():
    # Every closed condition the generated strategies gate on gets the wrong
    # answer planted for every subject.  Evaluation reads it; ψ and the
    # replay must not, or they would agree with the wrong evaluation.
    cfg = GenConfig(signature={"a": 0, "f": 1, "g": 2}, cases=30)
    assert check_homomorphism(cfg)["failures"] == [] and check_td_replay(cfg)["failures"] == []
    held = [gen_strategy(cfg, i) for i in range(cfg.cases)]  # the suites meet these nodes
    conds = {node.cond for s in held for node in nodes(s)
             if isinstance(node, IfThen) and not node.cond.free and not node.cond.never_fails}
    assert conds
    subjects = terms_up_to_depth(cfg.signature, 3)
    try:
        for s in held:
            strategy._set_memo(s, None)
        for c in conds:
            strategy._set_holds(c, {t: psi(c, t).is_fail for t in subjects})
        assert check_homomorphism(cfg)["failures"]
        assert check_td_replay(cfg)["failures"]
    finally:
        for s in held:
            strategy._set_memo(s, None)
        for c in conds:
            strategy._set_holds(c, None)


def test_replay_frozen_case():
    # the iterate budget is the term depth, so at g(g(b,b), b) the guard can
    # fire on the depth-0 child but not inside the depth-1 child
    s = Guard(App("b"), Ins(TAU))
    t = App("g", (App("g", (App("b"), App("b"))), App("b")))
    expected = App("g", (App("g", (App("b"), App("b"))), App("list", (App("b"), App("i")))))
    assert replay(s, t, depth(t)) == expected
    assert eval_strategy(td(s), t) == expected
    # one level lower there is no fuel left to reach the children at all
    shallow = App("g", (App("b"), App("b")))
    assert replay(s, shallow, depth(shallow)) is None
    assert eval_strategy(td(s), shallow) is None
