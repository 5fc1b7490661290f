"""Translating strategies into position-indexed form, term by term."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxembed import strategy
from ctxembed.checks import GenConfig, _gen_fixed_point, gen_strategy, gen_term
from ctxembed.engine import combine, unify
from ctxembed.posce import FAIL_PCE, PosCE, apply_pos_ce, combine_pos, eq_pos, unify_pos
from ctxembed.strategy import (
    FAIL_S,
    Choice,
    Conj,
    Guard,
    IfThen,
    Ins,
    Most,
    Mu,
    SVar,
    ValidationFailure,
    eval_strategy,
    jump,
    mu_iterate,
    nodes,
)
from ctxembed.syntax import parse_strategy, parse_term, print_posce
from ctxembed.terms import HOLE, App, Context, Var, depth, merge
from ctxembed.translate import psi


def a():
    return App("a")


def b():
    return App("b")


def f(x):
    return App("f", (x,))


def g(x, y):
    return App("g", (x, y))


TAU = Context(App("list", (HOLE, App("i"))))
TAU_P = Context(App("list", (HOLE, App("j"))))
SIGMA = Context(App("f", (HOLE,)))
U = g(Var("x"), Var("x"))
U_P = g(Var("x"), b())

XI = Mu("X", Choice(Guard(U, Ins(TAU)), jump((1,), SVar("X"))))
XI_P = Mu("X'", Choice(Guard(U_P, Ins(TAU_P)), jump((1,), SVar("X'"))))


# ---------------------------------------------------------------------------
# clause-by-clause behavior
# ---------------------------------------------------------------------------


def test_failure_translates_to_failure():
    assert psi(FAIL_S, a()) == FAIL_PCE


def test_open_strategy_is_rejected():
    with pytest.raises(ValidationFailure):
        psi(SVar("X"), a())


def test_insertion_lands_at_the_root():
    assert psi(Ins(TAU), a()) == PosCE((((), TAU),))


def test_guard_consults_the_subject():
    s = Guard(U, Ins(TAU))
    assert psi(s, g(b(), b())) == PosCE((((), TAU),))
    assert psi(s, g(a(), b())) == FAIL_PCE


def test_choice_is_left_biased():
    s = Choice(Ins(TAU), Ins(TAU_P))
    assert psi(s, a()) == PosCE((((), TAU),))
    s = Choice(Guard(U, Ins(TAU)), Ins(TAU_P))
    assert psi(s, g(a(), b())) == PosCE((((), TAU_P),))


def test_jump_prefixes_positions():
    s = jump((1, 2), Ins(TAU))
    assert psi(s, g(g(a(), b()), a())) == PosCE((((1, 2), TAU),))
    assert psi(s, g(a(), b())) == FAIL_PCE
    assert psi(s, a()) == FAIL_PCE


def test_conjunction_translates_against_original_children():
    s = Conj(((1, Ins(TAU)), (2, Ins(TAU_P))))
    assert psi(s, g(a(), b())) == PosCE((((1,), TAU), ((2,), TAU_P)))
    assert psi(s, f(a())) == PosCE((((1,), TAU),))
    assert psi(s, a()) == FAIL_PCE


def test_conjunction_eps_entry_comes_last():
    s = Conj(((1, Ins(SIGMA)), (None, Ins(TAU))))
    assert psi(s, f(a())) == PosCE((((1,), SIGMA), ((), TAU)))


def test_duplicate_positions_merge_with_later_entry_outermost():
    s = Conj(((None, Ins(TAU)), (None, Ins(TAU_P))))
    assert psi(s, a()) == PosCE((((), merge(TAU_P, TAU)),))


def test_one_position_written_from_two_depths_merges_later_outermost():
    # the second write to @1 comes from one level further down
    s = Conj(((1, Ins(TAU)), (1, Conj(((None, Ins(TAU_P)),)))))
    assert psi(s, f(a())) == PosCE((((1,), merge(TAU_P, TAU)),))


def test_a_branch_failing_after_its_condition_leaves_no_trace():
    s = Choice(IfThen(Ins(TAU), FAIL_S), Ins(TAU_P))
    assert psi(s, a()) == PosCE((((), TAU_P),))


def test_descendants_precede_ancestors_after_translation():
    s = Conj(((1, jump((2,), Ins(TAU))), (1, Ins(TAU_P))))
    got = psi(s, g(g(a(), b()), a()))
    assert got == PosCE((((1, 2), TAU), ((1,), TAU_P)))
    assert apply_pos_ce(got, g(g(a(), b()), a())) is not None


def test_most_expands_over_the_actual_arity():
    s = Most(Ins(SIGMA))
    assert psi(s, g(a(), b())) == PosCE((((1,), SIGMA), ((2,), SIGMA)))
    assert psi(s, f(a())) == PosCE((((1,), SIGMA),))
    assert psi(s, a()) == FAIL_PCE


TD_F = Mu("X", Choice(Guard(f(Var("x")), Ins(SIGMA)), Most(SVar("X"))))

# (strategy, term, evaluation result, image), worked out by hand: Most visits
# every child, also the ones after a child that fails
MOST_CASES = [
    (Most(Ins(SIGMA)), a(), None, FAIL_PCE),
    (Most(Guard(a(), Ins(SIGMA))), b(), None, FAIL_PCE),
    (Most(Guard(a(), Ins(SIGMA))), g(a(), b()), g(f(a()), b()), PosCE((((1,), SIGMA),))),
    (Most(Guard(a(), Ins(SIGMA))), g(b(), a()), g(b(), f(a())), PosCE((((2,), SIGMA),))),
    (Most(Guard(a(), Ins(SIGMA))), g(b(), b()), None, FAIL_PCE),
    # the top-down driver: failing first children do not stop the descent
    (TD_F, g(b(), g(f(a()), b())), g(b(), g(f(f(a())), b())), PosCE((((2, 1), SIGMA),))),
    (TD_F, b(), None, FAIL_PCE),
]


@pytest.mark.parametrize("s, t, result, image", MOST_CASES)
def test_most_in_evaluation_and_translation(s, t, result, image):
    assert eval_strategy(s, t) == result
    assert psi(s, t) == image
    if isinstance(s, Mu):
        iterate = mu_iterate(s.var, s.body, depth(t))
        assert eval_strategy(iterate, t) == result
        assert psi(iterate, t) == image


def test_condition_gates_the_translation():
    s = IfThen(jump((1,), Ins(TAU)), Ins(TAU_P))
    assert psi(s, f(a())) == PosCE((((), TAU_P),))
    assert psi(s, a()) == FAIL_PCE


def test_fixed_point_iterates_to_the_subject_depth():
    assert psi(XI, a()) == FAIL_PCE
    assert psi(XI, g(b(), b())) == PosCE((((), TAU),))
    assert psi(XI, g(g(b(), b()), a())) == PosCE((((1,), TAU),))


# ---------------------------------------------------------------------------
# fixed points in an environment, against the substituted iterate
# ---------------------------------------------------------------------------

# (strategy, term, image worked out by hand)
ENVIRONMENT_CASES = [
    # the inner X shadows the outer one
    (
        "mu X. [@1.((mu X. (f(b) ; ins <f([])>) + @1.X)), @2.((a ; ins <f([])>) + X)]",
        "g(f(f(b)),g(b,a))",
        "[@1.1.<f([])>, @2.2.<f([])>]",
    ),
    # X is used inside Y's binder and keeps its own count
    (
        "mu X. mu Y. (f(?x) ; ins <f([])>) + [@1.X, @2.Y]",
        "g(g(f(a),b),g(b,f(b)))",
        "[@1.1.<f([])>, @2.2.<f([])>]",
    ),
    # the iterations run out one level above the leaf the guard waits for
    ("mu X. a ; ins <f([])> + @1.X", "f(f(a))", "fail"),
]


@pytest.mark.parametrize("text, term, expected", ENVIRONMENT_CASES)
def test_fixed_point_translates_in_an_environment(text, term, expected):
    s, t = parse_strategy(text), parse_term(term)
    got = psi(s, t)
    assert print_posce(got) == expected
    assert got == psi(mu_iterate(s.var, s.body, depth(t)), t)


def test_environment_agrees_with_substitution_on_generated_fixed_points():
    cfg = GenConfig(seed=6, max_term_depth=4, max_mu_nesting=3)
    # every fixed point fails on a constant, on either side
    terms = [t for t in (gen_term(cfg, j) for j in range(800)) if depth(t) > 0]
    checked = 0
    for i in range(200):
        binders = [_gen_fixed_point(cfg, i)]
        binders += [m for m in nodes(gen_strategy(cfg, i)) if isinstance(m, Mu) and not m.free]
        for m in binders:
            for t in (terms[i % len(terms)], terms[(i + 1) % len(terms)]):
                assert psi(m, t) == psi(mu_iterate(m.var, m.body, depth(t)), t)
                checked += 1
    assert checked >= 500


def test_translation_reaches_a_450_deep_spine():
    # one Python frame per term level (a map runs its entries in its own
    # frame), none per unfolding
    s = parse_strategy("mu X. a ; ins <f([])> + @1.X")
    t = a()
    for _ in range(800):
        t = f(t)
    assert psi(s, t) == FAIL_PCE


def test_open_variable_keeps_its_message():
    with pytest.raises(ValidationFailure, match=r"^cannot translate open strategy \(free X\)$"):
        psi(Mu("Y", Conj(((1, SVar("X")),))), f(a()))


def test_free_variable_is_not_captured_by_an_inner_binder():
    # substituting the iterate under mu Y binds some copies of the free Y
    # there, but its root copy stays free, so the iterate is rejected as the
    # strategy is: before any branch runs
    s = parse_strategy("mu X. (f(?x) ; Y) + @1.mu Y. X + ins <f([])>")
    t = g(f(a()), b())
    for open_ in (s, mu_iterate(s.var, s.body, depth(t))):
        with pytest.raises(ValidationFailure, match=r"^cannot translate open strategy \(free Y\)$"):
            psi(open_, t)


# on g(a, b) neither free X is ever reached: the left branch succeeds, and the
# condition succeeds at its first map entry
@pytest.mark.parametrize("text", ["ins <f([])> + X", "if [@1.ins <f([])>, @2.X] then ins <f([])>"])
def test_open_strategy_is_rejected_before_any_branch_runs(text):
    with pytest.raises(ValidationFailure, match=r"^cannot translate open strategy \(free X\)$"):
        psi(parse_strategy(text), g(a(), b()))


# ---------------------------------------------------------------------------
# agreement with direct evaluation
# ---------------------------------------------------------------------------

AGREEMENT_CASES = [
    (Ins(TAU), a()),
    (Guard(U, Ins(TAU)), g(b(), b())),
    (Guard(U, Ins(TAU)), g(a(), b())),
    (Choice(Guard(U, Ins(TAU)), Ins(TAU_P)), g(a(), b())),
    (Conj(((1, Ins(TAU)), (2, Ins(TAU_P)))), g(a(), b())),
    (Conj(((1, Ins(TAU)), (2, Ins(TAU_P)))), f(a())),
    (Conj(((2, Ins(SIGMA)), (None, Ins(TAU)))), g(a(), b())),
    (Most(Ins(SIGMA)), g(a(), b())),
    (Most(Guard(a(), Ins(SIGMA))), g(a(), b())),
    (Most(Guard(a(), Ins(SIGMA))), g(b(), b())),
    (IfThen(jump((1,), Ins(TAU)), Most(Ins(SIGMA))), g(a(), b())),
    (XI, a()),
    (XI, g(b(), b())),
    (XI, g(g(b(), b()), a())),
    (XI, f(f(g(b(), b())))),
]


@pytest.mark.parametrize("s,t", AGREEMENT_CASES)
def test_translation_agrees_with_evaluation(s, t):
    assert apply_pos_ce(psi(s, t), t) == eval_strategy(s, t)


def test_translation_of_engine_output_agrees_on_recursive_example():
    got = unify(XI, XI_P)
    for t in [
        g(b(), b()),
        g(g(a(), b()), g(a(), b())),
        g(g(a(), a()), b()),
        g(g(b(), b()), a()),
        a(),
        f(a()),
    ]:
        assert apply_pos_ce(psi(got, t), t) == eval_strategy(got, t)


# ---------------------------------------------------------------------------
# the translation is a homomorphism for unification and combination
# ---------------------------------------------------------------------------

PAIRS = [
    (Guard(U, Ins(TAU)), Ins(TAU_P)),
    (Most(Ins(SIGMA)), Ins(TAU)),
    (Conj(((1, Ins(TAU)), (2, Ins(TAU)))), Conj(((2, Ins(TAU_P)), (1, Ins(SIGMA))))),
    (Choice(Ins(TAU), Guard(U, Ins(TAU_P))), Most(Ins(SIGMA))),
    (XI, XI_P),
]

TERMS = [a(), b(), f(a()), g(a(), b()), g(g(b(), b()), a()), g(g(a(), b()), g(a(), b()))]


@pytest.mark.parametrize("s,r", PAIRS)
def test_unify_commutes_with_translation(s, r):
    for t in TERMS:
        joint = psi(unify(s, r), t)
        pointwise = unify_pos(psi(s, t), psi(r, t))
        assert eq_pos(joint, pointwise)


@pytest.mark.parametrize("s,r", PAIRS)
def test_combine_commutes_with_translation(s, r):
    for t in TERMS:
        joint = psi(combine(s, r), t)
        pointwise = combine_pos(psi(s, t), psi(r, t))
        assert eq_pos(joint, pointwise)


# ---------------------------------------------------------------------------
# property: agreement on generated closed strategies without binders
# ---------------------------------------------------------------------------

_gterms = st.recursive(
    st.sampled_from([a(), b()]),
    lambda kids: st.builds(lambda t: f(t), kids)
    | st.builds(lambda l, r: g(l, r), kids, kids),
    max_leaves=5,
)

_patterns = st.sampled_from([a(), U, U_P, f(Var("x")), Var("x")])
_ctxs = st.sampled_from([TAU, TAU_P, SIGMA])


def _flat():
    base = st.just(FAIL_S) | st.builds(Ins, _ctxs)

    def extend(kids):
        def mk_conj(pairs, eps_body):
            seen = {}
            for i, body in pairs:
                seen[i] = body
            entries = tuple(sorted(seen.items())) + (
                ((None, eps_body),) if eps_body is not None else ()
            )
            return Conj(entries)

        conj = st.builds(
            mk_conj,
            st.lists(st.tuples(st.integers(1, 3), kids), min_size=1, max_size=3),
            st.none() | st.builds(Ins, _ctxs),
        )
        return (
            st.builds(Guard, _patterns, kids)
            | st.builds(Choice, kids, kids)
            | conj
            | st.builds(Most, kids)
            | st.builds(IfThen, kids, kids)
        )

    return st.recursive(base, extend, max_leaves=5)


@settings(max_examples=400, deadline=None)
@given(_flat(), _gterms)
def test_translation_agrees_on_generated_cases(s, t):
    assert apply_pos_ce(psi(s, t), t) == eval_strategy(s, t)


@settings(max_examples=200, deadline=None)
@given(_flat(), st.sampled_from(["X", "Y"]), st.integers(0, 3), _gterms)
def test_every_open_strategy_is_rejected(s, name, where, t):
    # the free variable sits in a branch, a condition or a body that may
    # never run on t
    var = SVar(name)
    s = (Choice(s, var), Choice(var, s), IfThen(Conj(((1, s), (2, var))), s), IfThen(s, var))[where]
    with pytest.raises(ValidationFailure, match=rf"^cannot translate open strategy \(free {name}\)$"):
        psi(s, t)


def test_psi_reads_no_stored_condition_answer():
    # wrong answers planted in a condition's map change evaluation, not ψ
    cond = jump((1,), Guard(a(), Ins(Context(f(HOLE)))))
    s = IfThen(cond, Ins(Context(App("psi_planted", (HOLE,)))))
    yes, no = g(a(), b()), g(b(), a())
    images = {t: psi(s, t) for t in (yes, no)}
    assert apply_pos_ce(images[yes], yes) == App("psi_planted", (yes,)) and images[no] == FAIL_PCE
    strategy._set_holds(cond, {yes: False, no: True})
    try:
        assert strategy._eval(s, yes, {}, True) is None
        assert strategy._eval(s, no, {}, True) == App("psi_planted", (no,))
        assert {t: psi(s, t) for t in (yes, no)} == images
    finally:
        strategy._set_holds(cond, None)
