"""Position-based insertion strategies: ordering, application, unification."""

import pytest
from hypothesis import given, strategies as st

from ctxembed.posce import (
    FAIL_PCE,
    PosCE,
    apply_pos_ce,
    canonicalize,
    combine_pos,
    eq_pos,
    unify_pos,
)
from ctxembed.terms import App, Context, HOLE, MergePolicy, terms_up_to_depth, DEFAULT_SIGNATURE


def la(name):
    return App(name)


def list2(s, t):
    return App("list", (s, t))


TAU_I = Context(list2(HOLE, la("i")))
TAU_J = Context(list2(HOLE, la("j")))
BOX = Context(HOLE)


def pce(*entries):
    return PosCE(tuple(entries))


# ---------------------------------------------------------------------------
# canonical order
# ---------------------------------------------------------------------------


def test_canonicalize_orders_descendants_before_ancestors():
    e = pce(((), TAU_I), ((1,), TAU_J), ((1, 1), TAU_I))
    assert canonicalize(e) == pce(((1, 1), TAU_I), ((1,), TAU_J), ((), TAU_I))


def test_canonicalize_parallel_lexicographic():
    e = pce(((2,), TAU_J), ((1,), TAU_I))
    assert canonicalize(e) == pce(((1,), TAU_I), ((2,), TAU_J))


def test_canonical_output_is_well_founded():
    e = pce(((), TAU_I), ((2,), TAU_J), ((1, 2), TAU_I), ((1,), TAU_J))
    assert canonicalize(e) == pce(((1, 2), TAU_I), ((1,), TAU_J), ((2,), TAU_J), ((), TAU_I))


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def test_apply_single_root_insertion():
    t = App("var", (la("x"), App("reg", (la("omega"), la("one")))))
    got = apply_pos_ce(pce(((), TAU_I)), t)
    assert got == list2(t, la("i"))


def test_apply_two_parallel_insertions():
    t = App("d", (la("u"), la("x")))
    e = pce(((1,), TAU_I), ((2,), TAU_J))
    assert apply_pos_ce(e, t) == App("d", (list2(la("u"), la("i")), list2(la("x"), la("j"))))


def test_apply_first_entry_first():
    # both entries at the root: the first wraps first, the second wraps the result
    e = pce(((), TAU_I), ((), TAU_J))
    assert apply_pos_ce(e, la("u")) == list2(list2(la("u"), la("i")), la("j"))


def test_apply_missing_position_is_skipped():
    t = App("f", (la("a"),))
    e = pce(((1, 1), TAU_I), ((), TAU_J))
    assert apply_pos_ce(e, t) == list2(t, la("j"))


def test_apply_reaches_a_position_an_earlier_entry_made():
    # unordered: @1 exists only once the root insertion has run
    e = pce(((), Context(App("f", (HOLE,)))), ((1,), Context(App("g", (HOLE, la("a"))))))
    assert apply_pos_ce(e, la("a")) == App("f", (App("g", (la("a"), la("a"))),))


def test_apply_fails_when_no_position_exists():
    t = la("a")
    assert apply_pos_ce(pce(((1,), TAU_I)), t) is None


def test_apply_fail_strategy():
    assert apply_pos_ce(FAIL_PCE, la("a")) is None


def test_apply_nested_positions_inner_then_outer():
    t = App("f", (la("a"),))
    e = pce(((1,), TAU_I), ((), TAU_J))
    assert apply_pos_ce(e, t) == list2(App("f", (list2(la("a"), la("i")),)), la("j"))


# ---------------------------------------------------------------------------
# unification
# ---------------------------------------------------------------------------


def test_unify_shared_root_merges_left_outer():
    got = unify_pos(pce(((), TAU_I)), pce(((), TAU_J)))
    merged = Context(list2(list2(HOLE, la("j")), la("i")))
    assert got == pce(((), merged))


def test_unify_fail_absorbing():
    e = pce(((), TAU_I))
    assert unify_pos(FAIL_PCE, e) == FAIL_PCE
    assert unify_pos(e, FAIL_PCE) == FAIL_PCE


def test_unify_disjoint_positions_canonical():
    got = unify_pos(pce(((1,), TAU_I)), pce(((1, 1), TAU_J)))
    assert got == pce(((1, 1), TAU_J), ((1,), TAU_I))


def test_unify_worked_example_five_positions():
    # shared first position, two extra on each side, all pairwise parallel
    t1, t2, t3 = TAU_I, TAU_J, Context(list2(HOLE, la("k")))
    s1, s2, s3 = Context(list2(HOLE, la("l"))), Context(list2(HOLE, la("m"))), Context(list2(HOLE, la("n")))
    left = pce(((1,), t1), ((2,), t2), ((3,), t3))
    right = pce(((1,), s1), ((4,), s2), ((5,), s3))
    merged = Context(list2(list2(HOLE, la("l")), la("i")))
    assert unify_pos(left, right) == pce(
        ((1,), merged), ((2,), t2), ((3,), t3), ((4,), s2), ((5,), s3)
    )


def test_unify_left_project_policy():
    got = unify_pos(pce(((), TAU_I)), pce(((), TAU_J)), MergePolicy.LEFT_PROJECT)
    assert got == pce(((), TAU_I))


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------


def test_combine_both_defined_unifies():
    got = combine_pos(pce(((), TAU_I)), pce(((), TAU_J)))
    assert got == unify_pos(pce(((), TAU_I)), pce(((), TAU_J)))


def test_combine_fail_neutral():
    e = pce(((1,), TAU_I))
    assert combine_pos(e, FAIL_PCE) == e
    assert combine_pos(FAIL_PCE, e) == e
    assert combine_pos(FAIL_PCE, FAIL_PCE) == FAIL_PCE


# ---------------------------------------------------------------------------
# equality and algebra over sampled inputs
# ---------------------------------------------------------------------------

contexts_st = st.sampled_from(
    [TAU_I, TAU_J, BOX, Context(App("f", (HOLE,))), Context(App("g", (HOLE, App("a"))))]
)
positions_st = st.sampled_from([(), (1,), (2,), (1, 1), (1, 2), (2, 1)])
pos_ces = st.one_of(
    st.just(FAIL_PCE),
    st.lists(st.tuples(positions_st, contexts_st), min_size=1, max_size=3, unique_by=lambda e: e[0])
    .map(lambda es: canonicalize(PosCE(tuple(es)))),
)


@given(pos_ces)
def test_eq_pos_ignores_order(e):
    if not e.is_fail:
        reordered = PosCE(tuple(reversed(e.entries)))
        assert eq_pos(e, reordered)


@given(pos_ces, pos_ces, pos_ces)
def test_unify_associative(e1, e2, e3):
    assert eq_pos(unify_pos(unify_pos(e1, e2), e3), unify_pos(e1, unify_pos(e2, e3)))


@given(pos_ces, pos_ces, pos_ces)
def test_combine_associative(e1, e2, e3):
    assert eq_pos(combine_pos(combine_pos(e1, e2), e3), combine_pos(e1, combine_pos(e2, e3)))


@given(pos_ces)
def test_unify_left_project_idempotent(e1):
    # LEFT_PROJECT merge is idempotent, so self-unification is identity
    assert eq_pos(unify_pos(e1, e1, MergePolicy.LEFT_PROJECT), e1)


def test_unify_nest_not_idempotent_witness():
    e = pce(((), TAU_I))
    assert not eq_pos(unify_pos(e, e), e)


@given(pos_ces)
def test_unify_fail_absorbing_prop(e):
    assert unify_pos(e, FAIL_PCE).is_fail
    assert unify_pos(FAIL_PCE, e).is_fail


@given(pos_ces)
def test_semantics_of_neutral_entry(e):
    # a root box insertion changes nothing on terms where the strategy
    # succeeds; where it fails, only the success gate can differ, which is
    # why the strategy-level unification guards its output with a condition
    n = pce(((), BOX))
    u = unify_pos(e, n)
    for t in terms_up_to_depth(DEFAULT_SIGNATURE, 2)[:20]:
        right = apply_pos_ce(e, t)
        if right is not None:
            assert apply_pos_ce(u, t) == right
