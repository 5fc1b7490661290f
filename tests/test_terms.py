"""Term, position, and context operations against hand-computed values."""

import copy
import dataclasses
import doctest
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from ctxembed import terms
from ctxembed.terms import (
    App,
    Context,
    DEFAULT_SIGNATURE,
    HOLE,
    MergePolicy,
    PositionError,
    SignatureError,
    Var,
    check_signature,
    depth,
    infer_signature,
    match,
    merge,
    positions,
    replace,
    subterm,
    terms_up_to_depth,
)


def a():
    return App("a")


def b():
    return App("b")


def f(t):
    return App("f", (t,))


def g(s, t):
    return App("g", (s, t))


def ctx(body):
    return Context(body)


# ---------------------------------------------------------------------------
# hypothesis generators over the default signature
# ---------------------------------------------------------------------------

ground_terms = st.recursive(
    st.sampled_from([a(), b()]),
    lambda sub: st.one_of(
        st.builds(lambda t: f(t), sub),
        st.builds(lambda s, t: g(s, t), sub, sub),
    ),
    max_leaves=12,
)

pattern_terms = st.recursive(
    st.one_of(st.sampled_from([a(), b()]), st.sampled_from("xyz").map(Var)),
    lambda sub: st.one_of(
        st.builds(lambda t: f(t), sub),
        st.builds(lambda s, t: g(s, t), sub, sub),
    ),
    max_leaves=8,
)


# ---------------------------------------------------------------------------
# positions, subterm, replace, depth
# ---------------------------------------------------------------------------


def test_positions_of_nested_term():
    t = g(f(a()), b())
    assert set(positions(t)) == {(), (1,), (1, 1), (2,)}


def test_positions_preorder():
    t = g(f(a()), b())
    assert positions(t) == [(), (1,), (1, 1), (2,)]


def test_subterm_at_positions():
    t = g(f(a()), b())
    assert subterm(t, ()) == t
    assert subterm(t, (1,)) == f(a())
    assert subterm(t, (1, 1)) == a()
    assert subterm(t, (2,)) == b()


def test_subterm_invalid_position_raises():
    with pytest.raises(PositionError):
        subterm(g(a(), b()), (3,))
    with pytest.raises(PositionError):
        subterm(a(), (1,))


def test_replace_at_position():
    assert replace(g(a(), b()), (1,), f(a())) == g(f(a()), b())
    assert replace(g(a(), b()), (), f(b())) == f(b())


def test_depth_values():
    assert depth(a()) == 0
    assert depth(Var("x")) == 0
    assert depth(f(a())) == 1
    assert depth(g(f(a()), b())) == 2


def test_depth_is_kept_per_node_and_right_on_shared_and_fresh_subterms():
    shared = g(f(a()), b())
    assert depth(shared) == 2
    # the cached subterm appears twice, once under a deeper sibling
    t = g(shared, f(f(shared)))
    assert depth(t) == 5
    assert depth(shared) == 2
    # replace builds fresh nodes above the spot, so no stale depth is read
    deeper = replace(t, (1, 2), f(f(f(f(a())))))
    assert depth(deeper) == 6
    assert depth(replace(deeper, (1,), a())) == 5
    assert depth(t) == 5


def test_app_by_position_and_by_keyword_behaves_like_the_dataclass():
    by_position = App("g", (f(a()), b()))
    by_keyword = App(head="g", args=(App(head="f", args=(App(head="a"),)), App("b")))
    assert by_position == by_keyword and not by_position != by_keyword
    # one object, hashed by identity
    assert hash(by_position) == hash(by_keyword) == object.__hash__(by_position)
    assert repr(by_keyword) == (
        "App(head='g', args=(App(head='f', args=(App(head='a', args=()),)), "
        "App(head='b', args=())))"
    )
    assert App("a") == App(head="a", args=()) and App("a") != App("b")
    assert App("a") != Var("a") and Var("a") != App("a") and App("a") != "a"
    assert App.__match_args__ == ("head", "args")
    match_args_bind = False
    match by_keyword:
        case App(head, (App("f"), second)):
            match_args_bind = head == "g" and second == b()
    assert match_args_bind
    with pytest.raises(dataclasses.FrozenInstanceError):
        by_position.head = "f"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del by_position.args


def test_unequal_terms_with_known_hashes_differ():
    s, t = g(a(), b()), g(a(), a())
    assert s != t and g(f(s), a()) != g(f(t), a())
    assert s == g(a(), b()) and hash(s) == hash(g(a(), b()))


def test_copied_and_unpickled_terms_are_the_interned_term():
    t = g(f(Var("x")), b())
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    c = ctx(g(HOLE, t))
    assert copy.deepcopy(c).body is c.body


def test_var_and_context_hash_as_the_tuple_of_their_compared_fields():
    assert hash(Var("x")) == hash(("x",))
    for c in (ctx(list2(HOLE, App("i"))), ctx(HOLE), ctx(g(f(Var("x")), HOLE))):
        assert hash(c) == hash((c.body,))


def test_cached_fields_take_no_part_in_equality_hash_or_repr():
    seen, fresh = g(f(a()), b()), g(f(a()), b())
    assert seen._depth == 2
    assert seen == fresh and hash(seen) == hash(fresh)
    assert repr(seen) == repr(fresh)
    c = ctx(list2(HOLE, App("i")))
    assert c == ctx(list2(HOLE, App("i")))
    assert hash(c) == hash(ctx(list2(HOLE, App("i"))))
    assert repr(c) == "Context(body=App(head='list', args=(Hole(), App(head='i', args=()))))"


@given(ground_terms)
def test_every_listed_position_resolves(t):
    for p in positions(t):
        subterm(t, p)


@given(ground_terms)
def test_depth_is_longest_position(t):
    assert depth(t) == max(len(p) for p in positions(t))


@given(ground_terms)
def test_replace_with_own_subterm_is_identity(t):
    for p in positions(t):
        assert replace(t, p, subterm(t, p)) == t


@given(ground_terms, ground_terms)
def test_replace_then_subterm_roundtrip(t, s):
    for p in positions(t):
        assert subterm(replace(t, p, s), p) == s


# ---------------------------------------------------------------------------
# matching and substitution
# ---------------------------------------------------------------------------


def test_match_binds_variables():
    assert match(g(Var("x"), b()), g(a(), b())) == {"x": a()}


def test_match_nonlinear_consistent():
    assert match(g(Var("x"), Var("x")), g(a(), a())) == {"x": a()}


def test_match_nonlinear_mismatch():
    assert match(g(Var("x"), Var("x")), g(a(), b())) is None


def test_match_symbol_clash():
    assert match(f(Var("x")), g(a(), b())) is None
    assert match(a(), b()) is None


def _match_reference(pattern, subject):
    """The recursive definition of matching, with its left-to-right binding order."""
    binding = {}

    def walk(u, t):
        if isinstance(u, Var):
            if u.name not in binding:
                binding[u.name] = t
                return True
            return binding[u.name] == t
        if isinstance(t, App) and u.head == t.head and len(u.args) == len(t.args):
            return all(walk(uc, tc) for uc, tc in zip(u.args, t.args))
        return False

    return binding if walk(pattern, subject) else None


def _random_term(rng, depth, variables):
    # "g" also occurs with one argument, so heads agree while arities clash
    if depth == 0 or rng.random() < 0.3:
        pool = ["a", "b"] + (["?"] * 2 if variables else [])
        pick = rng.choice(pool)
        return Var(rng.choice("xyz")) if pick == "?" else App(pick)
    head, arity = rng.choice([("f", 1), ("g", 2), ("g", 1)])
    return App(head, tuple(_random_term(rng, depth - 1, variables) for _ in range(arity)))


def _instantiate_each(u, rng, pool):
    """``u`` with each occurrence of a variable replaced independently."""
    if isinstance(u, Var):
        return rng.choice(pool)
    return App(u.head, tuple(_instantiate_each(c, rng, pool) for c in u.args))


def test_match_agrees_with_the_recursive_definition_on_generated_pairs():
    rng = random.Random(4)
    outcomes = {"matched": 0, "failed": 0}
    for _ in range(3_000):
        pattern = _random_term(rng, rng.randint(0, 4), variables=True)
        roll = rng.random()
        if roll < 0.4:
            # repeated variables get independent, sometimes equal, values
            pool = [a(), b(), f(a()), Var("x")]
            subject = _instantiate_each(pattern, rng, pool)
        elif roll < 0.6:
            sigma = {name: _random_term(rng, 2, variables=True) for name in "xyz"}
            subject = _instantiate(pattern, sigma)
        else:
            # subjects may hold variables too; a variable subject matches
            # only a variable pattern
            subject = _random_term(rng, rng.randint(0, 4), variables=rng.random() < 0.5)
        want = _match_reference(pattern, subject)
        got = match(pattern, subject)
        assert got == want
        if want is not None:
            assert list(got) == list(want)
        outcomes["failed" if want is None else "matched"] += 1
    assert min(outcomes.values()) >= 500, outcomes


def _instantiate(u, sigma):
    """``u`` with each pattern variable replaced by its value in ``sigma``."""
    if isinstance(u, Var):
        return sigma[u.name]
    return App(u.head, tuple(_instantiate(c, sigma) for c in u.args))


@given(pattern_terms, st.dictionaries(st.sampled_from("xyz"), ground_terms))
def test_match_after_substitute_succeeds(u, sigma):
    nodes = [subterm(u, p) for p in positions(u)]
    full = {v.name: sigma.get(v.name, a()) for v in nodes if isinstance(v, Var)}
    assert match(u, _instantiate(u, full)) == full


# ---------------------------------------------------------------------------
# contexts: fill and merge
# ---------------------------------------------------------------------------


def list2(s, t):
    return App("list", (s, t))


def test_context_requires_exactly_one_hole():
    with pytest.raises(ValueError):
        Context(a())
    with pytest.raises(ValueError):
        Context(App("g", (HOLE, HOLE)))


def test_fill_simple():
    tau = ctx(list2(HOLE, App("i")))
    assert tau.fill(App("x")) == list2(App("x"), App("i"))


def test_fill_nested():
    tau = ctx(list2(list2(HOLE, App("j")), App("i")))
    assert tau.fill(App("x")) == list2(list2(App("x"), App("j")), App("i"))


def test_hole_position():
    assert ctx(HOLE).hole_position == ()
    assert ctx(list2(list2(HOLE, App("j")), App("i"))).hole_position == (1, 1)


def test_context_hole_counts_keep_their_message():
    with pytest.raises(ValueError, match=r"^context must contain exactly one hole, found 0$"):
        Context(g(a(), b()))
    with pytest.raises(ValueError, match=r"^context must contain exactly one hole, found 2$"):
        Context(g(f(HOLE), HOLE))


@pytest.mark.parametrize("policy", list(MergePolicy))
def test_merged_context_has_its_hole_position(policy):
    tau_i = ctx(list2(HOLE, App("i")))
    inner = ctx(g(a(), f(HOLE)))
    merged = merge(tau_i, inner, policy)
    if policy is MergePolicy.NEST:
        assert merged.hole_position == (1, 2, 1)
        assert merged.fill(b()) == list2(g(a(), f(b())), App("i"))
    else:
        assert merged.hole_position == (1,)
        assert merged.fill(b()) == list2(b(), App("i"))


def test_merge_nest_paper_values():
    tau_i = ctx(list2(HOLE, App("i")))
    tau_j = ctx(list2(HOLE, App("j")))
    assert merge(tau_i, tau_j) == ctx(list2(list2(HOLE, App("j")), App("i")))
    assert merge(tau_j, tau_i) == ctx(list2(list2(HOLE, App("i")), App("j")))


def test_merge_nest_not_commutative():
    tau_i = ctx(list2(HOLE, App("i")))
    tau_j = ctx(list2(HOLE, App("j")))
    assert merge(tau_i, tau_j) != merge(tau_j, tau_i)


def test_merge_left_project():
    tau_i = ctx(list2(HOLE, App("i")))
    tau_j = ctx(list2(HOLE, App("j")))
    assert merge(tau_i, tau_j, MergePolicy.LEFT_PROJECT) == tau_i
    assert merge(tau_i, tau_i, MergePolicy.LEFT_PROJECT) == tau_i


contexts_st = st.recursive(
    st.just(HOLE),
    lambda sub: st.one_of(
        st.builds(lambda c: App("f", (c,)), sub),
        st.builds(lambda c, t: App("g", (c, t)), sub, ground_terms),
        st.builds(lambda t, c: App("g", (t, c)), ground_terms, sub),
    ),
    max_leaves=6,
).map(Context)


@given(contexts_st, contexts_st, contexts_st)
def test_merge_nest_associative(c1, c2, c3):
    assert merge(merge(c1, c2), c3) == merge(c1, merge(c2, c3))


@given(contexts_st)
def test_merge_nest_neutral_hole(c):
    box = ctx(HOLE)
    assert merge(c, box) == c
    assert merge(box, c) == c


@given(contexts_st, ground_terms)
def test_fill_at_hole_position(c, t):
    assert subterm(c.fill(t), c.hole_position) == t


# ---------------------------------------------------------------------------
# depth 10^4 without recursion
# ---------------------------------------------------------------------------


def spine(n, leaf):
    """``f(...f(leaf)...)`` with ``n`` applications of ``f``."""
    t = leaf
    for _ in range(n):
        t = f(t)
    return t


DEEP = 10_000


def test_a_deep_term_built_twice_is_one_object_with_stored_depth():
    t = spine(DEEP, a())
    assert spine(DEEP, a()) is t
    assert depth(t) == DEEP
    assert hash(t) == object.__hash__(t)


def test_deep_terms_compare_and_hash():
    left, right = spine(DEEP, a()), spine(DEEP, a())
    assert left == right and not left != right
    assert hash(left) == hash(right)
    assert left in {right}
    other = spine(DEEP, b())
    assert left != other  # they differ only at the leaves, 10⁴ levels down
    assert hash(other) != hash(left)
    assert other != right and not other == right
    assert f(left) != other
    assert g(left, other) != g(left, right) and g(left, right) == g(right, left)


def test_depth_replace_fill_merge_and_match_reach_10000_levels():
    deep = spine(DEEP, a())
    assert depth(deep) == DEEP and depth(f(deep)) == DEEP + 1
    bottom = (1,) * DEEP
    assert replace(deep, bottom, b()) == spine(DEEP, b())
    assert subterm(replace(deep, bottom[:-1], g(a(), b())), bottom) == a()
    with pytest.raises(PositionError, match=r"^no position 2\.1 in term$"):
        replace(deep, bottom[:-1] + (2, 1), b())
    c = Context(spine(DEEP, HOLE))
    assert c.hole_position == bottom
    assert c.fill(a()) == deep
    merged = merge(c, c)
    assert merged.hole_position == bottom + bottom
    assert merged.fill(a()) == spine(2 * DEEP, a())
    assert merge(c, c, MergePolicy.LEFT_PROJECT) is c
    assert match(spine(DEEP, Var("x")), deep) == {"x": a()}
    assert match(g(Var("x"), Var("x")), g(deep, spine(DEEP, a()))) == {"x": deep}
    assert match(g(Var("x"), Var("x")), g(deep, spine(DEEP, b()))) is None


def test_positions_signatures_and_repr_reach_deep_terms():
    deep = spine(DEEP, a())
    with pytest.raises(SignatureError, match=r"^symbol 'f'/1 is not in the signature$"):
        check_signature(deep, {"a": 0})
    check_signature(g(deep, deep), DEFAULT_SIGNATURE)
    assert infer_signature([deep]) == {"f": 1, "a": 0}
    with pytest.raises(SignatureError, match=r"^symbol 'f' used with arities 1 and 2$"):
        infer_signature([g(deep, App("f", (a(), b())))])
    assert repr(deep) == "App(head='f', args=(" * DEEP + "App(head='a', args=())" + ",))" * DEEP
    # the positions of a spine hold n(n+1)/2 indices in all, so a spine past
    # the recursion limit, not 10^4 levels, keeps this one small
    n = 2_000
    assert positions(spine(n, a())) == [(1,) * k for k in range(n + 1)]


def test_positions_signatures_and_repr_agree_with_their_recursive_definitions():
    def rec_positions(t, here=()):
        out = [here]
        if isinstance(t, App):
            for i, c in enumerate(t.args, start=1):
                out += rec_positions(c, here + (i,))
        return out

    rng = random.Random(4)
    pool = [a(), b(), Var("x"), HOLE, App("h", (a(), b(), Var("y"))), App("g", (a(),))]
    for _ in range(300):
        t = rng.choice(pool)
        for _ in range(rng.randrange(6)):
            t = rng.choice([f(t), g(t, rng.choice(pool)), g(rng.choice(pool), t)])
        assert positions(t) == rec_positions(t)
        assert repr(t) == dataclass_repr(t)
        mentioned = [rng.choice(pool), t]
        try:
            want = infer_signature(mentioned)
        except SignatureError as err:
            want = str(err)
        got = {}
        try:
            for u in mentioned:
                got = _rec_infer(u, got)
        except SignatureError as err:
            got = str(err)
        assert got == want
        for sig in (DEFAULT_SIGNATURE, {"a": 0, "f": 1, "g": 1}):
            try:
                check_signature(t, sig)
                want = None
            except SignatureError as err:
                want = str(err)
            assert _rec_check(t, sig) == want


def _rec_check(t, sig):
    if isinstance(t, App):
        if sig.get(t.head) != len(t.args):
            return f"symbol {t.head!r}/{len(t.args)} is not in the signature"
        for c in t.args:
            found = _rec_check(c, sig)
            if found is not None:
                return found
    return None


def _rec_infer(t, sig):
    if isinstance(t, App):
        seen = sig.get(t.head)
        if seen is None:
            sig[t.head] = len(t.args)
        elif seen != len(t.args):
            raise SignatureError(f"symbol {t.head!r} used with arities {seen} and {len(t.args)}")
        for c in t.args:
            _rec_infer(c, sig)
    return sig


def dataclass_repr(t):
    """The repr the dataclass generates, written out recursively."""
    if isinstance(t, App):
        return f"App(head={t.head!r}, args={tuple_repr(t.args)})"
    return repr(t)


def tuple_repr(items):
    if len(items) == 1:
        return f"({dataclass_repr(items[0])},)"
    return f"({', '.join(map(dataclass_repr, items))})"


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def test_default_signature():
    assert DEFAULT_SIGNATURE == {"a": 0, "b": 0, "f": 1, "g": 2}


def test_infer_signature():
    assert infer_signature([g(f(a()), b())]) == {"a": 0, "b": 0, "f": 1, "g": 2}


def test_infer_signature_conflict():
    with pytest.raises(SignatureError):
        infer_signature([App("f", (a(),)), App("f", (a(), b()))])


def test_terms_up_to_depth_counts():
    # depth <= 2: the 8 terms of depth <= 1, plus f over depth <= 1 (8),
    # plus g over pairs of depth <= 1 (64), minus the depth <= 1 f/g terms
    # already counted among the 8: total 2 + 8 + 64 = 74.
    assert len(terms_up_to_depth(DEFAULT_SIGNATURE, 0)) == 2
    assert len(terms_up_to_depth(DEFAULT_SIGNATURE, 1)) == 8
    assert len(terms_up_to_depth(DEFAULT_SIGNATURE, 2)) == 74


def test_terms_up_to_depth_deterministic():
    first = terms_up_to_depth(DEFAULT_SIGNATURE, 2)
    second = terms_up_to_depth(DEFAULT_SIGNATURE, 2)
    assert first == second
    assert all(depth(t) <= 2 for t in first)


def test_the_docstring_examples_hold():
    # the >>> examples of match and merge
    results = doctest.testmod(terms)
    assert results.attempted >= 4 and results.failed == 0
