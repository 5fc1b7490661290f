"""Strategy language: evaluation, validation, measures, unfolding."""

import copy
import gc
import pickle
import sys
import threading
import time
from collections import namedtuple
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxembed import strategy
from ctxembed.checks import GenConfig, _gen_fixed_point, gen_strategy, gen_term, terms_up_to_depth
from ctxembed.strategy import (
    Choice,
    Conj,
    FAIL_S,
    Guard,
    IfThen,
    Ins,
    Most,
    Mu,
    Strat,
    SVar,
    ValidationFailure,
    _TABLE,
    _children_first,
    _simplify_node,
    alpha_eq,
    alpha_rename,
    bound_vars,
    children,
    eval_strategy,
    jump,
    mu_iterate,
    nodes,
    rebuild,
    simplify,
    subst_var,
    td,
    unfold,
    validate,
)
from ctxembed.syntax import parse_strategy, parse_term, print_strategy, print_term
from ctxembed.engine import combine, unify
from ctxembed.terms import DEFAULT_SIGNATURE, App, Context, HOLE, MergePolicy, Var, depth


def a():
    return App("a")


def b():
    return App("b")


def f(t):
    return App("f", (t,))


def g(s, t):
    return App("g", (s, t))


def list2(s, t):
    return App("list", (s, t))


TAU_I = Context(list2(HOLE, App("i")))
TAU_J = Context(list2(HOLE, App("j")))

U_DIAG = g(Var("x"), Var("x"))
XI = Mu("X", Choice(Guard(U_DIAG, Ins(TAU_I)), jump((1,), SVar("X"))))


# ---------------------------------------------------------------------------
# generic traversal
# ---------------------------------------------------------------------------

K1, K2, K3 = SVar("K1"), SVar("K2"), SVar("K3")

# one node of each constructor, its children, the node with K1, K2, ... as
# children (the non-strategy fields, pattern, binder and indices, must
# survive), and its stored facts never_fails, fails_on_constants and simple
ONE_OF_EACH = [
    (FAIL_S, (), FAIL_S, False, True, True),
    (SVar("X"), (), SVar("X"), False, False, True),
    (Ins(TAU_I), (), Ins(TAU_I), True, False, True),
    (Guard(U_DIAG, Ins(TAU_I)), (Ins(TAU_I),), Guard(U_DIAG, K1), False, True, True),
    (Choice(Ins(TAU_I), FAIL_S), (Ins(TAU_I), FAIL_S), Choice(K1, K2), True, False, False),
    (Mu("X", jump((1,), SVar("X"))), (jump((1,), SVar("X")),), Mu("X", K1), False, True, True),
    (
        Conj(((2, Ins(TAU_I)), (1, FAIL_S), (None, Ins(TAU_J)))),
        (Ins(TAU_I), FAIL_S, Ins(TAU_J)),
        Conj(((2, K1), (1, K2), (None, K3))),
        True,
        False,
        True,
    ),
    (Most(Ins(TAU_J)), (Ins(TAU_J),), Most(K1), False, True, True),
    (IfThen(Ins(TAU_I), FAIL_S), (Ins(TAU_I), FAIL_S), IfThen(K1, K2), False, True, True),
]
_EACH_ID = [type(row[0]).__name__ for row in ONE_OF_EACH]


@pytest.mark.parametrize("s, kids, replaced, _n, _f, _s", ONE_OF_EACH, ids=_EACH_ID)
def test_children_and_rebuild(s, kids, replaced, _n, _f, _s):
    assert children(s) is s.kids and s.kids == kids
    assert rebuild(s, children(s)) is s
    assert rebuild(s, (K1, K2, K3)[: len(kids)]) == replaced


@pytest.mark.parametrize("s, _k, _r, never_fails, fails_on_constants, simple", ONE_OF_EACH, ids=_EACH_ID)
def test_stored_facts(s, _k, _r, never_fails, fails_on_constants, simple):
    assert (s.never_fails, s.fails_on_constants, s.simple) == (never_fails, fails_on_constants, simple)
    assert (_simplify_everywhere(s) is s) == simple


def _simplify_everywhere(s: Strat) -> Strat:
    # simplify's pass without stopping at simple nodes: the reference for
    # the stored fact, which simplify itself trusts
    return _children_first(s, _simplify_node)


def test_simple_marks_the_redexes_of_simplify_and_their_ancestors():
    unused = Mu("Y", Most(Ins(TAU_I)))  # an unused binder over a body failing on constants
    assert not unused.simple and simplify(unused) is unused.body
    assert Mu("Y", Ins(TAU_I)).simple  # its body succeeds on constants: it stays
    assert not Choice(FAIL_S, Ins(TAU_I)).simple
    assert Choice(Ins(TAU_J), Ins(TAU_I)).simple
    # a node is simple only when all of its children are
    above = Guard(U_DIAG, Conj(((1, Ins(TAU_I)), (None, Choice(Ins(TAU_J), FAIL_S)))))
    assert not above.simple and simplify(above) == Guard(U_DIAG, Conj(((1, Ins(TAU_I)), (None, Ins(TAU_J)))))
    assert simplify(above).simple


def test_stored_facts_hold_on_generated_strategies():
    # what the syntax forces must agree with evaluation: checked on every
    # closed node of a generated stream
    suite = terms_up_to_depth(GenConfig().signature, 2)
    constants = [t for t in suite if depth(t) == 0]
    closed: set = set()
    for i in range(600):
        closed.update(node for node in nodes(gen_strategy(GenConfig(seed=3), i)) if not node.free)
    never = [s for s in closed if s.never_fails]
    on_constants = [s for s in closed if s.fails_on_constants]
    for s in never:
        assert all(eval_strategy(s, t) is not None for t in suite), s
    for s in on_constants:
        assert all(eval_strategy(s, t) is None for t in constants), s
    # neither fact is vacuous here, nor always set
    assert 200 < len(never) < len(closed) and 200 < len(on_constants) < len(closed)


def test_a_map_the_syntax_cannot_write_is_rejected():
    # an empty map printed as "[]", and an index below 1 printed as "@0",
    # would be texts the parser rejects
    with pytest.raises(ValueError, match=r"^a map needs at least one entry$"):
        Conj(())
    bad = [((0, Ins(TAU_I)),), ((-1, FAIL_S),), ((True, FAIL_S),), ((1.0, FAIL_S),), (("1", FAIL_S),),
           ((1, FAIL_S), (0, FAIL_S))]
    start = len(_TABLE)
    for entries in bad:
        with pytest.raises(ValueError, match=r"^a map index is None or an int of at least 1, not "):
            Conj(entries)
    assert len(_TABLE) == start  # nothing was interned
    for entries in [((None, Ins(TAU_I)),), ((1, FAIL_S),), ((3, FAIL_S), (1, Ins(TAU_I)), (None, Ins(TAU_I)))]:
        assert Conj(entries).entries == entries
        assert _same_text_back(Conj(entries))


def test_nodes_lists_every_node_right_to_left():
    s = Choice(Ins(TAU_I), Conj(((1, FAIL_S), (2, SVar("X")))))
    assert list(nodes(s)) == [s, s.right, SVar("X"), FAIL_S, Ins(TAU_I)]


def test_nodes_gives_a_shared_node_once_where_first_met():
    x = Choice(SVar("X"), FAIL_S)
    assert list(nodes(Choice(x, x))) == [Choice(x, x), x, FAIL_S, SVar("X")]
    s = Conj(((1, x), (2, Guard(a(), x)), (None, x)))
    assert list(nodes(s)) == [s, x, FAIL_S, SVar("X"), Guard(a(), x)]
    # a chain of n shared choices is a tree of 2^(n+1) - 1 nodes
    deep = SVar("X")
    for _ in range(60):
        deep = Choice(deep, deep)
    assert len(list(nodes(deep))) == 61
    # walks over it return: each distinct node is visited once
    assert bound_vars(Mu("Y", deep)) == {"Y"} and not validate(deep).closed


def _same_text_back(s: Strat) -> bool:
    return parse_strategy(print_strategy(s)) is s


def test_structural_passes_reach_10000_levels():
    # each rewriting pass is one children-first loop over the distinct nodes,
    # so no level costs a Python frame; evaluation still recurses per term
    # level, so the results are checked by their shape
    n = 10_000

    def spine(var):
        return Mu(var, jump((1,) * n, Choice(Ins(Context(HOLE)), SVar(var))))

    s = spine("X")
    cut = subst_var(s.body, "X", FAIL_S)
    assert cut.tree_depth == n + 2 and validate(cut).ok and _same_text_back(cut)
    once = unfold(s, {"X": 1})
    assert once.tree_depth == n + 2 and validate(once).ok and _same_text_back(once)
    iterate = mu_iterate("X", jump((1,), Choice(Ins(Context(HOLE)), SVar("X"))), n)
    assert iterate.tree_depth == 2 * n + 1 and validate(iterate).ok
    assert _same_text_back(iterate)
    renamed = alpha_rename(s, {"X"})
    assert "X" not in bound_vars(renamed) and validate(renamed).ok
    assert _same_text_back(renamed)
    assert alpha_eq(renamed, s) and alpha_eq(spine("Y"), s)
    # an unused binder stays over a body that succeeds on a constant, and
    # goes over one that fails on every constant
    kept = parse_strategy("mu X. " + "a ; " * n + "ins <[]>")
    assert simplify(kept) is kept
    dropped = parse_strategy("mu X. " + "a ; " * n + "f(x) ; ins <[]>")
    assert simplify(dropped) is dropped.body and dropped.body.tree_depth == n + 2


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_fail():
    assert eval_strategy(FAIL_S, a()) is None


def test_eval_insertion():
    t = App("var", (App("x"), App("reg", (App("omega"), App("one")))))
    assert eval_strategy(Ins(TAU_I), t) == list2(t, App("i"))


def test_eval_guard_pass_and_fail():
    s = Guard(U_DIAG, Ins(TAU_I))
    assert eval_strategy(s, g(a(), a())) == list2(g(a(), a()), App("i"))
    assert eval_strategy(s, g(a(), b())) is None


def test_eval_choice_left_bias():
    s = Choice(Ins(TAU_I), Ins(TAU_J))
    assert eval_strategy(s, a()) == list2(a(), App("i"))
    s2 = Choice(Guard(b(), Ins(TAU_I)), Ins(TAU_J))
    assert eval_strategy(s2, a()) == list2(a(), App("j"))


def test_eval_jump():
    s = jump((1,), Ins(TAU_I))
    assert eval_strategy(s, g(a(), b())) == g(list2(a(), App("i")), b())
    assert eval_strategy(s, a()) is None


def test_eval_jump_deep_position():
    s = jump((1, 2), Ins(TAU_I))
    t = g(g(a(), b()), b())
    assert eval_strategy(s, t) == g(g(a(), list2(b(), App("i"))), b())


def test_eval_conj_parallel_insertions():
    s = Conj(((1, Ins(TAU_I)), (2, Ins(TAU_J))))
    assert eval_strategy(s, g(a(), b())) == g(list2(a(), App("i")), list2(b(), App("j")))


def test_eval_conj_skips_failing_entry():
    s = Conj(((1, Ins(TAU_I)), (3, Ins(TAU_J))))
    assert eval_strategy(s, g(a(), b())) == g(list2(a(), App("i")), b())


def test_eval_conj_fails_when_all_fail():
    s = Conj(((3, Ins(TAU_I)), (4, Ins(TAU_J))))
    assert eval_strategy(s, g(a(), b())) is None


def test_eval_conj_root_entry_last():
    s = Conj(((1, Ins(TAU_I)), (None, Ins(TAU_J))))
    assert eval_strategy(s, g(a(), b())) == list2(g(list2(a(), App("i")), b()), App("j"))


@pytest.mark.parametrize(
    "text, expected",
    [
        # repeated indices: the second entry sees the first one's output
        ("[@1.ins <f([])>, @1.ins <g([],a)>]", "g(g(f(a),a),b)"),
        ("[@1.(a ; ins <f([])>), @1.(f(a) ; ins <g([],b)>)]", "g(g(f(a),b),b)"),
        # a root entry before a child entry shifts what the child index reads
        ("[@eps.ins <f([])>, @1.ins <g([],a)>]", "f(g(g(a,b),a))"),
        # a failing root entry leaves the input in place for later entries
        ("[@eps.(f(?x) ; ins <g([],a)>), @1.ins <f([])>]", "g(f(a),b)"),
    ],
)
def test_eval_conj_applies_unordered_maps_left_to_right(text, expected):
    # maps outside the well-founded shape the engine builds: the success gate
    # reads the unmodified input, then entries apply to the running result
    got = eval_strategy(parse_strategy(text), parse_term("g(a,b)"))
    assert print_term(got) == expected


def test_eval_most():
    s = Most(Ins(TAU_I))
    assert eval_strategy(s, g(a(), b())) == g(list2(a(), App("i")), list2(b(), App("i")))
    assert eval_strategy(s, a()) is None


def test_eval_most_partial_success():
    s = Most(Guard(a(), Ins(TAU_I)))
    assert eval_strategy(s, g(a(), b())) == g(list2(a(), App("i")), b())
    assert eval_strategy(s, g(b(), b())) is None


def test_eval_ifthen():
    s = IfThen(Guard(a(), Ins(TAU_I)), Ins(TAU_J))
    assert eval_strategy(s, a()) == list2(a(), App("j"))
    assert eval_strategy(s, b()) is None


def test_eval_mu_matches_at_root():
    assert eval_strategy(XI, g(b(), b())) == list2(g(b(), b()), App("i"))


def test_eval_mu_descends():
    t = g(g(a(), a()), b())
    assert eval_strategy(XI, t) == g(list2(g(a(), a()), App("i")), b())


def test_eval_mu_iterates_to_term_depth_only():
    # the fixed-point iterates depth(t) times, so constants admit no action
    assert eval_strategy(XI, a()) is None


def test_eval_mu_depth_cutoff_at_leaves():
    # a guard that only matches a leaf is out of reach: iteration k acts at
    # depths < k, and the iterate count equals the term depth
    body = Choice(Guard(a(), Ins(TAU_I)), jump((1,), SVar("X")))
    s = Mu("X", body)
    assert eval_strategy(s, f(a())) is None
    assert eval_strategy(mu_iterate("X", body, 2), f(a())) == f(list2(a(), App("i")))


# ---------------------------------------------------------------------------
# fixed points in an environment, against the substituted iterate
# ---------------------------------------------------------------------------

# (strategy, term, result worked out by hand)
ENVIRONMENT_CASES = [
    # the inner X shadows the outer one: on f(f(b)) it gets 1 iteration of
    # its own body, while @2.X reruns the whole outer map on g(b,a)
    (
        "mu X. [@1.((mu X. (f(b) ; ins <f([])>) + @1.X)), @2.((a ; ins <f([])>) + X)]",
        "g(f(f(b)),g(b,a))",
        "g(f(f(f(b))),g(b,f(a)))",
    ),
    # X is used inside Y's binder and keeps its own count: X restarts Y on
    # g(f(a),b) with 1 iteration left, Y continues on g(b,f(b)) with 1
    (
        "mu X. mu Y. (f(?x) ; ins <f([])>) + [@1.X, @2.Y]",
        "g(g(f(a),b),g(b,f(b)))",
        "g(g(f(f(a)),b),g(b,f(f(b))))",
    ),
    # the iterations run out one level above the leaf the guard waits for
    ("mu X. a ; ins <f([])> + @1.X", "f(f(a))", None),
]


@pytest.mark.parametrize("text, term, expected", ENVIRONMENT_CASES)
def test_eval_fixed_point_in_an_environment(text, term, expected):
    s, t = parse_strategy(text), parse_term(term)
    got = eval_strategy(s, t)
    assert (None if got is None else print_term(got)) == expected
    assert got == eval_strategy(mu_iterate(s.var, s.body, depth(t)), t)


def test_eval_environment_agrees_with_substitution_on_generated_fixed_points():
    cfg = GenConfig(seed=5, max_term_depth=4, max_mu_nesting=3)
    # every fixed point fails on a constant, on either side
    terms = [t for t in (gen_term(cfg, j) for j in range(800)) if depth(t) > 0]
    checked = 0
    for i in range(200):
        binders = [_gen_fixed_point(cfg, i)]
        binders += [m for m in nodes(gen_strategy(cfg, i)) if isinstance(m, Mu) and not m.free]
        for m in binders:
            for t in (terms[i % len(terms)], terms[(i + 1) % len(terms)]):
                assert eval_strategy(m, t) == eval_strategy(mu_iterate(m.var, m.body, depth(t)), t)
                checked += 1
    assert checked >= 500


def test_eval_reaches_a_300_deep_spine():
    # one Python frame per term level (a map runs its entries in its own
    # frame), none per unfolding
    s = parse_strategy("mu X. a ; ins <f([])> + @1.X")
    t = a()
    for _ in range(800):
        t = f(t)
    assert eval_strategy(s, t) is None


def test_td_applies_at_root():
    s = td(Ins(TAU_I))
    assert eval_strategy(s, f(a())) == list2(f(a()), App("i"))


def test_td_applies_below_root():
    s = td(Guard(g(Var("x"), Var("y")), Ins(TAU_I)))
    t = f(g(a(), b()))
    assert eval_strategy(s, t) == f(list2(g(a(), b()), App("i")))


def test_eval_open_strategy_rejected():
    with pytest.raises(ValueError):
        eval_strategy(SVar("X"), a())


def test_eval_open_variable_keeps_its_message():
    with pytest.raises(ValidationFailure, match=r"^cannot evaluate open strategy \(free X\)$"):
        eval_strategy(Mu("Y", Conj(((1, SVar("X")),))), f(a()))


def test_eval_free_variable_is_not_captured_by_an_inner_binder():
    # substituting the iterate under mu Y binds some copies of the free Y
    # there, but its root copy stays free, so the iterate is rejected as the
    # strategy is: before any branch runs
    s = parse_strategy("mu X. (f(?x) ; Y) + @1.mu Y. X + ins <f([])>")
    t = g(f(a()), b())
    for open_ in (s, mu_iterate(s.var, s.body, depth(t))):
        with pytest.raises(ValidationFailure, match=r"^cannot evaluate open strategy \(free Y\)$"):
            eval_strategy(open_, t)


# on g(a, b) neither free X is ever reached: the left branch succeeds, and the
# condition succeeds at its first map entry
OPEN_WITH_X_UNREACHED = ["ins <f([])> + X", "if [@1.ins <f([])>, @2.X] then ins <f([])>"]


@pytest.mark.parametrize("text", OPEN_WITH_X_UNREACHED)
def test_eval_rejects_an_open_strategy_before_any_branch_runs(text):
    with pytest.raises(ValidationFailure, match=r"^cannot evaluate open strategy \(free X\)$"):
        eval_strategy(parse_strategy(text), g(a(), b()))


@pytest.mark.parametrize("text", [
    "ins <[]>", "[@1.ins <[]>]", "[@1.fail, @eps.ins <[]>]", "[@2.ins <[]>, @1.ins <[]>]",
    "most(ins <[]>)", "g(?x, ?y) ; ins <[]>", "fail + ins <[]>", "mu X. ins <[]> + @1.X",
    "if ins <[]> then ins <[]>", "most(mu X. @2.X + [@1.ins <[]>])",
])
def test_a_condition_fills_no_context(monkeypatch, text):
    # only the body's insertion fills its context; the condition's term is
    # thrown away, so the condition fills none, at any depth inside it
    filled = []

    def spy(self, t):
        filled.append(self)
        return fill(self, t)

    fill = Context.fill
    monkeypatch.setattr(Context, "fill", spy)
    body = Ins(TAU_J)
    t = g(f(a()), g(a(), b()))
    assert eval_strategy(IfThen(parse_strategy(text), body), t) == list2(t, App("j"))
    assert filled == [TAU_J]


# Strategy nodes and terms share one intern table; each check below runs on
# both.  A builder makes a value from a name, distinct names giving distinct
# values; every new value adds ``entries`` table entries, its own under ``key``.
Builder = namedtuple("Builder", "make entries key")
STRATEGIES = Builder(lambda name: Mu(name, Most(SVar(name))), 3, lambda s: (Mu, s.var, s.body))
TERMS = Builder(lambda name: g(App(name), f(App(name))), 3, lambda t: (t.head, t.args))


def _equal_values_are_one_object(build: Builder) -> None:
    one = build.make("Same")
    assert build.make("Same") is one and build.make("Other") is not one
    assert _TABLE[build.key(one)]() is one


def _table_drops_dead_entries(build: Builder) -> None:
    gc.collect()
    start = len(_TABLE)
    built = [build.make(f"Fresh{i}") for i in range(10_000)]
    assert len(_TABLE) == start + 10_000 * build.entries
    del built
    assert len(_TABLE) == start


def _stale_death_callback_keeps_the_live_entry(build: Builder) -> None:
    value = build.make("Stale")
    key = build.key(value)
    stale = _TABLE[key]
    callback = stale.__callback__  # cleared once it has run
    del value
    gc.collect()
    assert stale() is None
    live = build.make("Stale")
    # a death callback that runs late must not remove the entry of the equal
    # value built since
    callback(stale)
    assert build.make("Stale") is live
    assert _TABLE[key]() is live


def _threads_building_equal_values_get_one_object(build: Builder) -> None:
    built: list[list] = [[] for _ in range(4)]

    def work(out: list) -> None:
        out.extend(build.make(f"Shared{i}") for i in range(3_000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 3_000 and all(map(is_, out, built[0])) for out in built)


def _threads_rebuilding_a_dead_value_get_one_object(build: Builder) -> None:
    # each round lets the last reference die and builds an equal value at
    # once, so a lookup without the lock meets the death callback's removal
    failures: list = []

    def work() -> None:
        for i in range(4_000):
            value = build.make(f"Race{i % 2}")
            again = build.make(f"Race{i % 2}")
            if again is not value or _TABLE[build.key(value)]() is not value:
                failures.append(i)
            del value, again

    gc.collect()
    start = len(_TABLE)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    gc.collect()
    assert len(_TABLE) == start  # every entry went with its value


def test_equal_strategies_are_one_interned_node():
    _equal_values_are_one_object(STRATEGIES)
    text = "mu X. (a ; ins <f([])>) + @1.X"
    assert parse_strategy(text) is parse_strategy(text)
    assert Ins(Context(f(HOLE))) is Ins(Context(f(HOLE)))


def test_equal_terms_are_one_interned_node():
    _equal_values_are_one_object(TERMS)


def test_intern_table_drops_dead_nodes():
    _table_drops_dead_entries(STRATEGIES)


def test_intern_table_drops_dead_terms():
    _table_drops_dead_entries(TERMS)


def test_stale_death_callback_keeps_the_live_entry():
    _stale_death_callback_keeps_the_live_entry(STRATEGIES)


def test_stale_death_callback_keeps_the_live_term_entry():
    _stale_death_callback_keeps_the_live_entry(TERMS)


def test_constructor_rejects_wrong_arity():
    gc.collect()
    start = len(_TABLE)
    with pytest.raises(TypeError, match=r"^Choice takes 2 fields, got 1$"):
        Choice(FAIL_S)
    with pytest.raises(TypeError, match=r"^Choice takes 2 fields, got 3$"):
        Choice(FAIL_S, FAIL_S, FAIL_S)
    assert len(_TABLE) == start


def test_threads_building_equal_strategies_get_one_node():
    _threads_building_equal_values_get_one_object(STRATEGIES)


def test_threads_building_equal_terms_get_one_term():
    _threads_building_equal_values_get_one_object(TERMS)


def test_threads_rebuilding_a_node_whose_last_reference_died_get_one_node():
    _threads_rebuilding_a_dead_value_get_one_object(STRATEGIES)


def test_threads_rebuilding_a_term_whose_last_reference_died_get_one_term():
    _threads_rebuilding_a_dead_value_get_one_object(TERMS)


def test_strategy_10000_deep_needs_no_recursion():
    def build():
        return Mu("X", jump((1,) * 10_000, Choice(Ins(Context(HOLE)), SVar("X"))))

    s = build()
    assert hash(s) == hash(build()) and s == build()
    assert s.free == frozenset()
    assert (s.star_height, s.tree_depth) == (1, 10_002)
    assert validate(s).ok
    assert td(s).star_height == 2
    assert simplify(s) is s


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_closed_monotone_linear():
    v = validate(XI)
    assert v.closed and v.monotone and v.well_founded
    assert v.insertion_entries and v.ok


def test_validate_open():
    assert not validate(SVar("X")).closed


def test_validate_non_monotone():
    assert not validate(Mu("X", SVar("X"))).monotone
    assert not validate(Mu("X", Guard(a(), SVar("X")))).monotone


def test_validate_most_is_monotone_crossing():
    assert validate(Mu("X", Most(SVar("X")))).monotone


def test_validate_nonlinear():
    s = Mu("X", Choice(jump((1,), SVar("X")), jump((2,), SVar("X"))))
    assert validate(s).monotone


def test_validate_walks_a_shared_body_once():
    # 2**40 paths reach the variable, through 42 distinct nodes
    d = jump((1,), SVar("X"))
    for _ in range(40):
        d = Choice(d, d)
    start = time.perf_counter()
    v = validate(Mu("X", d))
    assert time.perf_counter() - start < 0.1
    assert v.monotone and v.ok


def test_validate_well_founded_conj():
    assert not validate(Conj(((None, Ins(TAU_I)), (1, Ins(TAU_J))))).well_founded
    assert not validate(Conj(((1, Ins(TAU_I)), (1, Ins(TAU_J))))).well_founded
    assert validate(Conj(((1, Ins(TAU_I)), (None, Ins(TAU_J))))).well_founded


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def test_star_height():
    assert Ins(TAU_I).star_height == 0
    assert XI.star_height == 1
    assert Mu("X", Most(Mu("Y", Choice(jump((1,), SVar("Y")), SVar("X"))))).star_height == 2
    assert td(XI).star_height == 2


def test_tree_depth():
    assert FAIL_S.tree_depth == 0
    assert SVar("X").tree_depth == 0
    assert Ins(TAU_I).tree_depth == 1
    assert Guard(a(), Ins(TAU_I)).tree_depth == 2
    assert jump((1,), SVar("X")).tree_depth == 1
    # depth of the binder is the depth of its body
    assert XI.tree_depth == 3
    assert Most(SVar("X")).tree_depth == 2


def test_delta_lexicographic_drop_on_unfold():
    it = mu_iterate("X", XI.body, 2)
    assert (it.star_height, it.tree_depth) < (XI.star_height, XI.tree_depth)


# ---------------------------------------------------------------------------
# unfolding
# ---------------------------------------------------------------------------


def test_unfold_once_shape():
    got = unfold(XI, {"X": 1})
    want = Choice(Guard(U_DIAG, Ins(TAU_I)), jump((1,), FAIL_S))
    assert got == want


def test_unfold_zero_is_fail():
    assert unfold(XI, {"X": 0}) == FAIL_S


def test_unfold_missing_binding_rejected():
    with pytest.raises(KeyError):
        unfold(XI, {})


def test_unfold_agrees_with_eval_on_shallow_terms():
    for t in [g(b(), b()), g(g(a(), a()), b()), g(a(), b()), f(a())]:
        n = 2
        assert eval_strategy(unfold(XI, {"X": n}), t) == eval_strategy(XI, t)


def test_mu_iterate_zero_and_one():
    assert mu_iterate("X", SVar("X"), 0) == FAIL_S
    body = Choice(Guard(U_DIAG, Ins(TAU_I)), jump((1,), SVar("X")))
    assert mu_iterate("X", body, 1) == Choice(Guard(U_DIAG, Ins(TAU_I)), jump((1,), FAIL_S))


# ---------------------------------------------------------------------------
# simplification, alpha
# ---------------------------------------------------------------------------


def test_simplify_prunes_fail_choices():
    # the unused binder stays: its body succeeds on constants, and the zero
    # iterate would turn that success into failure if the binder vanished
    s = Mu("Z", Choice(FAIL_S, Choice(Ins(TAU_I), FAIL_S)))
    assert simplify(s) == Mu("Z", Ins(TAU_I))
    assert eval_strategy(s, App("a")) is None
    assert eval_strategy(Ins(TAU_I), App("a")) is not None


def test_simplify_drops_vacuous_mu_over_guarded_body():
    u = App("g", (Var("x"), Var("x")))
    s = Mu("Z", Choice(FAIL_S, Guard(u, Ins(TAU_I))))
    assert simplify(s) == Guard(u, Ins(TAU_I))


def test_simplify_keeps_used_binder():
    assert simplify(XI) == XI


_names = st.sampled_from(["X", "Y"])
_leaves = st.just(FAIL_S) | st.builds(SVar, _names) | st.sampled_from([Ins(TAU_I), Ins(TAU_J)])
_strategies = st.recursive(
    _leaves,
    lambda kids: (
        st.builds(Guard, st.sampled_from([U_DIAG, a(), f(Var("x"))]), kids)
        | st.builds(Choice, kids, kids)
        | st.builds(Mu, _names, kids)
        | st.lists(st.tuples(st.sampled_from([1, 2, None]), kids), min_size=1, max_size=3)
        .map(lambda es: Conj(tuple(es)))
        | st.builds(Most, kids)
        | st.builds(IfThen, kids, kids)
    ),
    max_leaves=8,
)


def _closed(s: Strat) -> Strat:
    # binders over X and Y close every generated strategy
    return Mu("X", Mu("Y", s)) if s.free else s


# Closed and monotone only: a binder whose variable sits at a root entry
# re-enters itself on a subject it has grown, so evaluating a non-monotone
# closure can grow as a tower and never return.
_monotone_closures = _strategies.map(_closed).filter(lambda s: validate(s).monotone)

_GROUND = terms_up_to_depth(DEFAULT_SIGNATURE, 2)


def test_a_closure_whose_evaluation_grows_as_a_tower_is_not_drawn():
    # evaluated on f(f(a)), this closure grows its subject until the
    # evaluator runs out of stack: each X wraps the subject at the root, and
    # each Y re-enters the inner binder once per level of the grown term
    x_or_y = Choice(SVar("X"), SVar("Y"))
    s = Conj(((None, Mu("X", Ins(TAU_I))), (None, x_or_y), (None, x_or_y)))
    assert not validate(_closed(Mu("X", s))).monotone


def _succeeds_exactly_when_evaluation_does(s: Strat) -> None:
    for t in _GROUND:
        assert (strategy._eval(s, t, {}, False) is None) == (eval_strategy(s, t) is None), (s, t)


@settings(max_examples=300, deadline=None)
@given(_monotone_closures)
def test_running_for_success_only_agrees_with_evaluation(s):
    _succeeds_exactly_when_evaluation_does(s)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), index=st.integers(0, 10**6), op=st.sampled_from([unify, combine]),
       policy=st.sampled_from(list(MergePolicy)))
def test_running_for_success_only_agrees_with_evaluation_on_engine_outputs(seed, index, op, policy):
    cfg = GenConfig(seed=seed)
    _succeeds_exactly_when_evaluation_does(
        op(gen_strategy(cfg, 2 * index), gen_strategy(cfg, 2 * index + 1), policy=policy, simplify_output=False))


@settings(max_examples=200, deadline=None)
@given(_strategies.filter(lambda s: s.free))
def test_every_open_strategy_is_rejected(s):
    with pytest.raises(ValidationFailure, match=rf"^cannot evaluate open strategy \(free {min(s.free)}\)$"):
        eval_strategy(s, a())


# ---------------------------------------------------------------------------
# the evaluation memo
# ---------------------------------------------------------------------------


def _memo_strategy(name: str) -> Strat:
    """A closed strategy no other test builds: td of a guarded insertion."""
    return td(Guard(g(Var("x"), Var("y")), Ins(Context(list2(HOLE, App(name))))))


def _count_eval(monkeypatch) -> list:
    """Replace ``_eval`` by a wrapper that records the subject of every
    call, the evaluator's own recursive calls included."""
    entered: list = []

    def spy(s, t, env, whole):
        entered.append(t)
        return inner(s, t, env, whole)

    inner = strategy._eval
    monkeypatch.setattr(strategy, "_eval", spy)
    return entered


def test_a_repeated_evaluation_is_answered_from_the_memo(monkeypatch):
    s = _memo_strategy("memo_hit")
    entered = _count_eval(monkeypatch)
    succeeds, fails = f(g(a(), b())), f(f(a()))
    for t in (succeeds, fails):
        first = eval_strategy(s, t)
        n = len(entered)
        assert n > 0
        again = eval_strategy(s, t)
        assert again is first and len(entered) == n
    assert eval_strategy(s, succeeds) == f(list2(g(a(), b()), App("memo_hit")))
    assert eval_strategy(s, fails) is None
    assert s.memo == {succeeds: eval_strategy(s, succeeds), fails: None}


def test_a_variable_subject_is_evaluated_every_time(monkeypatch):
    s = _memo_strategy("memo_var")
    entered = _count_eval(monkeypatch)
    want = strategy._eval(s, Var("x"), {}, True)
    for memo in (None, {}):
        strategy._set_memo(s, memo)
        entered.clear()
        assert eval_strategy(s, Var("x")) == want
        n = len(entered)
        assert n > 0 and eval_strategy(s, Var("x")) == want
        assert len(entered) == 2 * n and s.memo == memo


def test_leaves_keep_no_memo():
    for s in (FAIL_S, Ins(Context(list2(HOLE, App("memo_leaf"))))):
        eval_strategy(s, a())
        assert s.memo is None


def test_the_memo_holds_at_most_its_cap():
    s = _memo_strategy("memo_cap")
    terms = terms_up_to_depth(DEFAULT_SIGNATURE, 3)
    assert len(terms) > 2 * strategy._MEMO_CAP
    for t in terms:
        assert eval_strategy(s, t) is strategy._eval(s, t, {}, True)
        assert 1 <= len(s.memo) <= strategy._MEMO_CAP
    # the memo was emptied and refilled, and still answers correctly
    for t in terms[-10:]:
        assert s.memo[t] is eval_strategy(s, t) is strategy._eval(s, t, {}, True)


def test_an_open_strategy_raises_before_any_lookup_every_time():
    s = Choice(_memo_strategy("memo_open"), SVar("X"))
    for _ in range(2):
        with pytest.raises(ValidationFailure, match=r"^cannot evaluate open strategy \(free X\)$"):
            eval_strategy(s, a())
        assert s.memo is None


def test_an_exception_is_never_stored(monkeypatch):
    s = _memo_strategy("memo_raise")
    t = g(a(), b())
    inner = strategy._eval
    raised: list = []

    def once(s, t, env, whole):
        if not raised:
            raised.append(t)
            raise RuntimeError("interrupted")
        return inner(s, t, env, whole)

    monkeypatch.setattr(strategy, "_eval", once)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        eval_strategy(s, t)
    assert t not in (s.memo or {})
    assert eval_strategy(s, t) == list2(t, App("memo_raise"))


def test_inner_nodes_and_conditions_keep_no_memo():
    s = _memo_strategy("memo_inner")
    cond = _memo_strategy("memo_cond")
    for root in (td(s), IfThen(cond, s)):
        for t in (f(g(a(), b())), g(a(), b()), a()):
            eval_strategy(root, t)
        assert root.memo
        assert [node for node in nodes(root) if node is not root and node.memo is not None] == []


def test_threads_evaluating_one_node_get_identical_results():
    s = _memo_strategy("memo_threads")
    want = [strategy._eval(s, t, {}, True) for t in _GROUND]
    got: list[list] = [[] for _ in range(4)]

    def work(out: list) -> None:
        for _ in range(50):
            out.append([eval_strategy(s, t) for t in _GROUND])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == 50 and all(map(is_, row, want)) for out in got for row in out)


def _memo_agrees_with_a_fresh_evaluation(s: Strat) -> None:
    for t in _GROUND:
        fresh = strategy._eval(s, t, {}, True)
        assert eval_strategy(s, t) == fresh and eval_strategy(s, t) == fresh, (s, t)


@settings(max_examples=300, deadline=None)
@given(_monotone_closures)
def test_memoised_evaluation_agrees_with_a_fresh_one(s):
    _memo_agrees_with_a_fresh_evaluation(s)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), index=st.integers(0, 10**6), op=st.sampled_from([unify, combine]),
       policy=st.sampled_from(list(MergePolicy)))
def test_memoised_evaluation_agrees_with_a_fresh_one_on_engine_outputs(seed, index, op, policy):
    cfg = GenConfig(seed=seed)
    _memo_agrees_with_a_fresh_evaluation(
        op(gen_strategy(cfg, 2 * index), gen_strategy(cfg, 2 * index + 1), policy=policy, simplify_output=False))


def test_copied_and_unpickled_strategies_are_the_interned_node():
    text = "mu X. a ; ins <f([])> + @1.X"
    s = parse_strategy(text)
    for node in [s, *(row[0] for row in ONE_OF_EACH), *(row[2] for row in ONE_OF_EACH)]:
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
    # the pickle holds the fields only: a node unpickled after the original
    # died is built again, with no memo, no printed text and no stored
    # simplification or validation
    s = Choice(_memo_strategy("memo_pickle"), FAIL_S)
    eval_strategy(s, g(a(), b()))
    assert s.memo and simplify(s) is s.simplified is s.left and validate(s) is s.validation
    data, shown = pickle.dumps(s), print_strategy(s)
    assert copy.copy(s) is s and copy.deepcopy(s) is s and pickle.loads(data) is s
    del s
    gc.collect()
    again = pickle.loads(data)
    assert again.memo is None and again.printed is None
    assert again.simplified is None and again.validation is None
    assert again is Choice(_memo_strategy("memo_pickle"), FAIL_S) and print_strategy(again) == shown


def _simple_iff_kept(s: Strat) -> None:
    for node in nodes(s):
        assert node.simple == (_simplify_everywhere(node) is node), node
    assert simplify(s) is _simplify_everywhere(s)


@settings(max_examples=300, deadline=None)
@given(_strategies)
def test_simple_holds_exactly_where_simplify_keeps_the_node(s):
    _simple_iff_kept(s)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), index=st.integers(0, 10**6), op=st.sampled_from([unify, combine]),
       policy=st.sampled_from(list(MergePolicy)))
def test_simple_holds_exactly_where_simplify_keeps_an_engine_output_node(seed, index, op, policy):
    cfg = GenConfig(seed=seed)
    _simple_iff_kept(op(gen_strategy(cfg, 2 * index), gen_strategy(cfg, 2 * index + 1),
                        policy=policy, simplify_output=False))


def reference_stored(s: Strat, memo: dict) -> tuple:
    """The seven values a node stores (kids, free, star_height, tree_depth,
    simple, never_fails, fails_on_constants), worked out recursively from
    its fields and from no stored value."""
    if s in memo:
        return memo[s]
    if isinstance(s, Conj):
        kids = tuple(b for _, b in s.entries)
    elif isinstance(s, Choice):
        kids = (s.left, s.right)
    elif isinstance(s, IfThen):
        kids = (s.cond, s.body)
    elif isinstance(s, (Guard, Mu, Most)):
        kids = (s.body,)
    else:
        kids = ()
    below = [reference_stored(k, memo) for k in kids]
    free = frozenset().union(*(k[1] for k in below))
    height = max((k[2] for k in below), default=0)
    tdepth = max((k[3] for k in below), default=0)
    simple = all(k[4] for k in below)
    never = [k[5] for k in below]
    foc = [k[6] for k in below]
    if isinstance(s, SVar):
        free, facts = frozenset({s.name}), (False, False)
    elif isinstance(s, Ins):
        tdepth, facts = 1, (True, False)
    elif isinstance(s, Guard):
        tdepth += 1
        facts = (False, isinstance(s.pattern, App) and len(s.pattern.args) > 0 or foc[0])
    elif isinstance(s, Choice):
        tdepth += 1
        simple = simple and FAIL_S not in kids
        facts = (any(never), all(foc))
    elif isinstance(s, Mu):
        height += 1
        if s.var in free:
            free -= {s.var}
        elif foc[0]:
            simple = False
        facts = (False, True)
    elif isinstance(s, Conj):
        tdepth += 1
        roots = [k for k, (i, _) in enumerate(s.entries) if i is None]
        facts = (any(never[k] for k in roots), all(foc[k] for k in roots))
    elif isinstance(s, Most):
        tdepth, facts = tdepth + 2, (False, True)
    elif isinstance(s, IfThen):
        tdepth += 1
        facts = (all(never), any(foc))
    else:
        facts = (False, True)
    memo[s] = (kids, free, height, tdepth, simple, *facts)
    return memo[s]


def _stored_as_reference(s: Strat) -> None:
    memo: dict = {}
    for node in nodes(s):
        stored = (node.kids, node.free, node.star_height, node.tree_depth, node.simple,
                  node.never_fails, node.fails_on_constants)
        assert stored == reference_stored(node, memo), node


@settings(max_examples=300, deadline=None)
@given(_strategies)
def test_stored_values_equal_the_recursive_reference(s):
    _stored_as_reference(s)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), index=st.integers(0, 10**6), op=st.sampled_from([unify, combine]),
       policy=st.sampled_from(list(MergePolicy)))
def test_stored_values_equal_the_recursive_reference_on_engine_outputs(seed, index, op, policy):
    cfg = GenConfig(seed=seed)
    _stored_as_reference(op(gen_strategy(cfg, 2 * index), gen_strategy(cfg, 2 * index + 1),
                            policy=policy, simplify_output=False))


def dataclass_repr(x) -> str:
    """The repr a dataclass generates, written out recursively."""
    if isinstance(x, tuple):
        items = [dataclass_repr(item) for item in x]
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    if not isinstance(x, strategy._Node):
        return repr(x)
    shown = ", ".join(f"{name}={dataclass_repr(getattr(x, name))}" for name in x.__match_args__)
    return f"{type(x).__name__}({shown})"


@settings(max_examples=300, deadline=None)
@given(_strategies)
def test_repr_is_the_dataclass_form(s):
    assert repr(s) == dataclass_repr(s)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3), index=st.integers(0, 10**6), op=st.sampled_from([unify, combine]),
       policy=st.sampled_from(list(MergePolicy)))
def test_repr_is_the_dataclass_form_on_engine_outputs(seed, index, op, policy):
    cfg = GenConfig(seed=seed)
    out = op(gen_strategy(cfg, 2 * index), gen_strategy(cfg, 2 * index + 1), policy=policy)
    assert repr(out) == dataclass_repr(out)


def test_repr_reaches_10000_levels():
    n = 10_000
    guards = parse_strategy("a ; " * n + "ins <[]>")
    leaf = "Ins(ctx=Context(body=Hole()))"
    assert repr(guards) == "Guard(pattern=App(head='a', args=()), body=" * n + leaf + ")" * n
    jumps = jump((1,) * n, Ins(Context(HOLE)))
    assert repr(jumps) == "Conj(entries=((1, " * n + leaf + "),))" * n
    assert repr(Conj(((None, FAIL_S),))) == "Conj(entries=((None, SFail()),))"
    assert repr(FAIL_S) == "SFail()"


def test_simplify_stops_at_simple_subtrees(monkeypatch):
    # a simple input piece is never visited: only the choice above it is
    big = jump((1,) * 10_000, Ins(TAU_I))
    assert big.simple
    s = Choice(big, FAIL_S)
    visited = []

    def spy(node, kids):
        visited.append(node)
        return _simplify_node(node, kids)

    monkeypatch.setattr(strategy, "_simplify_node", spy)
    gc.collect()
    start = len(_TABLE)
    assert simplify(s) is big
    assert visited == [s] and len(_TABLE) == start


def test_simplify_and_validate_answer_a_repeated_call_from_the_node(monkeypatch):
    # nodes no other test builds, so nothing is stored on them yet
    leaf = Ins(Context(list2(HOLE, App("stored_once"))))
    inner = Choice(leaf, FAIL_S)
    s = Guard(U_DIAG, Conj(((1, inner), (None, Ins(TAU_J)))))
    visited, walked = [], []

    def spy(node, kids):
        visited.append(node)
        return _simplify_node(node, kids)

    def spy_nodes(node):
        walked.append(node)
        return nodes(node)

    monkeypatch.setattr(strategy, "_simplify_node", spy)
    monkeypatch.setattr(strategy, "nodes", spy_nodes)
    out = simplify(s)
    assert visited == [inner, s.body, s] and s.simplified is out
    # every node rewritten stores its result, and only those
    assert inner.simplified is leaf and s.body.simplified is out.body
    assert out.simplified is None and leaf.simplified is None
    visited.clear()
    above = Choice(s, s.body)
    assert simplify(s) is out and simplify(above) == Choice(out, out.body) and visited == [above]
    v = validate(s)
    assert walked == [s] and s.validation is v and validate(s) is v and walked == [s]
    assert s.body.validation is None  # a walked node stores nothing
    # the reference simplifier neither reads the slot nor writes it
    strategy._set_simplified(s, FAIL_S)
    try:
        assert simplify(s) is FAIL_S and _simplify_everywhere(s) is out and s.simplified is FAIL_S
    finally:
        strategy._set_simplified(s, out)


def _forget_texts(s: Strat) -> None:
    for node in nodes(s):
        strategy._set_printed(node, None)


@pytest.mark.parametrize("seed", [71, 5])
def test_stored_results_give_what_a_fresh_pass_gives_on_engine_outputs(seed):
    # combine(s, r) printed after unify(s, r): the combine output holds the
    # unify output, whose text and simplification are stored
    cfg = GenConfig(seed=seed)
    copied = 0
    for i in range(60):
        s, r = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
        for policy in MergePolicy:
            raw = unify(s, r, policy=policy, simplify_output=False)
            u = unify(s, r, policy=policy)
            u_text = print_strategy(u)
            c = combine(s, r, policy=policy)
            copied += c is not u and u in set(nodes(c))
            c_text = print_strategy(c)
            before = [(node, node.simplified) for node in nodes(Choice(Choice(raw, s), r))]
            for node, stored in before:
                if stored is not None:
                    assert not node.simple and stored.simple and stored is not node
                    assert stored is _simplify_everywhere(node)
            assert before == [(node, node.simplified) for node in nodes(Choice(Choice(raw, s), r))]
            _forget_texts(c)
            _forget_texts(u)
            assert print_strategy(c) == c_text and print_strategy(u) == u_text
    assert copied > 100


def test_free_and_bound_vars():
    s = Mu("X", Choice(jump((1,), SVar("X")), SVar("Y")))
    assert s.free == {"Y"}
    assert bound_vars(s) == {"X"}


def test_alpha_eq():
    s1 = Mu("X", Choice(Guard(U_DIAG, Ins(TAU_I)), jump((1,), SVar("X"))))
    s2 = Mu("W", Choice(Guard(U_DIAG, Ins(TAU_I)), jump((1,), SVar("W"))))
    assert alpha_eq(s1, s2)
    assert not alpha_eq(s1, Mu("X", Choice(Guard(U_DIAG, Ins(TAU_J)), jump((1,), SVar("X")))))


def test_alpha_rename_avoids_collisions():
    renamed = alpha_rename(XI, avoid={"X"})
    assert alpha_eq(renamed, XI)
    assert "X" not in bound_vars(renamed)
    assert eval_strategy(renamed, g(b(), b())) == eval_strategy(XI, g(b(), b()))


def test_renaming_a_shared_body_walks_each_node_once():
    # 2**40 paths reach the variable, through 42 distinct nodes
    d = jump((1,), SVar("X"))
    for _ in range(40):
        d = Choice(d, d)
    m = Mu("X", d)
    for run in (lambda: alpha_eq(m, m), lambda: alpha_rename(m, {"X"})):
        start = time.perf_counter()
        run()
        assert time.perf_counter() - start < 0.1
    assert alpha_eq(alpha_rename(m, {"X"}), m)


@pytest.mark.parametrize("name", ["V", "V1", "V2", "X2"])
def test_drawn_binder_names_capture_no_free_variable(name):
    # the first binder is unused, so its body's variable is free
    assert not alpha_eq(Mu("X", SVar(name)), Mu(name, SVar(name)))
    assert not alpha_eq(Mu(name, SVar(name)), Mu("X", SVar(name)))
    assert not alpha_eq(Mu("X", SVar(name)), Mu("X", SVar("X")))
    renamed = alpha_rename(Mu("X", Choice(SVar(name), jump((1,), SVar("X")))), set())
    assert renamed.free == {name} and name not in bound_vars(renamed)


@pytest.mark.parametrize("x, y", [("X", "Y"), ("V1", "V2"), ("V2", "V1")])
def test_sibling_and_nested_binders_stay_alpha_equal(x, y):
    s = Choice(Mu(x, jump((1,), SVar(x))), Mu(y, jump((2,), SVar(y))))
    renamed = alpha_rename(s, {x, y})
    assert alpha_eq(renamed, s) and alpha_eq(s, renamed)
    assert not bound_vars(renamed) & {x, y}
    assert alpha_eq(Choice(Mu(y, jump((1,), SVar(y))), Mu(x, jump((2,), SVar(x)))), s)
    assert not alpha_eq(Choice(Mu(x, jump((2,), SVar(x))), Mu(y, jump((2,), SVar(y)))), s)
    # an inner binder's drawn name must not capture the outer variable
    inner = Mu(x, Most(Mu(y, Choice(jump((1,), SVar(y)), SVar(x)))))
    outer = Mu(x, Most(Mu(y, Choice(jump((1,), SVar(x)), SVar(y)))))
    assert alpha_eq(alpha_rename(inner, {x, y}), inner)
    assert not alpha_eq(inner, outer)
    assert not alpha_eq(alpha_rename(inner, set()), outer)
