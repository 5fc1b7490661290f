"""The prioritized reduction system that unifies two strategies."""

import gc
import sys
import threading
from collections import Counter
from dataclasses import fields

import pytest

from ctxembed import cli
from ctxembed import engine as engine_module
from ctxembed.checks import GenConfig, gen_strategy, terms_up_to_depth
from ctxembed.engine import (
    EngineError,
    combine,
    phi,
    unify,
)
from ctxembed.posce import combine_pos, eq_pos, unify_pos
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
    _TABLE,
    alpha_eq,
    eval_strategy,
    jump,
    nodes,
    simplify,
    subst_var,
    validate,
)
from ctxembed.syntax import parse_strategy, print_strategy, print_term
from ctxembed.terms import DEFAULT_SIGNATURE, HOLE, App, Context, MergePolicy, Var, max_arity, merge
from ctxembed.translate import psi


def a():
    return App("a")


def b():
    return App("b")


def g(x, y):
    return App("g", (x, y))


def f(x):
    return App("f", (x,))


TAU = Context(App("list", (HOLE, App("i"))))
TAU_P = Context(App("list", (HOLE, App("j"))))
SIGMA = Context(App("f", (HOLE,)))
U = g(Var("x"), Var("x"))
U_P = g(Var("x"), b())

TAU_TAUP = merge(TAU, TAU_P)  # list(list([],j),i)

XI = Mu("X", Choice(Guard(U, Ins(TAU)), jump((1,), SVar("X"))))
XI_P = Mu("X'", Choice(Guard(U_P, Ins(TAU_P)), jump((1,), SVar("X'"))))


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def test_phi_of_loop():
    s = Mu("X", jump((1,), SVar("X")))
    got = phi(s)
    assert got == frozenset(
        {s, jump((1,), SVar("X")), jump((1,), s), SVar("X")}
    )
    assert len(got) == 4


def test_phi_of_guard():
    s = Guard(U, Ins(TAU))
    assert phi(s) == frozenset({s, Ins(TAU)})


def _reachable(s) -> frozenset:
    """phi by its definition, apart from the engine's walk: every node the
    children reach, and a fixed point's one-step unfolding."""
    seen, work = set(), [s]
    while work:
        node = work.pop()
        if node not in seen:
            seen.add(node)
            work.extend(node.kids)
            if isinstance(node, Mu):
                work.append(subst_var(node.body, node.var, node))
    return frozenset(seen)


def test_phi_of_a_chain_past_the_table_cap():
    # phi walks nodes and their unfoldings and builds no closure table, so
    # it has no size cap and its memory grows linearly with the chain
    n = 100_000
    s = parse_strategy("ins <[]>")
    for _ in range(n):
        s = Guard(a(), s)
    got = phi(s)
    assert len(got) == n + 1 and s in got and s.body.body in got


def _check_table(s, r) -> int:
    """The closure table of (s, r) against ``_reachable``, row by row; the
    size of its largest strongly connected component."""
    table = engine_module._Engine(MergePolicy.NEST, 2, s, r, None)
    assert phi(s) == _reachable(s) and phi(r) == _reachable(r)
    assert table.number.keys() == _reachable(s) | _reachable(r)
    by_number = sorted(table.number, key=table.number.get)
    for node, k in table.number.items():
        row = bin(table.closure[k])[:1:-1]
        assert {by_number[j] for j, bit in enumerate(row) if bit == "1"} == _reachable(node)
        assert table.mus >> k & 1 == isinstance(node, Mu)
    return max(Counter(table.closure).values())


def test_the_closure_table_is_reachability():
    cfg = GenConfig(seed=13)
    cyclic = 0
    for i in range(60):
        s, r = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
        cyclic += _check_table(s, r) > 1
    # a fixed point whose variable occurs sits in one component with its
    # unfolding
    assert cyclic >= 40


def test_the_closure_table_of_nested_outputs_is_reachability():
    cfg = GenConfig(seed=17)
    largest = []
    for i in range(12):
        a, b, c = (gen_strategy(cfg, 3 * i + k) for k in range(3))
        ab = unify(a, b, simplify_output=False)
        if len(phi(ab)) > 300:
            continue
        abc = unify(ab, c, simplify_output=False)
        largest.append(_check_table(abc, ab))
        _check_table(c, abc)
    # an output's binders nest, and each reaches the others through its
    # unfolding
    assert len(largest) >= 10 and max(largest) >= 100


# ---------------------------------------------------------------------------
# single-rule outputs
# ---------------------------------------------------------------------------


def test_fail_absorbs():
    assert unify(FAIL_S, Ins(TAU)) == FAIL_S
    assert unify(Ins(TAU), FAIL_S) == FAIL_S


def test_root_insertions_merge():
    assert unify(Ins(TAU), Ins(TAU_P)) == Ins(TAU_TAUP)
    assert unify(Ins(TAU), Ins(TAU_P), policy=MergePolicy.LEFT_PROJECT) == Ins(TAU)


def test_guard_extrusion():
    assert unify(Guard(U, Ins(TAU)), Ins(TAU_P)) == Guard(U, Ins(TAU_TAUP))
    assert unify(Ins(TAU), Guard(U, Ins(TAU_P))) == Guard(U, Ins(TAU_TAUP))


def test_equal_index_jumps_fuse():
    got = unify(jump((1,), Ins(TAU)), jump((1,), Ins(TAU_P)))
    assert got == jump((1,), Ins(TAU_TAUP))


def test_general_conjunctions_gate_and_merge():
    left = Conj(((1, Ins(TAU)), (2, Ins(TAU))))
    right = Conj(((2, Ins(TAU_P)), (3, Ins(TAU_P))))
    got = unify(left, right)
    shared = Choice(Choice(Ins(TAU_TAUP), Ins(TAU)), Ins(TAU_P))
    body = Conj(((2, shared), (1, Ins(TAU)), (3, Ins(TAU_P))))
    assert got == IfThen(left, IfThen(right, body))


def test_insertion_against_conjunction_is_carried_to_eps():
    right = Conj(((1, Ins(SIGMA)),))
    got = unify(Ins(TAU), right)
    assert got == IfThen(right, Conj(((1, Ins(SIGMA)), (None, Ins(TAU)))))


def test_eps_entries_merge_without_gates():
    # both sides carry a root insertion, so neither can fail and no gate is kept
    left = Conj(((1, Ins(SIGMA)), (None, Ins(TAU))))
    right = Conj(((None, Ins(TAU_P)),))
    got = unify(left, right)
    assert got == Conj(((1, Ins(SIGMA)), (None, Ins(TAU_TAUP))))


def test_choice_distributes():
    got = unify(Choice(Ins(TAU), Ins(TAU_P)), Ins(SIGMA))
    assert got == Choice(Ins(merge(TAU, SIGMA)), Ins(merge(TAU_P, SIGMA)))
    got = unify(Ins(SIGMA), Choice(Ins(TAU), Ins(TAU_P)))
    assert got == Choice(Ins(merge(SIGMA, TAU)), Ins(merge(SIGMA, TAU_P)))


def test_condition_extrusion():
    cond = jump((1,), Ins(TAU))
    got = unify(IfThen(cond, Ins(TAU)), Ins(TAU_P))
    assert got == IfThen(cond, Ins(TAU_TAUP))
    got = unify(Ins(TAU), IfThen(cond, Ins(TAU_P)))
    assert got == IfThen(cond, Ins(TAU_TAUP))


def test_most_against_most():
    got = unify(Most(Ins(TAU)), Most(Ins(TAU_P)))
    inner = Choice(Choice(Ins(TAU_TAUP), Ins(TAU)), Ins(TAU_P))
    assert got == IfThen(
        Most(Ins(TAU)), IfThen(Most(Ins(TAU_P)), Most(inner))
    )


def test_most_against_insertion_expands_over_signature():
    # default signature has maximum arity 2
    got = unify(Most(Ins(SIGMA)), Ins(TAU))
    body = Conj(((1, Ins(SIGMA)), (2, Ins(SIGMA)), (None, Ins(TAU))))
    assert got == IfThen(Most(Ins(SIGMA)), body)


def test_most_against_conjunction_shares_indices():
    right = Conj(((1, Ins(TAU)),))
    got = unify(Most(Ins(SIGMA)), right)
    shared = Choice(Choice(Ins(merge(SIGMA, TAU)), Ins(SIGMA)), Ins(TAU))
    body = Conj(((1, shared), (2, Ins(SIGMA))))
    assert got == IfThen(Most(Ins(SIGMA)), IfThen(right, body))
    mirrored = unify(right, Most(Ins(SIGMA)))
    m_shared = Choice(Choice(Ins(merge(TAU, SIGMA)), Ins(TAU)), Ins(SIGMA))
    m_body = Conj(((1, m_shared), (2, Ins(SIGMA))))
    assert mirrored == IfThen(right, IfThen(Most(Ins(SIGMA)), m_body))


def test_most_expansion_respects_signature_argument():
    sig = {"a": 0, "h": 3}
    got = unify(Most(Ins(SIGMA)), Ins(TAU), signature=sig)
    body = Conj(
        ((1, Ins(SIGMA)), (2, Ins(SIGMA)), (3, Ins(SIGMA)), (None, Ins(TAU)))
    )
    assert got == IfThen(Most(Ins(SIGMA)), body)
    for s, r, rule in ((Most(Ins(SIGMA)), Ins(TAU), "7b"), (Ins(TAU), Most(Ins(SIGMA)), "7c")):
        trace: list = []
        assert unify(s, r, signature={"a": 0}, trace=trace) == FAIL_S
        assert [step["rule"] for step in trace] == [rule]


# ---------------------------------------------------------------------------
# fixed points and memory
# ---------------------------------------------------------------------------


def test_loop_against_loop_reuses_memory():
    got = unify(Mu("X", jump((1,), SVar("X"))), Mu("Y", jump((1,), SVar("Y"))))
    assert got == Mu("Z", jump((1,), SVar("Z")))


def test_loop_unify_keeps_vacuous_binder_without_simplification():
    got = unify(
        Mu("X", jump((1,), SVar("X"))),
        Mu("Y", jump((1,), SVar("Y"))),
        simplify_output=False,
    )
    assert got == Mu("Z", Mu("Z2", jump((1,), SVar("Z"))))


def test_a_new_binder_may_take_an_input_binder_name():
    # an input fragment is closed and no output variable is placed inside
    # one, so the root binder is Z whatever the inputs name theirs
    got = unify(Mu("Z", jump((1,), SVar("Z"))), Mu("W", jump((1,), SVar("W"))))
    assert got == Mu("Z", jump((1,), SVar("Z")))


def test_a_new_binder_is_named_by_its_memory_depth(monkeypatch):
    # each binder the engine opens under a memory of k entries is Z when k
    # is 0 and Z{k+1} otherwise: the memory holds exactly the binders around
    # it, named Z, Z2, ..., Zk, so the name is distinct from all of them;
    # the inputs take Z, Z3 and Z5, which change nothing
    original = engine_module._Engine.bind
    opened = []

    def recorded(self, s, r, mem, left, right):
        out = original(self, s, r, mem, left, right)
        if type(out) is tuple:
            ((_, _, inner, _),) = out[1]
            ((_, _, z),) = inner - mem
            opened.append((s, r, mem, z))
        return out

    monkeypatch.setattr(engine_module._Engine, "bind", recorded)
    s = parse_strategy("mu Z. (a ; ins <f([])>) + @1.Z")
    r = parse_strategy("mu Z3. (mu Z5. (f(?x) ; ins <f([])>) + most(Z5)) + @1.Z3")
    unify(s, r, simplify_output=False)
    assert {"Z", "Z2", "Z3"} <= {z for *_, z in opened}
    cfg = GenConfig(seed=21)
    for i in range(30):
        a, b = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
        combine(combine(a, b, simplify_output=False), b, simplify_output=False)
    assert len(opened) > 100
    # a name is taken again by other sub-problems, unlike a call-wide draw
    assert len({z for *_, z in opened}) < len(opened)

    def named(k: int) -> str:
        return f"Z{k + 1}" if k else "Z"

    for s, r, mem, z in opened:
        assert {name for *_, name in mem} == {named(k) for k in range(len(mem))}
        assert z == named(len(mem))


def test_identical_binder_names_are_separated():
    got = unify(Mu("X", jump((1,), SVar("X"))), Mu("X", jump((1,), SVar("X"))))
    assert alpha_eq(got, Mu("Q", jump((1,), SVar("Q"))))


# ---------------------------------------------------------------------------
# the recursive worked example
# ---------------------------------------------------------------------------


def expected_worked_example(xi=XI, xi_p=XI_P):
    left_branch = Guard(
        U,
        Choice(
            Guard(U_P, Ins(TAU_TAUP)),
            IfThen(
                jump((1,), xi_p),
                Conj(((1, xi_p), (None, Ins(TAU)))),
            ),
        ),
    )
    right_branch = Choice(
        Guard(
            U_P,
            IfThen(jump((1,), xi), Conj(((1, xi), (None, Ins(TAU_P))))),
        ),
        jump((1,), SVar("Z")),
    )
    return Mu("Z", Choice(left_branch, right_branch))


def test_worked_example_structure():
    got = unify(XI, XI_P)
    assert got == expected_worked_example()


def test_worked_example_raw_has_two_vacuous_binders():
    raw = unify(XI, XI_P, simplify_output=False)
    assert raw != expected_worked_example()
    from ctxembed.strategy import simplify as simp

    assert simp(raw) == expected_worked_example()
    binders = []

    def collect(s):
        if isinstance(s, Mu):
            binders.append(s)
            collect(s.body)
        elif isinstance(s, Choice):
            collect(s.left)
            collect(s.right)
        elif isinstance(s, Guard) or isinstance(s, Most):
            collect(s.body)
        elif isinstance(s, IfThen):
            collect(s.cond)
            collect(s.body)
        elif isinstance(s, Conj):
            for _, body in s.entries:
                collect(body)

    collect(raw)
    # besides the inputs' X and X', the root binder and two whose variable
    # does not occur in their body
    made = [b for b in binders if b.var not in ("X", "X'")]
    assert len(made) == 3
    assert sum(b.var not in b.body.free for b in made) == 2


def test_worked_example_evaluation():
    got = unify(XI, XI_P)
    t1 = g(b(), b())
    assert eval_strategy(got, t1) == App("list", (App("list", (t1, App("j"))), App("i")))
    t2 = g(g(a(), b()), g(a(), b()))
    inner2 = App("list", (g(a(), b()), App("j")))
    assert eval_strategy(got, t2) == App(
        "list", (g(inner2, g(a(), b())), App("i"))
    )
    t3 = g(g(a(), a()), b())
    inner3 = App("list", (g(a(), a()), App("i")))
    assert eval_strategy(got, t3) == App("list", (g(inner3, b()), App("j")))
    t4 = g(g(b(), b()), a())
    wrapped = App("list", (App("list", (g(b(), b()), App("j"))), App("i")))
    assert eval_strategy(got, t4) == g(wrapped, a())


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------


def test_combine_keeps_both_alternatives():
    got = combine(Ins(TAU), Ins(TAU_P))
    assert got == Choice(Choice(Ins(TAU_TAUP), Ins(TAU)), Ins(TAU_P))


def test_combine_with_failing_side_degenerates():
    assert combine(FAIL_S, Ins(TAU)) == Ins(TAU)
    assert combine(Ins(TAU), FAIL_S) == Ins(TAU)
    raw = combine(Ins(TAU), FAIL_S, simplify_output=False)
    assert raw == Choice(Choice(FAIL_S, Ins(TAU)), FAIL_S)


def test_combine_prefers_joint_strategy():
    got = combine(Guard(U, Ins(TAU)), Guard(U_P, Ins(TAU_P)))
    t = g(b(), b())
    assert eval_strategy(got, t) == App(
        "list", (App("list", (t, App("j"))), App("i"))
    )
    only_left = g(a(), a())
    assert eval_strategy(got, only_left) == App("list", (only_left, App("i")))
    only_right = g(a(), b())
    assert eval_strategy(got, only_right) == App("list", (only_right, App("j")))


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_open_inputs_are_rejected():
    with pytest.raises(ValidationFailure):
        unify(SVar("X"), Ins(TAU))
    with pytest.raises(ValidationFailure):
        unify(Ins(TAU), SVar("X"))


def test_non_monotone_inputs_are_rejected():
    looping = Mu("X", Choice(Ins(TAU), SVar("X")))
    with pytest.raises(ValidationFailure):
        unify(looping, Ins(TAU))


def test_non_linear_inputs_are_accepted():
    doubled = Mu("X", Choice(jump((1,), SVar("X")), jump((2,), SVar("X"))))
    vacuous = Mu("X", Ins(TAU))
    for s in (doubled, vacuous):
        assert validate(s).ok
        for op in (unify, combine):
            assert validate(op(s, Ins(TAU))).ok
            assert validate(op(Ins(TAU), s)).ok
    # vacuous: zero unfoldings on a constant, one insertion anywhere else
    got = unify(vacuous, Ins(TAU_P))
    assert eval_strategy(got, a()) is None
    assert eval_strategy(got, f(a())) == App("list", (App("list", (f(a()), App("j"))), App("i")))
    # check does not require linearity
    assert cli.main(["check", "--strategy", "mu X. [@1.X, @2.X]"]) == 0


# a triple whose first joint is not linear, so the second build takes a
# non-linear input on the left or on the right
CHAIN_TRIPLE = (
    "mu X. mu W. [@1.X, @2.W]",
    "mu X. most(ins <[]> + [@2.X])",
    "a ; ((mu X. if ins <[]> then [@1.X]) + (if fail then ins <[]>))",
)


@pytest.mark.parametrize("op", [unify, combine])
def test_outputs_chain_both_ways(op):
    s1, s2, s3 = map(parse_strategy, CHAIN_TRIPLE)
    terms = list(terms_up_to_depth(DEFAULT_SIGNATURE, 2))
    for policy in MergePolicy:
        s12, s23 = op(s1, s2, policy=policy), op(s2, s3, policy=policy)
        left = op(s12, s3, policy=policy)
        right = op(s1, s23, policy=policy)
        assert [eval_strategy(left, t) for t in terms] == [eval_strategy(right, t) for t in terms]


NON_LINEAR = "mu X. [@1.X, @2.X] + (g(a, ?x) ; ins <f([])>)"


@pytest.mark.parametrize("op, op_pos", [(unify, unify_pos), (combine, combine_pos)])
def test_non_linear_inputs_translate_as_the_theorems_state(op, op_pos):
    s = parse_strategy(NON_LINEAR)
    progressing = parse_strategy("mu Y. (f(?y) ; ins <[]>) + @1.Y")
    terms = list(terms_up_to_depth(DEFAULT_SIGNATURE, 3))
    for left, right in ((s, s), (s, progressing), (progressing, s)):
        for policy in MergePolicy:
            joint = op(left, right, policy=policy)
            for t in terms:
                want = op_pos(psi(left, t), psi(right, t), policy=policy)
                assert eq_pos(psi(joint, t), want), (left, right, policy, t)


def test_right_binder_names_may_collide_with_the_left():
    # the right input keeps its names: X on both sides, Z on the right
    xi_p = Mu("X", Choice(Guard(U_P, Ins(TAU_P)), jump((1,), SVar("X"))))
    assert unify(XI, xi_p) == expected_worked_example(XI, xi_p)
    got = unify(Mu("W", jump((1,), SVar("W"))), Mu("Z", jump((1,), SVar("Z"))))
    assert got == Mu("Z", jump((1,), SVar("Z")))
    # a right binder shadowed inside another of the same name
    nested = parse_strategy("mu X. [@1.X, @2.mu X. (f(?y) ; ins <[]>) + @1.X]")
    terms = list(terms_up_to_depth(DEFAULT_SIGNATURE, 2))
    for left, right in ((XI, nested), (nested, XI)):
        joint = unify(left, right)
        for t in terms:
            sides = eval_strategy(left, t), eval_strategy(right, t)
            assert (eval_strategy(joint, t) is None) == (None in sides)


@pytest.mark.parametrize("op, op_pos", [(unify, unify_pos), (combine, combine_pos)])
def test_a_nested_output_shadows_its_input_binders(op, op_pos):
    # the output's root binder Z is opened around fragments of an input
    # whose own binder is Z: legal shadowing, which prints and parses back
    # to the same node and translates as the theorems state
    s = parse_strategy("mu X. (g(?x,?x) ; ins <list([],i)>) + @1.X")
    r = parse_strategy("mu Y. (g(?x,b) ; ins <list([],j)>) + @1.Y")
    inner = unify(s, r)
    assert isinstance(inner, Mu) and inner.var == "Z"
    out = op(inner, s)
    assert any(
        isinstance(node, Mu) and node.var == "Z" and any(
            isinstance(below, Mu) and below.var == "Z" for below in nodes(node.body)
        )
        for node in nodes(out)
    )
    assert _same_text_back(out)
    for t in terms_up_to_depth(DEFAULT_SIGNATURE, 2):
        assert eq_pos(psi(out, t), op_pos(psi(inner, t), psi(s, t))), t


def test_malformed_conjunctions_are_rejected():
    dup = Conj(((1, Ins(TAU)), (1, Ins(TAU_P))))
    with pytest.raises(ValidationFailure):
        unify(dup, Ins(TAU))
    eps_guard = Conj(((None, Guard(U, Ins(TAU))),))
    with pytest.raises(ValidationFailure):
        unify(eps_guard, Ins(TAU))
    eps_first = Conj(((None, Ins(TAU)), (1, Ins(TAU_P))))
    with pytest.raises(ValidationFailure):
        unify(eps_first, Ins(TAU))


# each input violates exactly one of the four conditions the engine requires
GATE_CASES = [
    ("@1.X", "closed", "{side} strategy is open: ['X']"),
    ("mu X. ins <[]> + X", "monotone", "{side} strategy is not monotone"),
    ("[@1.ins <[]>, @1.ins <f([])>]", "well_founded", "{side} strategy has a malformed conjunction"),
    ("[@eps.(a ; ins <[]>)]", "insertion_entries", "{side} strategy has a root map entry that is not an insertion"),
]


@pytest.mark.parametrize("text, field, message", GATE_CASES, ids=[c[1] for c in GATE_CASES])
def test_gate_reports_the_one_violated_condition(text, field, message, capsys):
    s = parse_strategy(text)
    with pytest.raises(ValidationFailure) as left:
        unify(s, Ins(TAU))
    with pytest.raises(ValidationFailure) as right:
        unify(Ins(TAU), s)
    assert str(left.value) == message.format(side="left")
    assert str(right.value) == message.format(side="right")
    v = validate(s)
    assert [f.name for f in fields(v) if not getattr(v, f.name)] == [field]
    assert not v.ok
    assert cli.main(["check", "--strategy", text]) == 1
    report = capsys.readouterr().out.splitlines()
    assert len(report) == 4
    assert f"{field.replace('_', '-')}: violated" in report


# ---------------------------------------------------------------------------
# trace and termination measure
# ---------------------------------------------------------------------------


def _lex(entry):
    return (entry[0], tuple(entry[1]), tuple(entry[2]))


def test_trace_records_strictly_decreasing_measures():
    trace = []
    unify(XI, XI_P, trace=trace)
    assert trace, "reduction must take at least one step"
    rules = {e["rule"] for e in trace}
    assert rules <= {
        "1a", "1b", "2", "3a", "3b", "4a", "4b",
        "5a", "5b", "6a", "6b", "7a", "7b", "7c", "8a", "8b",
    }
    for entry in trace:
        assert entry["lambda"] >= 0
        assert entry["mem"] >= 0
        focus = _lex((entry["lambda"], entry["dl"], entry["dr"]))
        for child in entry["children"]:
            assert _lex(child) < focus


def test_trace_shows_memory_reuse():
    trace = []
    unify(XI, XI_P, trace=trace)
    hits = [e for e in trace if e["rule"].startswith("8") and not e["children"]]
    assert hits, "the recursive example must close its loop through memory"
    assert any(e["mem"] >= 2 for e in trace)


def test_deterministic_output_and_trace():
    t1, t2 = [], []
    g1 = unify(XI, XI_P, trace=t1)
    g2 = unify(XI, XI_P, trace=t2)
    assert g1 == g2
    assert t1 == t2


def test_measures_decrease_on_most_expansion():
    trace = []
    unify(Most(Ins(SIGMA)), Mu("W", Choice(jump((1,), SVar("W")), Ins(TAU))), trace=trace)
    for entry in trace:
        focus = _lex((entry["lambda"], entry["dl"], entry["dr"]))
        for child in entry["children"]:
            assert _lex(child) < focus


def test_trace_paths_locate_each_step_in_the_output():
    # a gate (IfThen) puts its body at child 2; a gated 4b/7b entry k opens
    # its joint sub-problem at k.1.1 below the gates
    trace = []
    unify(
        parse_strategy("most(ins <f([])>) + if a ; ins <[]> then @1.ins <g([],a)>"),
        parse_strategy("[@1.ins <f([])>, @eps.ins <g(a,[])>]"),
        trace=trace,
    )
    assert [(e["rule"], e["path"]) for e in trace] == [
        ("5a", "eps"),
        ("7b", "1"),
        ("2", "1.2.1.1.1"),
        ("6a", "2"),
        ("4b", "2.2"),
        ("2", "2.2.2.1.1.1"),
    ]
    # when both sides can fail, two gates: the body sits at 2.2
    for left, right, rules in (
        ("most(ins <f([])>)", "most(a ; ins <g([],a)>)", ("7a", "3b")),
        ("[@1.ins <f([])>, @2.b ; ins <f([])>]", "@2.a ; ins <g([],a)>", ("4b", "3a")),
    ):
        trace = []
        unify(parse_strategy(left), parse_strategy(right), trace=trace)
        assert [(e["rule"], e["path"]) for e in trace[:2]] == list(zip(rules, ("eps", "2.2.1.1.1")))


def test_reduction_stops_a_child_that_does_not_shrink(monkeypatch):
    # a rule that reopens its own focus below the root would loop forever;
    # the per-step check must catch it on every step, not only the first
    original = engine_module._Engine.step

    def stalling_step(self, s, r, mem):
        if isinstance(s, Ins) and isinstance(r, Ins):
            return "2", (lambda body: Guard(Var("x"), body), ((s, r, mem, (1,)),))
        return original(self, s, r, mem)

    monkeypatch.setattr(engine_module._Engine, "step", stalling_step)
    with pytest.raises(EngineError, match="measure failed to decrease at rule 2"):
        unify(Choice(Guard(a(), Ins(TAU)), Ins(SIGMA)), Ins(TAU_P))


def test_reduction_checks_every_child_a_step_opens(monkeypatch):
    # the first child shrinks and is solved by the real rules, the second
    # repeats the focus
    original = engine_module._Engine.step

    def stalling_step(self, s, r, mem):
        if not isinstance(s, Choice):
            return original(self, s, r, mem)
        return "5a", (Choice, ((s.left, r, mem, (1,)), (s, r, mem, (2,))))

    monkeypatch.setattr(engine_module._Engine, "step", stalling_step)
    with pytest.raises(EngineError, match="measure failed to decrease at rule 5a"):
        unify(Choice(Ins(TAU), Ins(SIGMA)), Ins(TAU_P))


def _measure_from_phi(left, right, memory, closures: dict) -> tuple:
    """The measure by its definition, from ``phi`` of each side."""
    for s in (left, right):
        if s not in closures:
            closures[s] = phi(s)
    phi_l, phi_r = closures[left], closures[right]
    mu_l = {x for x in phi_l if isinstance(x, Mu)}
    mu_r = {x for x in phi_r if isinstance(x, Mu)}
    relevant = sum(
        1
        for a, b, _ in memory
        if (a in mu_l and b in phi_r and not isinstance(b, SVar))
        or (a in phi_l and not isinstance(a, SVar) and b in mu_r)
    )
    lam = len(mu_l) * len(phi_r) + len(phi_l) * len(mu_r) - relevant
    return (lam, (left.star_height, left.tree_depth), (right.star_height, right.tree_depth))


def test_table_measure_matches_its_phi_definition(monkeypatch):
    original = engine_module._Engine.measure
    calls, closures = [], {}

    def checked(self, left, right, memory):
        got = original(self, left, right, memory)
        assert got == _measure_from_phi(left, right, memory, closures)
        calls.append(got)
        return got

    monkeypatch.setattr(engine_module._Engine, "measure", checked)
    cfg = GenConfig(seed=5)
    steps = with_binders = 0
    for i in range(200):
        s, r = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
        with_binders += any(isinstance(x, Mu) for x in phi(s) | phi(r))
        for op in (unify, combine):
            for policy in MergePolicy:
                trace: list = []
                op(s, r, policy=policy, trace=trace)
                steps += len(trace)
    # one measure per sub-problem: each is measured when its rule opens it,
    # and that measure is the focus of the step that solves it
    assert len(calls) == steps > 0
    assert with_binders >= 50


def test_closure_cap_stops_unify(monkeypatch):
    monkeypatch.setattr(engine_module, "_PHI_CAP", 3)
    with pytest.raises(EngineError, match=r"^closure exceeded size cap$"):
        unify(XI, XI_P)
    # the cap counts the table of both inputs together
    monkeypatch.setattr(engine_module, "_PHI_CAP", 1)
    assert unify(Ins(TAU), Ins(TAU)) == Ins(merge(TAU, TAU))
    with pytest.raises(EngineError, match=r"^closure exceeded size cap$"):
        unify(Ins(TAU), Ins(TAU_P))


def test_step_cap_stops_unify(monkeypatch):
    monkeypatch.setattr(engine_module, "_MAX_STEPS", 2)
    with pytest.raises(EngineError, match=r"^reduction exceeded the step cap$"):
        unify(XI, XI_P)


def _same_text_back(s) -> bool:
    return parse_strategy(print_strategy(s)) is s


def test_unify_and_combine_reach_10000_levels():
    # the engine solves its sub-problems on an explicit stack, so no depth of
    # the inputs or the output costs a Python frame; evaluation still
    # recurses per term level, so the outputs are checked by their shape
    n = 10_000
    ins = parse_strategy("ins <[]>")
    guards = parse_strategy("a ; " * n + "ins <[]>")
    choices = parse_strategy("a ; ins <[]> + (" * n + "ins <[]>" + ")" * n)
    for s, depth in ((guards, n + 1), (choices, n + 2)):
        for op, extra in ((unify, 0), (combine, 2)):
            got = op(s, ins)
            assert got.tree_depth == depth + extra
            assert validate(got).ok and _same_text_back(got)
    spine = parse_strategy("mu X. @" + "1." * n + "(ins <[]> + X)")
    got = unify(spine, spine)
    assert (got.star_height, got.tree_depth) == (2, 3 * n + 6)
    assert validate(got).ok and _same_text_back(got)
    assert eval_strategy(got, f(a())) is None
    # the same shape at a depth evaluation reaches runs as its input does
    s = Mu("X", jump((1,) * 250, Choice(Ins(Context(HOLE)), SVar("X"))))
    got = unify(s, s)
    t = a()
    for _ in range(250):
        t = f(t)
    # printed, because comparing terms this deep recurses
    assert print_term(eval_strategy(got, t)) == print_term(t)
    assert print_term(eval_strategy(got, f(t))) == print_term(f(t))
    assert eval_strategy(got, f(a())) is None


# ---------------------------------------------------------------------------
# the unification memo
# ---------------------------------------------------------------------------

def _count_reductions(monkeypatch) -> list:
    """Each ``_Engine`` that ``unify`` builds from now on, one per reduction."""
    made = []

    class Counted(engine_module._Engine):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    monkeypatch.setattr(engine_module, "_Engine", Counted)
    return made


def _unify_and_combine(s, r) -> list:
    return [
        (unify(s, r, policy=p, simplify_output=raw), combine(s, r, policy=p, simplify_output=raw))
        for p in MergePolicy
        for raw in (False, True)
    ]


def _key(s, r, policy=MergePolicy.NEST) -> tuple:
    return (s, r, policy, max_arity(DEFAULT_SIGNATURE))


def test_a_repeated_pair_is_reduced_once(monkeypatch):
    made = _count_reductions(monkeypatch)
    first = _unify_and_combine(XI, XI_P)
    assert len(made) == 2  # one reduction per merge policy
    again = _unify_and_combine(XI, XI_P)
    assert len(made) == 2
    engine_module._solved.clear()
    fresh = _unify_and_combine(XI, XI_P)
    assert len(made) == 4
    assert all(x is y is z for row in zip(first, again, fresh) for x, y, z in zip(*row))
    # the arity bound is part of the key: the same pair over constants only
    # is another reduction with another output
    assert unify(Most(Ins(SIGMA)), Ins(TAU)) != FAIL_S
    assert unify(Most(Ins(SIGMA)), Ins(TAU), signature={"a": 0}) == FAIL_S
    assert len(made) == 6


def test_a_solved_sub_problem_is_not_stepped_again(monkeypatch):
    # rule 5a splits (s1 + s2, r) into (s1, r) and (s2, r), both under an
    # empty memory; once (s1, r) is solved, the split steps only (s2, r)
    made = _count_reductions(monkeypatch)
    s1, s2, r = XI, Guard(U, Ins(SIGMA)), XI_P
    whole = unify(Choice(s1, s2), r, simplify_output=False)
    cold = made[-1].steps
    engine_module._solved.clear()
    part = unify(s1, r, simplify_output=False)
    saved = made[-1].steps
    measured = []
    original = engine_module._Engine.measure

    def recorded(self, left, right, memory):
        measured.append((left, right))
        return original(self, left, right, memory)

    monkeypatch.setattr(engine_module._Engine, "measure", recorded)
    assert unify(Choice(s1, s2), r, simplify_output=False) is whole
    assert made[-1].steps == cold - saved and saved > 10
    # the hit still passes the measure check of the split that opened it
    assert (s1, r) in measured
    # (s1, r) is stored as the split solved it, so asking for it is a root hit
    engine_module._solved.clear()
    unify(Choice(s1, s2), r, simplify_output=False)
    built = len(made)
    assert unify(s1, r, simplify_output=False) is part and len(made) == built


def test_a_root_hit_builds_no_engine(monkeypatch):
    made = _count_reductions(monkeypatch)
    out = unify(XI, XI_P)
    assert len(made) == 1
    for _ in range(3):
        assert unify(XI, XI_P) is out and combine(XI, XI_P) is combine(XI, XI_P)
    assert len(made) == 1


def test_a_traced_call_reduces_and_records_the_same_steps(monkeypatch):
    want: list = []
    out = unify(XI, XI_P, trace=want)
    assert not engine_module._solved  # a traced call stores nothing
    assert unify(XI, XI_P) is out
    stored = list(engine_module._solved.items())
    assert _key(XI, XI_P) in engine_module._solved
    made = _count_reductions(monkeypatch)
    for op in (unify, combine):
        trace: list = []
        op(XI, XI_P, trace=trace)
        assert trace == want  # every step again: nothing was read
    assert len(made) == 2
    # nor was anything stored: the entries are as they were
    assert list(engine_module._solved.items()) == stored
    assert combine(XI, XI_P) is combine(XI, XI_P, trace=[])


def test_an_unfinished_pair_stores_nothing(monkeypatch):
    # (s1, r) finishes before (s2, r) stops the reduction; the split that
    # waits on both never finishes, so only (s1, r) is stored (its guarded
    # body, a pair answered at once, is stored only when it is the root)
    s1, s2, r = Guard(a(), Ins(TAU)), Ins(SIGMA), Ins(TAU_P)
    original = engine_module._Engine.step

    def stopping_step(self, s, r, mem):
        if s is s2:
            raise EngineError("stopped")
        return original(self, s, r, mem)

    monkeypatch.setattr(engine_module._Engine, "step", stopping_step)
    for _ in range(2):
        with pytest.raises(EngineError, match=r"^stopped$"):
            unify(Choice(s1, s2), r)
    assert list(engine_module._solved) == [_key(s1, r)]


def test_nested_outputs_print_the_same_whatever_ran_before():
    # a binder's name is a function of its sub-problem, so a stored output
    # reads the same wherever it is reused: each nesting of each triple
    # prints the same bytes when built in sequence, where the builds before
    # it filled the memo, and when built alone after every memo is emptied
    cfg = GenConfig(seed=71)
    builds = [
        (op, p, nesting, tuple(gen_strategy(cfg, 3 * i + k) for k in range(3)))
        for i in range(25)
        for op in (unify, combine)
        for p in MergePolicy
        for nesting in ("left", "right")
    ]

    def printed(op, p, nesting, triple) -> str:
        a, b, c = triple
        if nesting == "left":
            return print_strategy(op(op(a, b, policy=p), c, policy=p))
        return print_strategy(op(a, op(b, c, policy=p), policy=p))

    in_sequence = [printed(*build) for build in builds]
    for build, want in zip(builds, in_sequence):
        engine_module._solved.clear()
        parse_strategy.cache_clear()
        assert printed(*build) == want, build


def test_threads_sharing_the_memo_get_the_outputs_of_one_thread(monkeypatch):
    # a memo of one entry, so that threads race on lookups, stores and
    # emptyings; every output is the one a single thread builds
    monkeypatch.setattr(engine_module, "_SOLVED_CAP", 1)
    cfg = GenConfig(seed=31)
    pairs = [(gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)) for i in range(8)]

    def outputs() -> list:
        return [combine(unify(s, r), r) for s, r in pairs]

    want = outputs()
    engine_module._solved.clear()
    got: list[list] = [[] for _ in range(4)]

    def work(out: list) -> None:
        for _ in range(60):
            out.append(outputs())

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
    assert all(len(out) == 60 and all(x is y for x, y in zip(row, want)) for out in got for row in out)
    # each thread can find the memo full, empty it and store, as with a
    # node's memo
    assert len(engine_module._solved) <= 1 + len(threads)


def test_an_invalid_input_raises_on_every_call(monkeypatch):
    looping = Mu("X", Choice(Ins(TAU), SVar("X")))
    for _ in range(3):
        for op in (unify, combine):
            with pytest.raises(ValidationFailure, match=r"^left strategy is not monotone$"):
                op(looping, Ins(TAU))
            with pytest.raises(ValidationFailure, match=r"^right strategy is not monotone$"):
                op(Ins(TAU), looping)
    # nor is a reduction that stopped stored
    monkeypatch.setattr(engine_module, "_MAX_STEPS", 2)
    for _ in range(3):
        with pytest.raises(EngineError, match=r"^reduction exceeded the step cap$"):
            unify(XI, XI_P)
    assert not engine_module._solved


def test_the_memo_is_bounded_and_emptying_it_frees_what_it_held():
    cap = engine_module._SOLVED_CAP
    assert 100 <= cap <= 1_000
    cfg = GenConfig(seed=9)
    gc.collect()
    start = len(_TABLE)
    pairs: set = set()
    i = 0
    while len(pairs) < 1_000:
        s, r = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
        i += 1
        if (s, r) not in pairs:
            pairs.add((s, r))
            unify(s, r)
            assert len(engine_module._solved) <= cap and _key(s, r) in engine_module._solved
    del s, r, pairs
    gc.collect()
    assert len(_TABLE) > start  # the last outputs and their inputs are held
    engine_module._solved.clear()
    gc.collect()
    assert len(_TABLE) == start


def test_a_full_memo_is_emptied_before_the_next_store(monkeypatch):
    # a memo that holds cap entries is emptied by the next store, which it
    # then holds alone; until then every stored pair is answered from it
    cap = engine_module._SOLVED_CAP
    made = _count_reductions(monkeypatch)
    pairs = [(Ins(Context(App(f"full{i}", (HOLE,)))), Ins(TAU)) for i in range(cap + 1)]
    first = unify(*pairs[0])
    for pair in pairs[1:cap]:
        unify(*pair)
    assert len(engine_module._solved) == cap and len(made) == cap
    assert unify(*pairs[0]) is first and len(made) == cap
    unify(*pairs[cap])
    assert list(engine_module._solved) == [_key(*pairs[cap])]
    assert unify(*pairs[0]) is first and len(made) == cap + 2


# ---------------------------------------------------------------------------
# outputs are reusable engine inputs
# ---------------------------------------------------------------------------


def test_outputs_validate_and_recombine():
    samples = [
        unify(XI, XI_P),
        unify(Most(Ins(SIGMA)), Ins(TAU)),
        combine(Guard(U, Ins(TAU)), Guard(U_P, Ins(TAU_P))),
        unify(Conj(((1, Ins(TAU)), (None, Ins(TAU_P)))), Ins(SIGMA)),
    ]
    for s in samples:
        v = validate(s)
        assert v.closed and v.monotone and v.well_founded
    again = unify(samples[0], samples[2])
    assert validate(again).ok


def test_long_run_leaves_the_intern_table_as_it_found_it():
    # outputs fed back in as inputs; once they die, so do their table entries
    cfg = GenConfig(seed=7)
    gc.collect()
    start = len(_TABLE)
    outs = []
    for i in range(60):
        s, r = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
        for op in (unify, combine):
            for policy in MergePolicy:
                outs.append(op(op(s, r, policy=policy), r, policy=policy))
    assert len(_TABLE) > start + 1_000
    del s, r, outs
    engine_module._solved.clear()
    gc.collect()
    assert len(_TABLE) <= start + 10


def test_evaluated_outputs_leave_the_intern_table_as_they_found_it():
    # each output keeps a memo of its results; the memo, and the terms only
    # it holds, go when the output dies
    cfg = GenConfig(seed=8)
    terms = list(terms_up_to_depth(DEFAULT_SIGNATURE, 2))
    gc.collect()
    start = len(_TABLE)
    outs = []
    for i in range(40):
        s, r = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
        for op in (unify, combine):
            for policy in MergePolicy:
                out = op(op(s, r, policy=policy), r, policy=policy)
                for t in terms:
                    assert eval_strategy(out, t) is eval_strategy(out, t)
                outs.append(out)
    assert len(_TABLE) > start + 1_000
    assert any(out.memo for out in outs)
    del s, r, out, outs
    engine_module._solved.clear()
    gc.collect()
    assert len(_TABLE) <= start + 10


def test_outputs_with_stored_results_are_freed_without_the_cycle_collector():
    # a node's stored simplification, text, validation, evaluation memo and
    # condition answers never lead back to the node, so dropping the last
    # reference frees it, and every term only it held, at once
    cfg = GenConfig(seed=6)
    terms = list(terms_up_to_depth(DEFAULT_SIGNATURE, 2))
    gc.collect()
    start = len(_TABLE)
    gc.disable()
    try:
        outs, stored = [], 0
        for i in range(40):
            s, r = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
            for op in (unify, combine):
                for policy in MergePolicy:
                    raw = op(s, r, policy=policy, simplify_output=False)
                    out = simplify(raw)
                    for x in (s, r, raw, out):
                        print_strategy(x)
                        validate(x)
                    stored += raw.simplified is not None
                    for t in terms:
                        eval_strategy(raw, t)
                    outs.append(raw)
        answers = sum(len(node.holds) for o in outs for node in nodes(o) if node.holds)
        assert len(_TABLE) > start + 1_000 and stored > 50 and answers > 1_000
        del s, r, raw, out, x, outs
        engine_module._solved.clear()
        assert len(_TABLE) == start
    finally:
        gc.enable()


def test_unify_is_semantically_conjunctive():
    # both guards are judged against the original term, not each other's output
    s, r = Guard(U, Ins(TAU)), Guard(U_P, Ins(TAU_P))
    got = unify(s, r)
    t = g(b(), b())
    assert eval_strategy(s, t) is not None and eval_strategy(r, t) is not None
    assert eval_strategy(got, t) == App(
        "list", (App("list", (t, App("j"))), App("i"))
    )
    assert eval_strategy(got, g(a(), a())) is None
    assert eval_strategy(got, g(a(), b())) is None
