"""Concrete syntax: parsing, printing, JSON encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    jump,
)
from ctxembed.syntax import (
    ParseError,
    parse_context,
    parse_posce,
    parse_position,
    parse_strategy,
    parse_term,
    print_context,
    print_posce,
    print_position,
    print_strategy,
    print_term,
    to_json,
)
from ctxembed.posce import FAIL_PCE, PosCE
from ctxembed.terms import HOLE, App, Context, Var


def a():
    return App("a")


def f(x):
    return App("f", (x,))


def g(x, y):
    return App("g", (x, y))


TAU_I = Context(App("list", (HOLE, App("i"))))
TAU_J = Context(App("list", (HOLE, App("j"))))
U_DIAG = g(Var("x"), Var("x"))


# ---------------------------------------------------------------------------
# terms, contexts, positions
# ---------------------------------------------------------------------------


def test_parse_term_examples():
    assert parse_term("a") == a()
    assert parse_term("?x") == Var("x")
    assert parse_term("g(f(a), ?y)") == g(f(a()), Var("y"))
    assert parse_term(" g( a , b ) ") == g(a(), App("b"))


def test_parse_term_rejects_garbage():
    for bad in ["", "g(a", "g(a,)", "1x", "a b", "?", "g(a))"]:
        with pytest.raises(ParseError):
            parse_term(bad)


def test_print_term_round_trip_examples():
    for text in ["a", "?x", "g(f(a),b)", "list(list(a,j),i)"]:
        assert print_term(parse_term(text)) == text


def test_parse_context_bare_and_bracketed():
    assert parse_context("list([],i)") == TAU_I
    assert parse_context("<list([],i)>") == TAU_I
    assert parse_context("[]") == Context(HOLE)


def test_parse_context_requires_one_hole():
    with pytest.raises(ParseError):
        parse_context("list(a,i)")
    with pytest.raises(ParseError):
        parse_context("g([],[])")


def test_print_context():
    assert print_context(TAU_I) == "list([],i)"
    assert print_context(Context(HOLE)) == "[]"


def test_positions():
    assert parse_position("eps") == ()
    assert parse_position("1.2") == (1, 2)
    assert print_position(()) == "eps"
    assert print_position((3, 1)) == "3.1"
    with pytest.raises(ParseError):
        parse_position("0.1")
    with pytest.raises(ParseError):
        parse_position("")


# ---------------------------------------------------------------------------
# strategies: parsing
# ---------------------------------------------------------------------------


def test_parse_atoms():
    assert parse_strategy("fail") == FAIL_S
    assert parse_strategy("X") == SVar("X")
    assert parse_strategy("ins <list([],i)>") == Ins(TAU_I)
    assert parse_strategy("most(fail)") == Most(FAIL_S)


def test_parse_guard_binds_tighter_than_choice():
    got = parse_strategy("g(?x,?x) ; ins <list([],i)> + X")
    assert got == Choice(Guard(U_DIAG, Ins(TAU_I)), SVar("X"))


def test_parse_guard_right_assoc():
    got = parse_strategy("a ; f(?x) ; fail")
    assert got == Guard(a(), Guard(f(Var("x")), FAIL_S))


def test_parse_choice_left_assoc():
    got = parse_strategy("X + Y + W")
    assert got == Choice(Choice(SVar("X"), SVar("Y")), SVar("W"))


def test_parse_mu_extends_right():
    got = parse_strategy("mu X. ins <list([],i)> + @1.X")
    assert got == Mu("X", Choice(Ins(TAU_I), jump((1,), SVar("X"))))


def test_parse_if_extends_right():
    got = parse_strategy("if X then Y + W")
    assert got == IfThen(SVar("X"), Choice(SVar("Y"), SVar("W")))


def test_parse_jump_positions():
    assert parse_strategy("@1.X") == Conj(((1, SVar("X")),))
    assert parse_strategy("@eps.X") == Conj(((None, SVar("X")),))
    assert parse_strategy("@1.2.X") == Conj(((1, Conj(((2, SVar("X")),))),))


def test_parse_jump_body_is_guard_level():
    got = parse_strategy("@1.a ; X + Y")
    assert got == Choice(jump((1,), Guard(a(), SVar("X"))), SVar("Y"))


def test_parse_conj_entries():
    got = parse_strategy("[@1.ins <list([],i)>, @eps.ins <list([],j)>]")
    assert got == Conj(((1, Ins(TAU_I)), (None, Ins(TAU_J))))


def test_parse_conj_entry_bodies_take_full_strategies():
    got = parse_strategy("[@2.X + Y]")
    assert got == Conj(((2, Choice(SVar("X"), SVar("Y"))),))


def test_parse_parens():
    got = parse_strategy("(X + Y) + W")
    assert got == Choice(Choice(SVar("X"), SVar("Y")), SVar("W"))
    got = parse_strategy("@1.(X + Y)")
    assert got == jump((1,), Choice(SVar("X"), SVar("Y")))


def test_parse_xi_example():
    got = parse_strategy("mu X. (g(?x,?x) ; ins <list([],i)>) + @1.X")
    want = Mu("X", Choice(Guard(U_DIAG, Ins(TAU_I)), jump((1,), SVar("X"))))
    assert got == want


def test_parse_rejects_malformed():
    for bad in [
        "",
        "mu x. X",
        "mu X X",
        "ins list([],i)",
        "if X",
        "[@0.X]",
        "[]",
        "X +",
        "a ; ",
        "@.X",
        "most(X",
        "then",
    ]:
        with pytest.raises(ParseError):
            parse_strategy(bad)


# ---------------------------------------------------------------------------
# strategies: printing
# ---------------------------------------------------------------------------


def test_print_atoms():
    assert print_strategy(FAIL_S) == "fail"
    assert print_strategy(SVar("X")) == "X"
    assert print_strategy(Ins(TAU_I)) == "ins <list([],i)>"


def test_print_collapses_singleton_chains():
    s = jump((1, 2), SVar("X"))
    assert print_strategy(s) == "@1.2.X"
    assert print_strategy(jump((), SVar("X"))) == "@eps.X"


def test_print_multi_entry_conj():
    s = Conj(((1, Ins(TAU_I)), (None, Ins(TAU_J))))
    assert print_strategy(s) == "[@1.ins <list([],i)>, @eps.ins <list([],j)>]"


def test_print_parenthesizes_right_nested_choice():
    s = Choice(SVar("X"), Choice(SVar("Y"), SVar("W")))
    assert print_strategy(s) == "X + (Y + W)"
    flat = Choice(Choice(SVar("X"), SVar("Y")), SVar("W"))
    assert print_strategy(flat) == "X + Y + W"


def test_print_parenthesizes_open_ended_left_operand():
    # an unparenthesized mu would swallow the rest of the choice
    s = Choice(Mu("X", SVar("X")), SVar("Y"))
    assert print_strategy(s) == "(mu X. X) + Y"
    assert parse_strategy(print_strategy(s)) == s
    last = Choice(SVar("Y"), Mu("X", SVar("X")))
    assert print_strategy(last) == "Y + mu X. X"


def test_print_guard_body_choice_needs_parens():
    s = Guard(a(), Choice(SVar("X"), SVar("Y")))
    assert print_strategy(s) == "a ; (X + Y)"


def test_round_trip_frozen():
    texts = [
        "fail",
        "ins <list([],i)>",
        "g(?x,?x) ; ins <list([],i)>",
        "mu X. g(?x,?x) ; ins <list([],i)> + @1.X",
        "[@1.ins <list([],i)>, @2.ins <list([],j)>, @eps.ins <list([],i)>]",
        "most(ins <list([],i)> + fail)",
        "if @1.ins <list([],i)> then [@1.ins <list([],i)>, @eps.ins <list([],j)>]",
    ]
    for text in texts:
        assert print_strategy(parse_strategy(text)) == text


# ---------------------------------------------------------------------------
# strategies: property round trip
# ---------------------------------------------------------------------------

_terms = st.recursive(
    st.sampled_from([App("a"), App("b"), Var("x"), Var("y")]),
    lambda kids: st.builds(lambda t: App("f", (t,)), kids)
    | st.builds(lambda l, r: App("g", (l, r)), kids, kids),
    max_leaves=4,
)


def _holed(t, path):
    if not path:
        return HOLE
    i = path[0] % len(t.args)
    args = list(t.args)
    args[i] = _holed(args[i], path[1:])
    return App(t.head, tuple(args))


_contexts = st.builds(
    lambda: Context(HOLE)
) | st.sampled_from([TAU_I, TAU_J, Context(App("f", (HOLE,))), Context(App("g", (HOLE, App("b"))))])

_names = st.sampled_from(["X", "Y", "W", "Acc"])


def _strategies():
    base = (
        st.just(FAIL_S)
        | st.builds(SVar, _names)
        | st.builds(Ins, _contexts)
    )

    def extend(kids):
        entries = st.lists(
            st.tuples(st.sampled_from([1, 2, 3, None]), kids), min_size=1, max_size=3
        ).map(lambda es: Conj(tuple(es)))
        return (
            st.builds(Guard, _terms, kids)
            | st.builds(Choice, kids, kids)
            | st.builds(Mu, _names, kids)
            | entries
            | st.builds(Most, kids)
            | st.builds(IfThen, kids, kids)
        )

    return st.recursive(base, extend, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_strategies())
def test_round_trip_parse_print(s):
    assert parse_strategy(print_strategy(s)) == s


# ---------------------------------------------------------------------------
# JSON shape
# ---------------------------------------------------------------------------


def test_json_shapes():
    s = Conj(((1, Ins(TAU_I)), (None, Guard(U_DIAG, FAIL_S))))
    got = to_json(s)
    assert got == {
        "kind": "conj",
        "entries": [
            {"idx": 1, "body": {"kind": "ins", "ctx": "list([],i)"}},
            {
                "idx": "eps",
                "body": {
                    "kind": "guard",
                    "pattern": "g(?x,?x)",
                    "body": {"kind": "fail"},
                },
            },
        ],
    }
    assert to_json(Mu("X", SVar("X"))) == {
        "kind": "mu",
        "var": "X",
        "body": {"kind": "var", "var": "X"},
    }
    assert to_json(IfThen(FAIL_S, Most(FAIL_S))) == {
        "kind": "ifthen",
        "cond": {"kind": "fail"},
        "body": {"kind": "most", "body": {"kind": "fail"}},
    }
    assert to_json(Choice(FAIL_S, FAIL_S)) == {
        "kind": "choice",
        "left": {"kind": "fail"},
        "right": {"kind": "fail"},
    }


# ---------------------------------------------------------------------------
# position-indexed strategies
# ---------------------------------------------------------------------------


def test_posce_text_round_trip():
    assert parse_posce("fail") == FAIL_PCE
    text = "[@1.<list([],i)>, @2.2.<list([],j)>, @eps.<[]>]"
    e = parse_posce(text)
    assert e == PosCE(
        (((1,), TAU_I), ((2, 2), TAU_J), ((), Context(HOLE)))
    )
    assert print_posce(e) == text
    assert print_posce(FAIL_PCE) == "fail"
