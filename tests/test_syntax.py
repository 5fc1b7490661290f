"""Concrete syntax: parsing, printing, JSON encoding."""

import gc
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxembed.checks import GenConfig, gen_strategy
from ctxembed.engine import combine, unify
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
    jump,
)
from ctxembed import syntax
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
from ctxembed.terms import _TABLE, HOLE, App, Context, MergePolicy, Var


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


# (text, message, offset) for malformed strategy texts.  Unexpected
# characters are reported before any grammar error, wherever they stand; at
# the end of input the offset is the end of the last token.
MALFORMED = [
    ("", "expected a strategy, got 'end of input'", 0),
    ("mu x. X", "expected a binder name, got 'x'", 3),
    ("mu X X", "expected '.', got 'X'", 5),
    ("ins list([],i)", "expected '<', got 'list'", 4),
    ("if X", "expected 'then', got 'end of input'", 4),
    ("[@0.X]", "child indices start at 1, got '0'", 2),
    ("[]", "expected '@', got ']'", 1),
    ("X +", "expected a strategy, got 'end of input'", 3),
    ("a ; ", "expected a strategy, got 'end of input'", 3),
    ("@.X", "expected a position, got '.'", 1),
    ("most(X", "expected ')', got 'end of input'", 6),
    ("then", "expected a strategy, got 'then'", 0),
    # unexpected characters: at the start, in the middle, at the end, after
    # trailing whitespace, a non-ASCII letter, and ahead of a grammar error
    ("$X", "unexpected character '$'", 0),
    ("X + $ Y", "unexpected character '$'", 4),
    ("X + Y$", "unexpected character '$'", 5),
    ("X + Y  $", "unexpected character '$'", 7),
    ("X\t+\t%", "unexpected character '%'", 4),
    ("ins <é>", "unexpected character 'é'", 5),
    ("mu Xé. X", "unexpected character 'é'", 4),
    ("mu x. &", "unexpected character '&'", 6),
    # a number is its own token, so a letter after it starts the next one
    ("1a", "expected a strategy, got '1'", 0),
    ("@1a.X", "expected '.', got 'a'", 2),
    ("@00.X", "child indices start at 1, got '00'", 1),
    ("@1..X", "expected a strategy, got '.'", 3),
    ("  ", "expected a strategy, got 'end of input'", 0),
    ("@1.2.  ", "expected a strategy, got 'end of input'", 5),
    ("mu X.", "expected a strategy, got 'end of input'", 5),
    ("?", "expected variable name after '?', got ''", 1),
    ("? X ; fail", "expected variable name after '?', got 'X'", 2),
    ("ins <a>", "context must contain exactly one hole, found 0", 6),
    ("ins <g([],[])>", "context must contain exactly one hole, found 2", 13),
    ("[@1.X,]", "expected '@', got ']'", 6),
    ("X)", "trailing input at ')'", 1),
    ("most X", "expected '(', got 'X'", 5),
    ("@eps", "expected '.', got 'end of input'", 4),
    ("f(a,) ; X", "expected a term, got ')'", 4),
    # a repeated insertion fails where its second reading goes wrong, also
    # when its tokens joined ("ab", "a b") would read the same
    ("ins <g([],ab)> + ins <g([],a b)>", "expected ')', got 'b'", 29),
    ("ins <[]> + ins <[]", "expected '>', got 'end of input'", 18),
    ("ins <[]> + ins <[]>>", "trailing input at '>'", 19),
    ("ins <a> + ins <a>", "context must contain exactly one hole, found 0", 6),
]


def test_parse_rejects_malformed():
    for text, message, offset in MALFORMED:
        with pytest.raises(ParseError) as err:
            parse_strategy(text)
        assert (text, str(err.value), err.value.offset) == (text, message, offset)


def test_a_repeated_insertion_is_one_node():
    s = parse_strategy("ins <f([])> + a ; ins <f([])> + [@1.ins <f([])>, @eps.ins <g([],a)>]")
    once = s.left.left
    assert s.left.right.body is once and s.right.entries[0][1] is once
    assert once == Ins(Context(f(HOLE)))


def test_parse_term_errors_keep_message_and_offset():
    for text, message, offset in [
        ("", "expected a term, got 'end of input'", 0),
        ("g(a", "expected ')', got 'end of input'", 3),
        ("1x", "expected a term, got '1'", 0),
        ("a b", "trailing input at 'b'", 2),
        ("g(a))", "trailing input at ')'", 4),
        ("a é", "unexpected character 'é'", 2),
        ("é", "unexpected character 'é'", 0),
    ]:
        with pytest.raises(ParseError) as err:
            parse_term(text)
        assert (text, str(err.value), err.value.offset) == (text, message, offset)


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
# strategies: the printer against a tree-recursive reference
# ---------------------------------------------------------------------------

# The printer as it was written first: one recursive call per node of the
# tree, shared nodes printed again each time.  The printer under test must
# give the same text.
_R_CHOICE, _R_SEQ = 0, 1


def _r_prec(s):
    return _R_CHOICE if isinstance(s, Choice) else _R_SEQ


def _r_right_open(s):
    if isinstance(s, (Mu, IfThen)):
        return True
    if isinstance(s, Guard):
        return _r_right_open(s.body)
    if isinstance(s, Choice):
        return _r_right_open(s.right)
    if isinstance(s, Conj) and len(s.entries) == 1:
        return _r_right_open(s.entries[0][1])
    return False


def reference_print(s):
    return _r_render(s, _R_CHOICE, False)


def _r_render(s, min_prec, followed):
    if _r_prec(s) < min_prec or (followed and _r_right_open(s)):
        return f"({_r_render(s, _R_CHOICE, False)})"
    if isinstance(s, SFail):
        return "fail"
    if isinstance(s, SVar):
        return s.name
    if isinstance(s, Ins):
        return f"ins <{print_context(s.ctx)}>"
    if isinstance(s, Guard):
        return f"{print_term(s.pattern)} ; {_r_render(s.body, _R_SEQ, followed)}"
    if isinstance(s, Choice):
        ops = []
        node = s
        while isinstance(node, Choice):
            ops.append(node.right)
            node = node.left
        ops.append(node)
        ops.reverse()
        last = len(ops) - 1
        return " + ".join(
            _r_render(op, _R_SEQ, followed if i == last else True) for i, op in enumerate(ops)
        )
    if isinstance(s, Mu):
        return f"mu {s.var}. {_r_render(s.body, _R_CHOICE, False)}"
    if isinstance(s, Most):
        return f"most({_r_render(s.body, _R_CHOICE, False)})"
    if isinstance(s, IfThen):
        cond = _r_render(s.cond, _R_CHOICE, False)
        return f"if {cond} then {_r_render(s.body, _R_CHOICE, False)}"
    if isinstance(s, Conj):
        if len(s.entries) == 1:
            return _r_render_jump(s, followed)
        return f"[{', '.join(_r_render_entry(i, b) for i, b in s.entries)}]"
    raise TypeError(f"not a strategy: {s!r}")


def _r_collapse(s):
    steps = []
    while isinstance(s, Conj) and len(s.entries) == 1 and s.entries[0][0] is not None:
        steps.append(s.entries[0][0])
        s = s.entries[0][1]
    return steps, s


def _r_render_jump(s, followed):
    idx, body = s.entries[0]
    if idx is None:
        return f"@eps.{_r_render(body, _R_SEQ, followed)}"
    steps, tail = _r_collapse(s)
    pos = ".".join(str(i) for i in steps)
    return f"@{pos}.{_r_render(tail, _R_SEQ, followed)}"


def _r_render_entry(idx, body):
    if idx is None:
        return f"@eps.{_r_render(body, _R_CHOICE, False)}"
    steps, tail = _r_collapse(body)
    pos = ".".join(str(i) for i in (idx, *steps))
    return f"@{pos}.{_r_render(tail, _R_CHOICE, False)}"


def test_printer_matches_the_reference_on_engine_outputs():
    # engine outputs are shared DAGs; fed back into the engine they share more
    cfg = GenConfig(seed=3)
    printed = 0
    for i in range(500):
        s, r = gen_strategy(cfg, 2 * i), gen_strategy(cfg, 2 * i + 1)
        for op in (unify, combine):
            for policy in MergePolicy:
                out = op(s, r, policy=policy)
                outs = [out]
                if i % 5 == 0:
                    outs.append(op(s, r, policy=policy, simplify_output=False))
                    outs.append(op(out, s, policy=policy))
                for x in outs:
                    text = print_strategy(x)
                    assert text == reference_print(x)
                    assert parse_strategy(text) is x
                    printed += 1
    assert printed >= 2000


def test_printer_shared_nodes_and_settings():
    x = Choice(Mu("X", SVar("X")), SVar("Y"))
    for s in [
        Choice(x, x),  # a shared choice, parenthesized as a right operand only
        Choice(Guard(App("a"), x), Guard(App("a"), x)),
        Conj(((1, x), (2, x), (None, Ins(TAU_I)))),
        Choice(jump((1, 2), Mu("X", SVar("X"))), jump((1, 2), Mu("X", SVar("X")))),
        IfThen(x, Most(x)),
    ]:
        assert print_strategy(s) == reference_print(s)
        assert parse_strategy(print_strategy(s)) is s
    assert print_strategy(Choice(x, x)) == "(mu X. X) + Y + ((mu X. X) + Y)"
    with pytest.raises(TypeError, match="^not a strategy: 'X'$"):
        print_strategy("X")


def test_a_node_in_two_settings_is_worked_out_once(monkeypatch):
    # the guard is right-open: followed by more of the choice it is printed
    # in parentheses, last it is printed bare, and its text is the same
    guard = parse_strategy("g(?x, ?y) ; mu X. ins <[]> + @1.X")
    s = Choice(Choice(guard, Ins(TAU_I)), guard)
    assert guard.printed is None and s.printed is None
    patterns = []
    inner = syntax.print_term
    monkeypatch.setattr(syntax, "print_term", lambda t: patterns.append(t) or inner(t))
    text = print_strategy(s)
    assert patterns.count(guard.pattern) == 1
    shown = "g(?x,?y) ; mu X. ins <[]> + @1.X"
    assert text == f"({shown}) + ins <list([],i)> + {shown}"
    assert text == reference_print(s) and parse_strategy(text) is s


DEEP = 10_000


def test_print_and_parse_reach_10000_levels():
    s = FAIL_S
    for _ in range(DEEP):
        s = Most(s)
    text = "most(" * DEEP + "fail" + ")" * DEEP
    assert print_strategy(s) == text
    assert parse_strategy(text) is s

    chain = SVar("X")
    for _ in range(DEEP):
        chain = IfThen(SVar("Y"), chain)
    text = "if Y then " * DEEP + "X"
    assert print_strategy(chain) == text
    assert parse_strategy(text) is chain

    # a guard chain that a choice follows is parenthesized once, at its top
    guards = Mu("X", SVar("X"))
    for _ in range(DEEP):
        guards = Guard(App("a"), guards)
    text = "(" + "a ; " * DEEP + "mu X. X) + Y"
    assert print_strategy(Choice(guards, SVar("Y"))) == text
    assert parse_strategy(text) is Choice(guards, SVar("Y"))

    binders = SVar("X")
    for _ in range(DEEP):
        binders = Mu("X", binders)
    assert parse_strategy("mu X. " * DEEP + "X") is binders
    assert parse_strategy("(" * DEEP + "X" + ")" * DEEP) is SVar("X")
    down = jump((1,) * DEEP, SVar("X"))
    assert parse_strategy("@1." * DEEP + "X") is down
    assert parse_strategy("[@1." * DEEP + "X" + "]" * DEEP) is down
    assert print_strategy(down) == "@" + "1." * DEEP + "X"
    spine = "f(" * DEEP + "a" + ")" * DEEP
    assert print_term(parse_term(spine)) == spine


# ---------------------------------------------------------------------------
# strategies: the parse and print memos
# ---------------------------------------------------------------------------


def test_a_repeated_parse_reads_the_text_once(monkeypatch):
    read = []
    tokenize = syntax._tokenize
    monkeypatch.setattr(syntax, "_tokenize", lambda text: read.append(text) or tokenize(text))
    text = "mu X. a ; ins <f([])> + @1.X"
    s = parse_strategy(text)
    assert read == [text]
    # an equal text read from elsewhere is the same key
    assert parse_strategy(text) is s and parse_strategy("".join(list(text))) is s
    assert read == [text]
    # parsing stores no text on the node, and a spelling of its own is a
    # text of its own
    assert s.printed is None
    assert parse_strategy(f" {text} ") is s and len(read) == 2
    parse_strategy.cache_clear()
    assert parse_strategy(text) is s and len(read) == 3


def test_a_parse_error_is_raised_on_every_call():
    for text, message, offset in [MALFORMED[1], MALFORMED[-1], ("X)", "trailing input at ')'", 1)]:
        for _ in range(3):
            with pytest.raises(ParseError) as err:
                parse_strategy(text)
            assert (str(err.value), err.value.offset) == (message, offset)
    assert parse_strategy.cache_info().currsize == 0


def test_the_parse_memo_is_bounded_and_emptying_it_frees_what_it_held():
    assert parse_strategy.cache_info().maxsize == 16
    gc.collect()
    start = len(_TABLE)
    for i in range(10 * 16):
        parse_strategy(f"mu X. parsed{i}(a, ?x) ; ins <f([], parsed{i})> + @1.X")
        assert parse_strategy.cache_info().currsize == min(i + 1, 16)
    gc.collect()
    assert len(_TABLE) > start  # the last strategies read are held
    parse_strategy.cache_clear()
    gc.collect()
    assert len(_TABLE) == start


def test_the_parse_memo_drops_the_text_used_least_recently(monkeypatch):
    # a text read again after 15 others outlives 15 more: a full memo drops
    # its least recently used entry and is never emptied
    read = []
    tokenize = syntax._tokenize
    monkeypatch.setattr(syntax, "_tokenize", lambda text: read.append(text) or tokenize(text))
    texts = [f"lru{i} ; ins <f([])>" for i in range(31)]
    first = parse_strategy(texts[0])
    for text in texts[1:16]:
        parse_strategy(text)
    assert parse_strategy(texts[0]) is first and read == texts[:16]
    for text in texts[16:]:
        parse_strategy(text)
    assert parse_strategy(texts[0]) is first and read == texts


def _printed_once() -> Strat:
    """A strategy no other test builds."""
    return Choice(Mu("X", Guard(App("printed_once"), SVar("X"))), Ins(Context(App("printed_once", (HOLE,)))))


def test_a_repeated_print_does_not_run_the_printer(monkeypatch):
    printed = []
    inner = syntax._print
    monkeypatch.setattr(syntax, "_print", lambda s: printed.append(s) or inner(s))
    s = _printed_once()
    assert s.printed is None
    text = print_strategy(s)
    assert printed == [s] and s.printed is text
    assert print_strategy(s) is text and printed == [s]
    # only the node printed keeps its text, and printing parses nothing
    assert s.left.printed is None and s.right.printed is None
    assert parse_strategy.cache_info().currsize == 0
    assert print_strategy(s.left) == "mu X. printed_once ; X" and len(printed) == 2


def test_a_printed_text_dies_with_its_node():
    s = _printed_once()
    text = print_strategy(s)
    node = weakref.ref(s)
    del s
    gc.collect()
    assert node() is None  # the stored text holds nothing alive
    again = _printed_once()
    assert again.printed is None
    assert print_strategy(again) == text


@pytest.mark.parametrize("value", ["X", None, App("a"), HOLE])
def test_printing_what_is_not_a_strategy_is_a_type_error(value):
    with pytest.raises(TypeError, match=f"^not a strategy: {re.escape(repr(value))}$"):
        print_strategy(value)


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
    assert print_strategy(s) == reference_print(s)


# ---------------------------------------------------------------------------
# JSON shape
# ---------------------------------------------------------------------------


def test_json_shapes():
    s = Conj(((1, Ins(TAU_I)), (None, Guard(U_DIAG, FAIL_S))))
    assert to_json(s) == {"nodes": [
        {"kind": "fail"},
        {"kind": "guard", "pattern": "g(?x,?x)", "body": 0},
        {"kind": "ins", "ctx": "list([],i)"},
        {"kind": "conj", "entries": [{"idx": 1, "body": 2}, {"idx": "eps", "body": 1}]},
    ]}
    assert to_json(Mu("X", SVar("X"))) == {"nodes": [
        {"kind": "var", "var": "X"},
        {"kind": "mu", "var": "X", "body": 0},
    ]}
    assert to_json(IfThen(FAIL_S, Most(FAIL_S))) == {"nodes": [
        {"kind": "fail"},
        {"kind": "most", "body": 0},
        {"kind": "ifthen", "cond": 0, "body": 1},
    ]}
    assert to_json(Choice(FAIL_S, FAIL_S)) == {"nodes": [
        {"kind": "fail"},
        {"kind": "choice", "left": 0, "right": 0},
    ]}


def test_json_writes_a_shared_node_once():
    # 2^16 paths through the choices, 18 distinct nodes
    s = Ins(TAU_I)
    for _ in range(16):
        s = Choice(s, s)
    rows = to_json(Guard(U_DIAG, s))["nodes"]
    assert len(rows) == 18
    assert rows[0] == {"kind": "ins", "ctx": "list([],i)"}
    assert rows[1:-1] == [{"kind": "choice", "left": k, "right": k} for k in range(16)]
    assert rows[-1] == {"kind": "guard", "pattern": "g(?x,?x)", "body": 16}


def test_json_encodes_a_10000_deep_guard_chain():
    n = 10_000
    rows = to_json(parse_strategy("a ; " * n + "ins <[]>"))["nodes"]
    assert rows[0] == {"kind": "ins", "ctx": "[]"}
    assert rows[1:] == [{"kind": "guard", "pattern": "a", "body": k} for k in range(n)]


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


def test_parse_posce_rejects_a_repeated_position():
    # at the second entry for the position; unify_pos would keep only one of them
    for text, message, offset in [
        ("[@1.<k([])>, @1.<m([])>]", "repeated position 1", 13),
        ("[@eps.<[]>, @2.1.<f([])>, @eps.<g([],a)>]", "repeated position eps", 26),
    ]:
        with pytest.raises(ParseError) as err:
            parse_posce(text)
        assert (text, str(err.value), err.value.offset) == (text, message, offset)
