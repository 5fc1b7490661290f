"""Concrete syntax and JSON encoding.

Grammar sketch::

    term   :=  '?' ident  |  ident  |  ident '(' term (',' term)* ')'
    ctx    :=  term grammar extended with '[]' for the hole
    pos    :=  'eps'  |  INT ('.' INT)*
    strat  :=  seq ('+' seq)*                      -- '+' associates left
    seq    :=  term ';' seq  |  prefix             -- ';' binds tighter than '+'
    prefix :=  'mu' UIDENT '.' strat
            |  'if' strat 'then' strat
            |  '@' pos '.' seq
            |  atom
    atom   :=  'fail' | UIDENT | 'ins' '<' ctx '>' | 'most' '(' strat ')'
            |  '[' '@' pos '.' strat (',' '@' pos '.' strat)* ']'
            |  '(' strat ')'

``mu`` and ``if`` bodies extend as far right as possible; the printer inserts
parentheses whenever an open-ended form would otherwise swallow a following
operand, and parenthesizes right-nested choices.

Neither reading nor printing recurses per level of nesting.  The text is
split into tokens by one regular-expression scan, and the parser runs on
explicit stacks over the token list; character offsets are worked out only
for a ParseError.  The printer runs on an explicit stack as well: a strategy
shared within the printed one is worked out once per print (see
``print_strategy``) and its text copied wherever it occurs again, and a
sub-strategy that already holds a stored text is copied from it.

Two memos answer a repeated call, by one rule: a result about one node lives
on that node, and a result keyed by anything else lives in a bounded memo,
here a ``functools.lru_cache``.  ``print_strategy`` stores its text on the
strategy node it printed, so the text lives and dies with its node; a larger
print copies that text wherever the node occurs in it.  ``parse_strategy``
is an ``lru_cache`` from text to strategy of at most 16 entries, which drops
the one used least recently when full and keeps the strategies it holds
alive; it stores only a parse that succeeded, so malformed text raises on
every call.  Neither memo fills the other: printing stores nothing in the
parse cache, and parsing stores no text on a node.

The JSON encoding (``to_json``) is a table, ``{"nodes": [...]}``: one row
per distinct node, written by the children-first pass, so children come
before their parents and the encoded strategy is the last row.  A row holds
the node's ``"kind"``, its data (names, and printed contexts and patterns)
and its children as row indices; a shared node is written once.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from operator import itemgetter
from typing import NoReturn, Optional, Union

from ctxembed.posce import FAIL_PCE, PosCE
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
    _children_first,
    _Node,
    _set_printed,
    jump,
)
from ctxembed.terms import HOLE, App, Context, Hole, Position, Term, Var


class ParseError(ValueError):
    """Malformed input text.  `offset` is the character position, when known."""

    def __init__(self, message: str, offset: Optional[int] = None):
        super().__init__(message)
        self.offset = offset


_KEYWORDS = frozenset({"fail", "ins", "mu", "most", "if", "then", "eps"})

# One scan finds every token: a number, a name, or any other single
# character that is not whitespace.  A token's kind is that of its first
# character; a character of no kind is an error.
_TOKEN_RE = re.compile(r"[<>()\[\],;+@.?]|[A-Za-z][A-Za-z0-9_]*|\d+|\S")
_KIND = {
    **dict.fromkeys("0123456789", "int"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "uident"),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "ident"),
    **dict.fromkeys("<>()[],;+@.?", "sym"),
}


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The tokens of ``text`` and their kinds; both lists end with the end of
    input, the token ``""`` of kind ``"eof"``."""
    toks = _TOKEN_RE.findall(text)
    kinds = list(map(_KIND.get, map(itemgetter(0), toks)))
    if None in kinds:
        for k, tok in enumerate(toks):
            if kinds[k] is None:
                # \d also matches the decimal digits of other scripts
                if not tok.isdecimal():
                    raise ParseError(f"unexpected character {tok!r}", offset=_offset(text, k))
                kinds[k] = "int"
    toks.append("")
    kinds.append("eof")
    return toks, kinds


def _offset(text: str, k: int) -> int:
    """Where token ``k`` of ``text`` starts; past the last token, where that
    token ends.  Only error reports need it, so it scans again."""
    end = 0
    for j, m in enumerate(_TOKEN_RE.finditer(text)):
        if j == k:
            return m.start()
        end = m.end()
    return end


# What an open strategy becomes once it ends (see _Parser.strat)
_TOP, _MU, _COND, _THEN, _MOST, _PAREN, _ENTRY = range(7)


class _Parser:
    """A reader of the token lists, on explicit stacks.  Each method takes
    the index of its first token and returns what it read with the index of
    the token after it."""

    def __init__(self, text: str):
        self.text = text
        self.toks, self.kinds = _tokenize(text)

    def fail(self, i: int, message: str) -> NoReturn:
        raise ParseError(message, offset=_offset(self.text, i))

    def expect(self, i: int, value: str) -> int:
        got = self.toks[i]
        if got != value:
            self.fail(i, f"expected {value!r}, got {got or 'end of input'!r}")
        return i + 1

    def done(self, i: int) -> None:
        if self.kinds[i] != "eof":
            self.fail(i, f"trailing input at {self.toks[i]!r}")

    # -- terms and contexts -------------------------------------------------

    def term(self, i: int, allow_hole: bool = False) -> tuple[Union[Term, Hole], int]:
        # ``open_`` holds the applications whose arguments are still coming
        toks, kinds = self.toks, self.kinds
        open_: list[tuple[str, list]] = []
        while True:
            value = toks[i]
            if value == "?":
                if kinds[i + 1] != "ident":
                    self.fail(i + 1, f"expected variable name after '?', got {toks[i + 1]!r}")
                node, i = Var(toks[i + 1]), i + 2
            elif allow_hole and value == "[":
                node, i = HOLE, self.expect(i + 1, "]")
            elif kinds[i] != "ident" or value in _KEYWORDS:
                self.fail(i, f"expected a term, got {value or 'end of input'!r}")
            elif toks[i + 1] == "(":
                open_.append((value, []))
                i += 2
                continue
            else:
                node, i = App(value), i + 1
            # the finished subterm is an argument: a comma asks for the next
            # one, a closing parenthesis finishes the application
            while open_:
                head, args = open_[-1]
                args.append(node)
                if toks[i] == ",":
                    i += 1
                    break
                i = self.expect(i, ")")
                open_.pop()
                node = App(head, tuple(args))
            else:
                return node, i

    def context(self, i: int) -> tuple[Context, int]:
        body, i = self.term(i, allow_hole=True)
        try:
            return Context(body), i
        except ValueError as exc:
            self.fail(i, str(exc))

    def position(self, i: int) -> tuple[Position, int]:
        toks, kinds = self.toks, self.kinds
        value = toks[i]
        if value == "eps":
            return (), i + 1
        if kinds[i] != "int":
            self.fail(i, f"expected a position, got {value or 'end of input'!r}")
        out = []
        while True:
            index = int(toks[i])
            if index < 1:
                self.fail(i, f"child indices start at 1, got {toks[i]!r}")
            out.append(index)
            if toks[i + 1] != "." or kinds[i + 2] != "int":
                return tuple(out), i + 1
            i += 2

    # -- strategies ----------------------------------------------------------

    def strat(self, i: int) -> tuple[Strat, int]:
        """A strategy, on one loop and two stacks.

        ``opened`` holds the strategies still open, innermost last, each as
        [what it becomes, its data, the choice read so far]: the whole input,
        a binder's or an if's body, an if's condition, the inside of most(…),
        of parentheses or of a map entry.  ``prefixes`` holds the guards and
        jumps met at the start of a sequence, as the function that wraps a
        body and the number of open strategies below them: each wraps the
        next sequence that ends there.
        """
        toks, kinds, expect = self.toks, self.kinds, self.expect
        opened: list[list] = [[_TOP, None, None]]
        prefixes: list[tuple] = []
        while True:
            # read prefixes until a sequence is complete or a strategy opens
            value = toks[i]
            if value == "?" or (kinds[i] == "ident" and value not in _KEYWORDS):
                pattern, i = self.term(i)
                i = expect(i, ";")
                prefixes.append((partial(Guard, pattern), len(opened)))
                continue
            if value == "@":
                p, i = self.position(i + 1)
                i = expect(i, ".")
                prefixes.append((partial(jump, p), len(opened)))
                continue
            if value == "mu":
                if kinds[i + 1] != "uident":
                    self.fail(i + 1, f"expected a binder name, got {toks[i + 1]!r}")
                opened.append([_MU, toks[i + 1], None])
                i = expect(i + 2, ".")
                continue
            if value == "if":
                opened.append([_COND, None, None])
                i += 1
                continue
            if value == "most":
                opened.append([_MOST, None, None])
                i = expect(i + 1, "(")
                continue
            if value == "(":
                opened.append([_PAREN, None, None])
                i += 1
                continue
            if value == "[":
                p, i = self.position(expect(i + 1, "@"))
                opened.append([_ENTRY, ([], p), None])
                i = expect(i, ".")
                continue
            if value == "fail":
                node, i = FAIL_S, i + 1
            elif kinds[i] == "uident":
                node, i = SVar(value), i + 1
            elif value == "ins":
                ctx, i = self.context(expect(i + 1, "<"))
                node, i = Ins(ctx), expect(i, ">")
            else:
                self.fail(i, f"expected a strategy, got {value or 'end of input'!r}")
            # ``node`` is a complete sequence: wrap it in its prefixes, add
            # it to the innermost open choice, and close what ends here
            while True:
                depth = len(opened)
                while prefixes and prefixes[-1][1] == depth:
                    node = prefixes.pop()[0](node)
                top = opened[-1]
                if top[2] is not None:
                    node = Choice(top[2], node)
                if toks[i] == "+":
                    top[2] = node
                    i += 1
                    break
                opened.pop()
                what, data = top[0], top[1]
                if what == _TOP:
                    return node, i
                if what == _MU:
                    node = Mu(data, node)
                elif what == _COND:
                    opened.append([_THEN, node, None])
                    i = expect(i, "then")
                    break
                elif what == _THEN:
                    node = IfThen(data, node)
                elif what == _MOST:
                    node, i = Most(node), expect(i, ")")
                elif what == _PAREN:
                    i = expect(i, ")")
                else:
                    entries, p = data
                    if not p:
                        entries.append((None, node))
                    else:
                        entries.append((p[0], jump(p[1:], node) if len(p) > 1 else node))
                    if toks[i] != ",":
                        node, i = Conj(tuple(entries)), expect(i, "]")
                        continue
                    p, i = self.position(expect(i + 1, "@"))
                    opened.append([_ENTRY, (entries, p), None])
                    i = expect(i, ".")
                    break


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t, i = p.term(0)
    p.done(i)
    return t


def parse_context(text: str) -> Context:
    p = _Parser(text)
    if p.toks[0] == "<":
        ctx, i = p.context(1)
        i = p.expect(i, ">")
    else:
        ctx, i = p.context(0)
    p.done(i)
    return ctx


def parse_position(text: str) -> Position:
    p = _Parser(text)
    out, i = p.position(0)
    p.done(i)
    return out


@lru_cache(maxsize=16)
def parse_strategy(text: str) -> Strat:
    """The strategy ``text`` writes; malformed text raises ``ParseError``.

    A repeated call returns the strategy from the cache without reading the
    text again; only a parse that succeeded is stored (see the module
    docstring).
    """
    p = _Parser(text)
    s, i = p.strat(0)
    p.done(i)
    return s


def parse_posce(text: str) -> PosCE:
    p = _Parser(text)
    if p.toks[0] == "fail":
        p.done(1)
        return FAIL_PCE
    i = p.expect(0, "[")
    entries: dict[Position, Context] = {}
    while True:
        at = i
        pos, i = p.position(p.expect(i, "@"))
        if pos in entries:
            p.fail(at, f"repeated position {print_position(pos)}")
        ctx, i = p.context(p.expect(p.expect(i, "."), "<"))
        i = p.expect(i, ">")
        entries[pos] = ctx
        if p.toks[i] != ",":
            break
        i += 1
    p.done(p.expect(i, "]"))
    return PosCE(tuple(entries.items()))


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def print_term(t: Union[Term, Hole]) -> str:
    # an explicit stack of subterms and punctuation, so depth costs no frames
    parts: list[str] = []
    stack: list = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif isinstance(node, Hole):
            parts.append("[]")
        elif isinstance(node, Var):
            parts.append(f"?{node.name}")
        elif not node.args:
            parts.append(node.head)
        else:
            parts.append(f"{node.head}(")
            stack.append(")")
            for arg in reversed(node.args[1:]):
                stack += (arg, ",")
            stack.append(node.args[0])
    return "".join(parts)


def print_context(c: Context) -> str:
    return print_term(c.body)


def print_position(p: Position) -> str:
    return ".".join(str(i) for i in p) if p else "eps"


_CHOICE, _SEQ = 0, 1


def _right_open(s: Strat, memo: dict[Strat, bool]) -> bool:
    """Whether the printed form ends in a sub-strategy that extends right.

    Follows the rightmost sub-strategy down; every node passed is recorded
    in ``memo``, so a chain is walked once per printing.
    """
    passed: list[Strat] = []
    while True:
        known = memo.get(s)
        if known is not None:
            break
        cls = type(s)
        if cls is Mu or cls is IfThen:
            known = True
            break
        passed.append(s)
        if cls is Guard:
            s = s.body
        elif cls is Choice:
            s = s.right
        elif cls is Conj and len(s.entries) == 1:
            s = s.entries[0][1]
        else:
            known = False
            break
    for node in passed:
        memo[node] = known
    return known


def _collapse(s: Strat) -> tuple[list[int], Strat]:
    steps: list[int] = []
    while isinstance(s, Conj) and len(s.entries) == 1 and s.entries[0][0] is not None:
        steps.append(s.entries[0][0])
        s = s.entries[0][1]
    return steps, s


def print_strategy(s: Strat) -> str:
    """The concrete syntax of ``s``, which ``parse_strategy`` reads back.

    The text is stored on ``s`` itself, so a repeated call returns it
    without printing again, and it dies with ``s``.  Only ``s`` stores its
    text, so printing a chain 10⁴ deep takes memory linear in its length.

    A sub-strategy is printed in a setting: the loosest operator it may show
    unparenthesized (``_CHOICE`` or ``_SEQ``), and whether more of a choice
    follows it.  The setting decides only whether the sub-strategy is put
    in parentheses: its text inside them is the same in every setting.  The
    printer runs on an explicit stack of pending text and (node, setting)
    pairs; it decides on parentheses first, and keeps where each node's
    text begins and ends.  A node met again, in any setting, copies that
    stretch of text, so a shared sub-strategy is worked out once per print
    however often it is printed.  A sub-strategy with a stored text, from
    an earlier ``print_strategy`` of it, is not worked out at all: its
    stored text is copied once the choice of parentheses is made.
    """
    if not isinstance(s, _Node):
        raise TypeError(f"not a strategy: {s!r}")
    text = s.printed
    if text is None:
        text = _print(s)
        _set_printed(s, text)
    return text


def _print(s: Strat) -> str:
    parts: list[str] = []
    spans: dict[Strat, tuple[int, int]] = {}
    opens: dict[Strat, bool] = {}
    stack: list = [(s, _CHOICE, False)]
    push = stack.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        if len(item) == 2:
            # (node, start): the node's text is complete
            spans[item[0]] = (item[1], len(parts))
            continue
        node, min_prec, followed = item
        cls = type(node)
        # variables and failure are their names
        if cls is SVar:
            parts.append(node.name)
            continue
        if cls is SFail:
            parts.append("fail")
            continue
        # pieces go on the stack last first
        if (cls is Choice and min_prec > _CHOICE) or (followed and _right_open(node, opens)):
            push(")")
            push((node, _CHOICE, False))
            push("(")
            continue
        # unparenthesized, a node prints as on its own: a stored text, or the
        # node's text from earlier in this print, is copied
        text = node.printed
        if text is not None:
            parts.append(text)
            continue
        span = spans.get(node)
        if span is not None:
            parts += parts[span[0] : span[1]]
            continue
        push((node, len(parts)))
        if cls is Ins:
            push(f"ins <{print_context(node.ctx)}>")
        elif cls is Guard:
            push((node.body, _SEQ, followed))
            push(f"{print_term(node.pattern)} ; ")
        elif cls is Choice:
            # a left-nested chain prints flat; every operand but the last is
            # followed by the rest of the chain
            push((node.right, _SEQ, followed))
            node = node.left
            while type(node) is Choice:
                push(" + ")
                push((node.right, _SEQ, True))
                node = node.left
            push(" + ")
            push((node, _SEQ, True))
        elif cls is Mu:
            push((node.body, _CHOICE, False))
            push(f"mu {node.var}. ")
        elif cls is Most:
            push(")")
            push((node.body, _CHOICE, False))
            push("most(")
        elif cls is IfThen:
            push((node.body, _CHOICE, False))
            push(" then ")
            push((node.cond, _CHOICE, False))
            push("if ")
        elif cls is Conj and len(node.entries) == 1:
            idx, body = node.entries[0]
            if idx is None:
                push((body, _SEQ, followed))
                push("@eps.")
            else:
                steps, tail = _collapse(node)
                push((tail, _SEQ, followed))
                push(f"@{'.'.join(map(str, steps))}.")
        else:  # a map of several entries
            push("]")
            for k in range(len(node.entries) - 1, -1, -1):
                idx, body = node.entries[k]
                if idx is None:
                    push((body, _CHOICE, False))
                    push("@eps.")
                else:
                    steps, tail = _collapse(body)
                    push((tail, _CHOICE, False))
                    push(f"@{'.'.join(map(str, (idx, *steps)))}.")
                if k:
                    push(", ")
            push("[")
    return "".join(parts)


def print_posce(e: PosCE) -> str:
    if e.is_fail:
        return "fail"
    parts = (f"@{print_position(p)}.<{print_context(c)}>" for p, c in e.entries)
    return f"[{', '.join(parts)}]"


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def to_json(s: Strat) -> dict:
    """``{"nodes": rows}``: one row per distinct node of ``s``, children
    before their parent, so ``s`` is the last row.  A row names each child
    by its row index."""
    rows: list[dict] = []

    def row(node: Strat, kids: tuple[int, ...]) -> int:
        cls = type(node)
        if cls is SFail:
            out: dict = {"kind": "fail"}
        elif cls is SVar:
            out = {"kind": "var", "var": node.name}
        elif cls is Ins:
            out = {"kind": "ins", "ctx": print_context(node.ctx)}
        elif cls is Guard:
            out = {"kind": "guard", "pattern": print_term(node.pattern), "body": kids[0]}
        elif cls is Choice:
            out = {"kind": "choice", "left": kids[0], "right": kids[1]}
        elif cls is Mu:
            out = {"kind": "mu", "var": node.var, "body": kids[0]}
        elif cls is Conj:
            out = {"kind": "conj", "entries": [
                {"idx": "eps" if i is None else i, "body": k} for (i, _), k in zip(node.entries, kids)
            ]}
        elif cls is Most:
            out = {"kind": "most", "body": kids[0]}
        else:
            out = {"kind": "ifthen", "cond": kids[0], "body": kids[1]}
        rows.append(out)
        return len(rows) - 1

    _children_first(s, row)
    return {"nodes": rows}
