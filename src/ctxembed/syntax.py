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
"""

from __future__ import annotations

import re
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
    jump,
)
from ctxembed.terms import HOLE, App, Context, Hole, Position, Term, Var


class ParseError(ValueError):
    """Malformed input text.  `offset` is the character position, when known."""

    def __init__(self, message: str, offset: Optional[int] = None):
        super().__init__(message)
        self.offset = offset


_KEYWORDS = frozenset({"fail", "ins", "mu", "most", "if", "then", "eps"})

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<uident>[A-Z][A-Za-z0-9_]*)"
    r"|(?P<ident>[a-z][A-Za-z0-9_]*)"
    r"|(?P<sym>[<>()\[\],;+@.?])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", offset=i)
        i = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        toks.append((kind, m.group(), m.start()))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> tuple[str, str]:
        j = self.pos + ahead
        if j >= len(self.toks):
            return ("eof", "")
        kind, value, _ = self.toks[j]
        return (kind, value)

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        self.pos += 1
        return tok

    def offset(self) -> int:
        if self.pos < len(self.toks):
            return self.toks[self.pos][2]
        if self.toks:
            _, value, start = self.toks[-1]
            return start + len(value)
        return 0

    def fail(self, message: str) -> NoReturn:
        raise ParseError(message, offset=self.offset())

    def expect(self, value: str) -> None:
        kind, got = self.peek()
        if got != value or kind == "eof":
            self.fail(f"expected {value!r}, got {got or 'end of input'!r}")
        self.pos += 1

    def done(self) -> None:
        kind, got = self.peek()
        if kind != "eof":
            self.fail(f"trailing input at {got!r}")

    # -- terms and contexts -------------------------------------------------

    def term(self, allow_hole: bool = False) -> Union[Term, Hole]:
        kind, value = self.peek()
        if value == "?":
            self.next()
            kind, name = self.peek()
            if kind != "ident":
                self.fail(f"expected variable name after '?', got {name!r}")
            self.next()
            return Var(name)
        if allow_hole and value == "[":
            self.next()
            self.expect("]")
            return HOLE
        if kind != "ident" or value in _KEYWORDS:
            self.fail(f"expected a term, got {value or 'end of input'!r}")
        self.next()
        if self.peek()[1] != "(":
            return App(value)
        self.next()
        args = [self.term(allow_hole)]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.term(allow_hole))
        self.expect(")")
        return App(value, tuple(args))

    def context(self) -> Context:
        body = self.term(allow_hole=True)
        try:
            return Context(body)
        except ValueError as exc:
            self.fail(str(exc))

    def position(self) -> Position:
        kind, value = self.peek()
        if value == "eps":
            self.next()
            return ()
        if kind != "int":
            self.fail(f"expected a position, got {value or 'end of input'!r}")
        out = [self._index()]
        while self.peek()[1] == "." and self.peek(1)[0] == "int":
            self.next()
            out.append(self._index())
        return tuple(out)

    def _index(self) -> int:
        kind, value = self.peek()
        if kind != "int" or int(value) < 1:
            self.fail(f"child indices start at 1, got {value!r}")
        self.next()
        return int(value)

    # -- strategies ----------------------------------------------------------

    def strat(self) -> Strat:
        node = self.seq()
        while self.peek()[1] == "+":
            self.next()
            node = Choice(node, self.seq())
        return node

    def seq(self) -> Strat:
        kind, value = self.peek()
        if value == "?" or (kind == "ident" and value not in _KEYWORDS):
            pattern = self.term()
            self.expect(";")
            return Guard(pattern, self.seq())
        return self.prefix()

    def prefix(self) -> Strat:
        kind, value = self.peek()
        if value == "mu":
            self.next()
            kind, name = self.peek()
            if kind != "uident":
                self.fail(f"expected a binder name, got {name!r}")
            self.next()
            self.expect(".")
            return Mu(name, self.strat())
        if value == "if":
            self.next()
            cond = self.strat()
            self.expect("then")
            return IfThen(cond, self.strat())
        if value == "@":
            self.next()
            p = self.position()
            self.expect(".")
            return jump(p, self.seq())
        return self.atom()

    def atom(self) -> Strat:
        kind, value = self.peek()
        if value == "fail":
            self.next()
            return FAIL_S
        if kind == "uident":
            self.next()
            return SVar(value)
        if value == "ins":
            self.next()
            self.expect("<")
            ctx = self.context()
            self.expect(">")
            return Ins(ctx)
        if value == "most":
            self.next()
            self.expect("(")
            body = self.strat()
            self.expect(")")
            return Most(body)
        if value == "[":
            self.next()
            entries = [self._entry()]
            while self.peek()[1] == ",":
                self.next()
                entries.append(self._entry())
            self.expect("]")
            return Conj(tuple(entries))
        if value == "(":
            self.next()
            node = self.strat()
            self.expect(")")
            return node
        self.fail(f"expected a strategy, got {value or 'end of input'!r}")

    def _entry(self) -> tuple[Optional[int], Strat]:
        self.expect("@")
        p = self.position()
        self.expect(".")
        body = self.strat()
        if not p:
            return (None, body)
        return (p[0], jump(p[1:], body) if len(p) > 1 else body)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.done()
    return t


def parse_context(text: str) -> Context:
    p = _Parser(text)
    if p.peek()[1] == "<":
        p.next()
        ctx = p.context()
        p.expect(">")
    else:
        ctx = p.context()
    p.done()
    return ctx


def parse_position(text: str) -> Position:
    p = _Parser(text)
    out = p.position()
    p.done()
    return out


def parse_strategy(text: str) -> Strat:
    p = _Parser(text)
    s = p.strat()
    p.done()
    return s


def parse_posce(text: str) -> PosCE:
    p = _Parser(text)
    if p.peek()[1] == "fail":
        p.next()
        p.done()
        return FAIL_PCE
    p.expect("[")
    entries = []
    while True:
        p.expect("@")
        pos = p.position()
        p.expect(".")
        p.expect("<")
        ctx = p.context()
        p.expect(">")
        entries.append((pos, ctx))
        if p.peek()[1] != ",":
            break
        p.next()
    p.expect("]")
    p.done()
    return PosCE(tuple(entries))


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


def _prec(s: Strat) -> int:
    if isinstance(s, Choice):
        return _CHOICE
    return _SEQ


def _right_open(s: Strat) -> bool:
    """Whether the printed form ends in a sub-strategy that extends right."""
    if isinstance(s, (Mu, IfThen)):
        return True
    if isinstance(s, Guard):
        return _right_open(s.body)
    if isinstance(s, Choice):
        return _right_open(s.right)
    if isinstance(s, Conj) and len(s.entries) == 1:
        return _right_open(s.entries[0][1])
    return False


def print_strategy(s: Strat) -> str:
    return _render(s, _CHOICE, False)


def _render(s: Strat, min_prec: int, followed: bool) -> str:
    if _prec(s) < min_prec or (followed and _right_open(s)):
        return f"({_render(s, _CHOICE, False)})"
    if isinstance(s, SFail):
        return "fail"
    if isinstance(s, SVar):
        return s.name
    if isinstance(s, Ins):
        return f"ins <{print_context(s.ctx)}>"
    if isinstance(s, Guard):
        return f"{print_term(s.pattern)} ; {_render(s.body, _SEQ, followed)}"
    if isinstance(s, Choice):
        ops: list[Strat] = []
        node: Strat = s
        while isinstance(node, Choice):
            ops.append(node.right)
            node = node.left
        ops.append(node)
        ops.reverse()
        last = len(ops) - 1
        return " + ".join(
            _render(op, _SEQ, followed if i == last else True) for i, op in enumerate(ops)
        )
    if isinstance(s, Mu):
        return f"mu {s.var}. {_render(s.body, _CHOICE, False)}"
    if isinstance(s, Most):
        return f"most({_render(s.body, _CHOICE, False)})"
    if isinstance(s, IfThen):
        cond = _render(s.cond, _CHOICE, False)
        return f"if {cond} then {_render(s.body, _CHOICE, False)}"
    if isinstance(s, Conj):
        if len(s.entries) == 1:
            return _render_jump(s, followed)
        return f"[{', '.join(_render_entry(i, b) for i, b in s.entries)}]"
    raise TypeError(f"not a strategy: {s!r}")


def _collapse(s: Strat) -> tuple[list[int], Strat]:
    steps: list[int] = []
    while isinstance(s, Conj) and len(s.entries) == 1 and s.entries[0][0] is not None:
        steps.append(s.entries[0][0])
        s = s.entries[0][1]
    return steps, s


def _render_jump(s: Conj, followed: bool) -> str:
    idx, body = s.entries[0]
    if idx is None:
        return f"@eps.{_render(body, _SEQ, followed)}"
    steps, tail = _collapse(s)
    pos = ".".join(str(i) for i in steps)
    return f"@{pos}.{_render(tail, _SEQ, followed)}"


def _render_entry(idx: Optional[int], body: Strat) -> str:
    if idx is None:
        return f"@eps.{_render(body, _CHOICE, False)}"
    steps, tail = _collapse(body)
    pos = ".".join(str(i) for i in (idx, *steps))
    return f"@{pos}.{_render(tail, _CHOICE, False)}"


def print_posce(e: PosCE) -> str:
    if e.is_fail:
        return "fail"
    parts = (f"@{print_position(p)}.<{print_context(c)}>" for p, c in e.entries)
    return f"[{', '.join(parts)}]"


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------


def to_json(s: Strat) -> dict:
    if isinstance(s, SFail):
        return {"kind": "fail"}
    if isinstance(s, SVar):
        return {"kind": "var", "var": s.name}
    if isinstance(s, Ins):
        return {"kind": "ins", "ctx": print_context(s.ctx)}
    if isinstance(s, Guard):
        return {"kind": "guard", "pattern": print_term(s.pattern), "body": to_json(s.body)}
    if isinstance(s, Choice):
        return {"kind": "choice", "left": to_json(s.left), "right": to_json(s.right)}
    if isinstance(s, Mu):
        return {"kind": "mu", "var": s.var, "body": to_json(s.body)}
    if isinstance(s, Conj):
        return {
            "kind": "conj",
            "entries": [
                {"idx": "eps" if i is None else i, "body": to_json(b)} for i, b in s.entries
            ],
        }
    if isinstance(s, Most):
        return {"kind": "most", "body": to_json(s.body)}
    if isinstance(s, IfThen):
        return {"kind": "ifthen", "cond": to_json(s.cond), "body": to_json(s.body)}
    raise TypeError(f"not a strategy: {s!r}")
