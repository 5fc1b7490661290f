"""Reference semantics for checking the program's outputs.

An independent interpreter written from the language definition, sharing no
code with ``ctxembed``: its own reader and writer for the concrete syntax,
evaluation, the translation ψ onto position lists, and position-list unify
and combine.  Fixed points are bound in an environment to (body, remaining
iterations, defining environment) instead of being unrolled by substitution,
so a mistake in the program's substitution cannot hide here.

Representation, all plain tuples so values compare structurally:

* term: ``"x"`` (a str) is the pattern variable ?x, ``(head, args)`` an
  application, ``None`` the hole of a context;
* strategy: ``("fail",)``, ``("var", X)``, ``("ins", ctx)``,
  ``("guard", pattern, s)``, ``("choice", s, r)``, ``("mu", X, s)``,
  ``("conj", ((index or None, s), ...))``, ``("most", s)``, ``("if", c, b)``;
* position list: ``None`` for failure, else a tuple of (position, ctx) in
  canonical order (descendants before ancestors, parallel positions
  lexicographic).

Semantics (PAPER.md and the module docstrings):

* ``mu X. S`` on t runs the depth(t)-th iterate, where iterate 0 fails and
  iterate n+1 is S with X standing for iterate n; depth is 0 on constants.
* A map ``[@i.S, ..., @eps.R]`` applies its entries left to right to the
  running result, skipping entries that fail or whose child is absent, and
  fails only when every entry fails on the unmodified input.  Until the
  first entry succeeds the running result is the input, so one pass decides
  both.
* ``most(S)`` is the map of S over every child; it fails on constants.
* ψ(s, t) commits every decision against t: each entry of a map is
  translated against t itself, and where two entries insert at the same
  position the later context wraps the earlier one.
"""

from __future__ import annotations

import re

FAIL = ("fail",)
NEST = "nest"
LEFT_PROJECT = "leftproject"

# ---------------------------------------------------------------------------
# reading and writing the concrete syntax
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"(\d+)|([A-Z][A-Za-z0-9_]*)|([a-z][A-Za-z0-9_]*)|([<>()\[\],;+@.?])|(\S)")
_KINDS = ("int", "upper", "lower", "sym")
_KEYWORDS = {"fail", "ins", "mu", "most", "if", "then", "eps"}


class SyntaxFault(ValueError):
    """Text the reference reader does not accept."""


def _tokens(text: str) -> list[tuple[str, str]]:
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 5:
            raise SyntaxFault(f"bad character at {m.start()}: {m.group()!r}")
        out.append((_KINDS[m.lastindex - 1], m.group()))
    out.append(("eof", ""))
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self, k: int = 0) -> tuple[str, str]:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def take(self, value: str) -> None:
        if self.peek()[1] != value or self.peek()[0] == "eof":
            raise SyntaxFault(f"expected {value!r}, got {self.peek()[1]!r}")
        self.i += 1

    def end(self) -> None:
        if self.peek()[0] != "eof":
            raise SyntaxFault(f"trailing {self.peek()[1]!r}")

    def term(self, hole: bool = False):
        kind, value = self.peek()
        if value == "?":
            self.i += 1
            kind, name = self.peek()
            if kind != "lower":
                raise SyntaxFault("variable name expected")
            self.i += 1
            return name
        if hole and value == "[":
            self.i += 1
            self.take("]")
            return None
        if kind != "lower" or value in _KEYWORDS:
            raise SyntaxFault(f"term expected, got {value!r}")
        self.i += 1
        if self.peek()[1] != "(":
            return (value, ())
        self.i += 1
        args = [self.term(hole)]
        while self.peek()[1] == ",":
            self.i += 1
            args.append(self.term(hole))
        self.take(")")
        return (value, tuple(args))

    def position(self) -> tuple[int, ...]:
        kind, value = self.peek()
        if value == "eps":
            self.i += 1
            return ()
        if kind != "int":
            raise SyntaxFault(f"position expected, got {value!r}")
        out = [int(value)]
        self.i += 1
        while self.peek()[1] == "." and self.peek(1)[0] == "int":
            out.append(int(self.peek(1)[1]))
            self.i += 2
        return tuple(out)

    def strat(self):
        node = self.seq()
        while self.peek()[1] == "+":
            self.i += 1
            node = ("choice", node, self.seq())
        return node

    def seq(self):
        kind, value = self.peek()
        if value == "?" or (kind == "lower" and value not in _KEYWORDS):
            pattern = self.term()
            self.take(";")
            return ("guard", pattern, self.seq())
        if value == "mu":
            self.i += 1
            kind, name = self.peek()
            if kind != "upper":
                raise SyntaxFault("binder name expected")
            self.i += 1
            self.take(".")
            return ("mu", name, self.strat())
        if value == "if":
            self.i += 1
            cond = self.strat()
            self.take("then")
            return ("if", cond, self.strat())
        if value == "@":
            self.i += 1
            p = self.position()
            self.take(".")
            return _at(p, self.seq())
        return self.atom()

    def atom(self):
        kind, value = self.peek()
        self.i += 1
        if value == "fail":
            return FAIL
        if kind == "upper":
            return ("var", value)
        if value == "ins":
            self.take("<")
            ctx = self.term(hole=True)
            if _holes(ctx) != 1:
                raise SyntaxFault("a context has exactly one hole")
            self.take(">")
            return ("ins", ctx)
        if value == "most":
            self.take("(")
            body = self.strat()
            self.take(")")
            return ("most", body)
        if value == "[":
            entries = [self.entry()]
            while self.peek()[1] == ",":
                self.i += 1
                entries.append(self.entry())
            self.take("]")
            return ("conj", tuple(entries))
        if value == "(":
            node = self.strat()
            self.take(")")
            return node
        raise SyntaxFault(f"strategy expected, got {value!r}")

    def entry(self):
        self.take("@")
        p = self.position()
        self.take(".")
        body = self.strat()
        if not p:
            return (None, body)
        return (p[0], _at(p[1:], body) if len(p) > 1 else body)


def _at(p: tuple[int, ...], body):
    """The jump @p.S: nested one-entry maps, or one root entry for eps."""
    if not p:
        return ("conj", ((None, body),))
    for i in reversed(p):
        body = ("conj", ((i, body),))
    return body


def _holes(t) -> int:
    if t is None:
        return 1
    if isinstance(t, str):
        return 0
    return sum(_holes(c) for c in t[1])


def read_term(text: str):
    r = _Reader(text)
    t = r.term()
    r.end()
    return t


def read_strategy(text: str):
    r = _Reader(text)
    s = r.strat()
    r.end()
    return s


def show_term(t) -> str:
    """Concrete syntax of a term or context body, without spaces."""
    if t is None:
        return "[]"
    if isinstance(t, str):
        return "?" + t
    head, args = t
    if not args:
        return head
    return head + "(" + ",".join(show_term(a) for a in args) + ")"


def show_strategy(s) -> str:
    """Concrete syntax that reads back to ``s``; every compound operand is
    parenthesized, and every map is written in bracket form."""
    tag = s[0]
    if tag == "fail":
        return "fail"
    if tag == "var":
        return s[1]
    if tag == "ins":
        return f"ins <{show_term(s[1])}>"
    if tag == "most":
        return f"most({show_strategy(s[1])})"
    if tag == "conj":
        parts = (f"@{'eps' if i is None else i}.{show_strategy(b)}" for i, b in s[1])
        return "[" + ", ".join(parts) + "]"
    if tag == "guard":
        return f"{show_term(s[1])} ; {_operand(s[2])}"
    if tag == "choice":
        return f"{_operand(s[1])} + {_operand(s[2])}"
    if tag == "mu":
        return f"mu {s[1]}. {show_strategy(s[2])}"
    if tag == "if":
        return f"if {_operand(s[1])} then {show_strategy(s[2])}"
    raise TypeError(f"not a strategy: {s!r}")


def _operand(s) -> str:
    text = show_strategy(s)
    return text if s[0] in ("fail", "var", "ins", "most", "conj") else f"({text})"


def show_positions(e) -> str:
    if e is None:
        return "fail"
    parts = (f"@{'.'.join(map(str, p)) or 'eps'}.<{show_term(c)}>" for p, c in e)
    return "[" + ", ".join(parts) + "]"


# ---------------------------------------------------------------------------
# terms and contexts
# ---------------------------------------------------------------------------


def depth(t) -> int:
    if isinstance(t, str) or not t[1]:
        return 0
    return 1 + max(depth(c) for c in t[1])


def fill(ctx, t):
    """Put ``t`` in the hole of ``ctx``."""
    if ctx is None:
        return t
    if isinstance(ctx, str) or not ctx[1]:
        return ctx
    return (ctx[0], tuple(fill(c, t) for c in ctx[1]))


def merge(left, right, policy: str):
    """NEST puts ``right`` in the hole of ``left``; LEFT_PROJECT keeps ``left``."""
    return left if policy == LEFT_PROJECT else fill(left, right)


def matches(pattern, t, binding=None) -> bool:
    """``t`` is an instance of ``pattern``; a repeated variable binds equal subterms."""
    if binding is None:
        binding = {}
    if isinstance(pattern, str):
        seen = binding.setdefault(pattern, t)
        return seen == t
    if isinstance(t, str) or pattern[0] != t[0] or len(pattern[1]) != len(t[1]):
        return False
    return all(matches(p, c, binding) for p, c in zip(pattern[1], t[1]))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(s, t, env=None):
    """Result of the closed strategy ``s`` on the ground term ``t``; None is failure.

    ``env`` maps a fixed-point variable to (body, remaining iterations,
    environment of its binder).
    """
    tag = s[0]
    if tag == "ins":
        return fill(s[1], t)
    if tag == "choice":
        got = evaluate(s[1], t, env)
        return got if got is not None else evaluate(s[2], t, env)
    if tag == "guard":
        return evaluate(s[2], t, env) if matches(s[1], t) else None
    if tag == "conj":
        return _apply_entries(s[1], t, env)
    if tag == "most":
        if isinstance(t, str) or not t[1]:
            return None
        return _apply_entries(tuple((i, s[1]) for i in range(1, len(t[1]) + 1)), t, env)
    if tag == "if":
        return None if evaluate(s[1], t, env) is None else evaluate(s[2], t, env)
    if tag == "mu":
        return _iterate(s[1], s[2], depth(t), env or {}, t)
    if tag == "var":
        if env is None or s[1] not in env:
            raise ValueError(f"free variable {s[1]}")
        body, left, defined = env[s[1]]
        return _iterate(s[1], body, left, defined, t)
    if tag == "fail":
        return None
    raise TypeError(f"not a strategy: {s!r}")


def _iterate(name, body, n, defined, t):
    """Iterate ``n`` of the binder ``name``/``body`` on ``t``."""
    if n <= 0:
        return None
    inner = dict(defined)
    inner[name] = (body, n - 1, defined)
    return evaluate(body, t, inner)


def _apply_entries(entries, t, env):
    out, hit = t, False
    for i, body in entries:
        if i is None:
            got = evaluate(body, out, env)
        else:
            if isinstance(out, str) or not 1 <= i <= len(out[1]):
                continue
            child = evaluate(body, out[1][i - 1], env)
            got = None if child is None else (out[0], out[1][: i - 1] + (child,) + out[1][i:])
        if got is not None:
            out, hit = got, True
    return out if hit else None


def fails_on_constants(body, constants) -> bool:
    """A binder body, its variables cut to failure, fails on every constant."""
    cut = {name: (FAIL, 0, {}) for name in variables(body)}
    return all(evaluate(body, (c, ()), cut) is None for c in constants)


def variables(s) -> set[str]:
    """Every fixed-point variable name used or bound in ``s``."""
    tag = s[0]
    if tag == "var":
        return {s[1]}
    if tag == "mu":
        return {s[1]} | variables(s[2])
    if tag in ("guard",):
        return variables(s[2])
    if tag in ("most",):
        return variables(s[1])
    if tag in ("choice", "if"):
        return variables(s[1]) | variables(s[2])
    if tag == "conj":
        out: set[str] = set()
        for _, b in s[1]:
            out |= variables(b)
        return out
    return set()


# ---------------------------------------------------------------------------
# the translation ψ and position lists
# ---------------------------------------------------------------------------

_LAST = 1 << 30


def canonical(entries):
    """Descendants before ancestors, parallel positions lexicographic."""
    return tuple(sorted(entries, key=lambda e: e[0] + (_LAST,)))


def psi(s, t, env=None):
    """The position list of ``s`` committed against ``t``; None is failure."""
    tag = s[0]
    if tag == "ins":
        return (((), s[1]),)
    if tag == "choice":
        got = psi(s[1], t, env)
        return got if got is not None else psi(s[2], t, env)
    if tag == "guard":
        return psi(s[2], t, env) if matches(s[1], t) else None
    if tag == "conj":
        return _psi_entries(s[1], t, env)
    if tag == "most":
        if isinstance(t, str) or not t[1]:
            return None
        return _psi_entries(tuple((i, s[1]) for i in range(1, len(t[1]) + 1)), t, env)
    if tag == "if":
        return None if psi(s[1], t, env) is None else psi(s[2], t, env)
    if tag == "mu":
        return _psi_iterate(s[1], s[2], depth(t), env or {}, t)
    if tag == "var":
        if env is None or s[1] not in env:
            raise ValueError(f"free variable {s[1]}")
        body, left, defined = env[s[1]]
        return _psi_iterate(s[1], body, left, defined, t)
    if tag == "fail":
        return None
    raise TypeError(f"not a strategy: {s!r}")


def _psi_iterate(name, body, n, defined, t):
    if n <= 0:
        return None
    inner = dict(defined)
    inner[name] = (body, n - 1, defined)
    return psi(body, t, inner)


def _psi_entries(entries, t, env):
    at: dict = {}
    hit = False
    for i, body in entries:
        if i is None:
            prefix, sub = (), t
        elif isinstance(t, str) or not 1 <= i <= len(t[1]):
            continue
        else:
            prefix, sub = (i,), t[1][i - 1]
        image = psi(body, sub, env)
        if image is None:
            continue
        hit = True
        for p, c in image:
            p = prefix + p
            # a later insertion at the same spot wraps the earlier one
            at[p] = fill(c, at[p]) if p in at else c
    return canonical(at.items()) if hit else None


def unify_positions(left, right, policy: str = NEST):
    """Entries at a common position merge, left outermost; failure absorbs."""
    if left is None or right is None:
        return None
    rmap = dict(right)
    out = [(p, c if p not in rmap else merge(c, rmap[p], policy)) for p, c in left]
    lpos = {p for p, _ in left}
    out.extend((p, c) for p, c in right if p not in lpos)
    return canonical(out)


def combine_positions(left, right, policy: str = NEST):
    """Like unify_positions, but failure on one side yields the other."""
    if left is None:
        return right
    if right is None:
        return left
    return unify_positions(left, right, policy)


def apply_positions(e, t):
    """Insert each context at its position, in order; absent positions skip,
    and a list none of whose positions occurs in ``t`` fails."""
    if e is None or all(_at_position(t, p) is None for p, _ in e):
        return None
    for p, c in e:
        sub = _at_position(t, p)
        if sub is not None:
            t = replace_at(t, p, fill(c, sub))
    return t


def _at_position(t, p):
    for i in p:
        if isinstance(t, str) or not 1 <= i <= len(t[1]):
            return None
        t = t[1][i - 1]
    return t


def replace_at(t, p, new):
    """``t`` with the subterm at position ``p`` replaced by ``new``."""
    if not p:
        return new
    i = p[0]
    return (t[0], t[1][: i - 1] + (replace_at(t[1][i - 1], p[1:], new),) + t[1][i:])
