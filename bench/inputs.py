"""Seeded inputs for the benchmark, made without the program's generators.

Everything here is a deterministic function of (seed, stream, index), so a
run's inputs follow from its seed alone and no change to ``ctxembed`` can
change them.  Strategies are built as reference trees and handed to the
program as text.

Generated strategies are admissible by construction: closed, each binder
variable used exactly once (linear) and only below a child step (monotone),
maps with distinct child indices and at most one root entry, last, which is
an insertion.  ``class_strategy`` keeps only strategies whose every binder
body fails on constants, the domain of the paper's Theorems 1 and 2.
"""

from __future__ import annotations

import random

import reference as R

SIGNATURE = {"a": 0, "b": 0, "f": 1, "g": 2}
CONSTANTS = ("a", "b")
SYMBOLS = ("a", "b", "f", "g")
MAX_STRATEGY_DEPTH = 4
MAX_BINDER_NESTING = 2
# binder names by nesting level; levels never share a name, so no capture
_BINDERS = (("X", "Y"), ("W", "V"), ("U", "R"))


def rng(seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"bench:{seed}:{stream}:{index}")


def ground_terms(max_depth: int) -> list:
    """Every ground term over SIGNATURE of depth <= max_depth, smallest first."""
    level = [(c, ()) for c in CONSTANTS]
    for _ in range(max_depth):
        nxt = list(level)
        nxt += [("f", (t,)) for t in level]
        nxt += [("g", (u, v)) for u in level for v in level]
        seen, level = set(), []
        for t in nxt:
            if t not in seen:
                seen.add(t)
                level.append(t)
    return sorted(level, key=lambda t: (R.depth(t), R.show_term(t)))


def random_term(r: random.Random, budget: int):
    head = r.choice(CONSTANTS if budget <= 0 else SYMBOLS)
    return (head, tuple(random_term(r, budget - 1) for _ in range(SIGNATURE[head])))


def spine_term(r: random.Random, d: int):
    """A ground term of depth exactly ``d``: a path of f and g nodes whose
    side branches are small random terms."""
    t = (r.choice(CONSTANTS), ())
    for _ in range(d):
        if r.random() < 0.5:
            t = ("f", (t,))
        else:
            side = random_term(r, r.randint(0, 2))
            while R.depth(side) >= R.depth(t) + 1:
                side = random_term(r, 0)
            t = ("g", (t, side) if r.random() < 0.5 else (side, t))
    return t


def _context(r: random.Random):
    skeleton = random_term(r, r.randint(0, 2))
    spots = []

    def walk(t, here):
        spots.append(here)
        for i, c in enumerate(t[1], start=1):
            walk(c, here + (i,))

    walk(skeleton, ())
    return R.replace_at(skeleton, spots[r.randrange(len(spots))], None)


def _pattern(r: random.Random, budget: int):
    if budget <= 0 or r.random() < 0.4:
        return r.choice("xyz") if r.random() < 0.65 else (r.choice(CONSTANTS), ())
    head = r.choice(SYMBOLS)
    return (head, tuple(_pattern(r, budget - 1) for _ in range(SIGNATURE[head])))


def _ins(r):
    return ("ins", _context(r))


def _pure(r, budget, level):
    """A strategy owing no variable placement."""
    if budget <= 0:
        return R.FAIL
    if budget == 1 or r.random() < 0.18:
        return R.FAIL if r.random() < 0.08 else _ins(r)
    roll = r.random()
    if roll < 0.16:
        return ("guard", _pattern(r, 2), _pure(r, budget - 1, level))
    if roll < 0.34:
        return ("choice", _pure(r, budget - 1, level), _pure(r, budget - 1, level))
    if roll < 0.52:
        idxs = sorted(r.sample((1, 2), r.randint(1, 2)))
        entries = [(i, _pure(r, budget - 1, level)) for i in idxs]
        if r.random() < 0.35:
            entries.append((None, _ins(r)))
        return ("conj", tuple(entries))
    if roll < 0.64 and budget >= 3:
        return ("most", _pure(r, budget - 2, level))
    if roll < 0.76:
        return ("if", _pure(r, budget - 1, level), _pure(r, budget - 1, level))
    if level < MAX_BINDER_NESTING:
        name = r.choice(_BINDERS[level])
        return ("mu", name, _owing(r, budget, level + 1, ((name, False),)))
    return _ins(r)


def _owing(r, budget, level, owed):
    """A strategy that places each owed variable exactly once, below a child
    step; ``owed`` holds (name, already below a child step)."""
    if len(owed) == 2:
        first, second = owed if r.random() < 0.5 else owed[::-1]
        inner = max(0, budget - 1)
        return (
            "conj",
            (
                (1, _owing(r, inner, level, ((first[0], True),))),
                (2, _owing(r, inner, level, ((second[0], True),))),
            ),
        )
    if not owed:
        return _pure(r, budget, level)
    name, below = owed[0]
    var = ("var", name)
    if budget <= 1:
        if below and (budget <= 0 or r.random() < 0.6):
            return var
        return ("conj", ((r.randint(1, 2), var),))
    if below and r.random() < 0.25:
        return var
    roll = r.random()
    if roll < 0.10 and level < MAX_BINDER_NESTING and budget >= 3:
        inner = r.choice(_BINDERS[level])
        return ("mu", inner, _owing(r, budget, level + 1, (owed[0], (inner, False))))
    if roll < 0.35:
        idxs = sorted(r.sample((1, 2), r.randint(1, 2)))
        slot = r.choice(idxs)
        entries = [
            (i, _owing(r, budget - 1, level, ((name, True),)) if i == slot else _pure(r, budget - 1, level))
            for i in idxs
        ]
        if r.random() < 0.25:
            entries.append((None, _ins(r)))
        return ("conj", tuple(entries))
    if roll < 0.50:
        return ("guard", _pattern(r, 2), _owing(r, budget - 1, level, owed))
    if roll < 0.70:
        mine = _owing(r, budget - 1, level, owed)
        other = _pure(r, budget - 1, level)
        return ("choice", mine, other) if r.random() < 0.5 else ("choice", other, mine)
    if roll < 0.80:
        return ("most", _owing(r, budget - 2, level, ((name, True),)))
    return ("if", _pure(r, budget - 1, level), _owing(r, budget - 1, level, owed))


def strategy(r: random.Random, depth: int = MAX_STRATEGY_DEPTH):
    """One admissible strategy of the given depth bound, with at most 2
    nested binders."""
    if r.random() < 0.45:
        name = r.choice(_BINDERS[0])
        return ("mu", name, _owing(r, depth, 1, ((name, False),)))
    return _pure(r, depth, 0)


def binder_bodies(s):
    """Every (name, body) of a fixed point in ``s``."""
    tag = s[0]
    out = [(s[1], s[2])] if tag == "mu" else []
    if tag in ("mu", "guard"):
        out += binder_bodies(s[2])
    elif tag == "most":
        out += binder_bodies(s[1])
    elif tag in ("choice", "if"):
        out += binder_bodies(s[1]) + binder_bodies(s[2])
    elif tag == "conj":
        for _, b in s[1]:
            out += binder_bodies(b)
    return out


def binder_stratum(strategies) -> int:
    """Total number of binders in a group of inputs, capped at 4.

    A unify or combine costs more the more fixed points its inputs hold,
    so the workloads fill every round with fixed numbers of groups from
    each stratum, near their natural shares; what one run measures then
    varies less with its seed."""
    return min(4, sum(len(binder_bodies(s)) for s in strategies))


def in_class(s) -> bool:
    """Every binder body fails on constants with its variables cut to failure."""
    return all(R.fails_on_constants(body, CONSTANTS) for _, body in binder_bodies(s))


def class_strategy(seed: int, stream: str, index: int, depth: int = MAX_STRATEGY_DEPTH):
    """The index-th strategy of a seeded stream, drawn from the class."""
    r = rng(seed, stream, index)
    while True:
        s = strategy(r, depth)
        if in_class(s):
            return s


def fixed_point(seed: int, stream: str, index: int):
    """A generated binder ``mu X. body`` whose body fails on constants."""
    r = rng(seed, stream, index)
    while True:
        name = r.choice(_BINDERS[0])
        s = ("mu", name, _owing(r, MAX_STRATEGY_DEPTH, 1, ((name, False),)))
        if in_class(s):
            return s


def top_down(s):
    """td(s) = mu T. s + most(T); T is never a generated binder name."""
    return ("mu", "T", ("choice", s, ("most", ("var", "T"))))
