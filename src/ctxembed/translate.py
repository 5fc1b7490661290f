"""Translate a strategy into position-indexed form against a concrete term.

The translation commits every navigation decision (guards, gates, fixed-point
unfolding, arity of the subject) against the given term, leaving a flat list
of positions and the contexts to embed there.  Applying the result to the
same term agrees with evaluating the strategy directly.
"""

from __future__ import annotations

from ctxembed.posce import FAIL_PCE, PosCE, canonicalize
from ctxembed.strategy import (
    Choice,
    Conj,
    Env,
    Guard,
    IfThen,
    Ins,
    Most,
    Mu,
    SFail,
    Strat,
    SVar,
    ValidationFailure,
)
from ctxembed.terms import App, Context, Position, Term, depth, match, merge


def psi(s: Strat, t: Term) -> PosCE:
    """Position-indexed form of ``s`` specialized to the subject ``t``.

    Fixed points unfold in an environment, as in ``eval_strategy`` but on a
    path of their own: ``Mu(X, S)`` on ``t`` binds ``X`` to ``S``, the
    binder's environment and depth(t) - 1 iterations left, and each use of
    ``X`` spends one.  The reference semantics is the substituted iterate
    ``mu_iterate(X, S, depth(t))``.

    Every insertion is written once, at its absolute position, into one
    table, and the table is sorted once at the end.  An open strategy is
    rejected before translation starts: ``ValidationFailure`` names the
    least free variable.  Unlike ``eval_strategy``, ψ runs an ``IfThen``
    condition in full, into a table it then drops.
    """
    if s.free:
        raise ValidationFailure(f"cannot translate open strategy (free {min(s.free)})")
    out: dict[Position, Context] = {}
    if not _psi(s, t, {}, (), out):
        return FAIL_PCE
    return canonicalize(PosCE(tuple(out.items())))


def _psi(s: Strat, t: Term, env: Env, at: Position, out: dict[Position, Context]) -> bool:
    # Writes the image of s on the subterm t at position at into out and
    # reports success.  A call that fails writes nothing: insertions always
    # succeed, and every other case fails before writing or after sub-calls
    # that each wrote nothing.  As in the evaluator, tail positions loop
    # instead of recursing, maps and Most run their entries in this same
    # frame, and the tests go on the exact type.
    while True:
        cls = type(s)
        if cls is Choice:
            if _psi(s.left, t, env, at, out):
                return True
            s = s.right
        elif cls is Conj:
            hit = False
            for i, body in s.entries:
                if i is None:
                    hit = _psi(body, t, env, at, out) or hit
                elif type(t) is App and 1 <= i <= len(t.args):
                    hit = _psi(body, t.args[i - 1], env, at + (i,), out) or hit
            return hit
        elif cls is Ins:
            # an insertion applied later wraps an earlier one at the same spot
            old = out.get(at)
            out[at] = s.ctx if old is None else merge(s.ctx, old)
            return True
        elif cls is SVar:
            # the strategy is closed, so every variable reached is bound
            name = s.name
            s, defined, left = env[name]
            if left == 0:
                return False
            env = {**defined, name: (s, defined, left - 1)}
        elif cls is Guard:
            if match(s.pattern, t) is None:
                return False
            s = s.body
        elif cls is Mu:
            n = depth(t)
            if n == 0:
                return False
            env = {**env, s.var: (s.body, env, n - 1)}
            s = s.body
        elif cls is Most:
            hit = False
            if type(t) is App:
                body = s.body
                for i, c in enumerate(t.args, 1):
                    hit = _psi(body, c, env, at + (i,), out) or hit
            return hit
        elif cls is IfThen:
            if not _psi(s.cond, t, env, at, {}):
                return False
            s = s.body
        elif cls is SFail:
            return False
        else:
            raise TypeError(f"not a strategy: {s!r}")
