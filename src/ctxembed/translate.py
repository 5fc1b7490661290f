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
from ctxembed.terms import App, Position, Term, arity_at_root, depth, match, merge


def psi(s: Strat, t: Term) -> PosCE:
    """Position-indexed form of ``s`` specialized to the subject ``t``.

    Fixed points unfold in an environment, as in ``eval_strategy`` but on a
    path of their own: ``Mu(X, S)`` on ``t`` binds ``X`` to ``S``, the
    binder's environment and depth(t) - 1 iterations left, and each use of
    ``X`` spends one.  The reference semantics is the substituted iterate
    ``mu_iterate(X, S, depth(t))``.
    """
    return _psi(s, t, {})


def _psi(s: Strat, t: Term, env: Env) -> PosCE:
    # tail positions loop instead of recursing, as in the evaluator
    while True:
        if isinstance(s, Conj):
            return _entries(s.entries, t, env)
        if isinstance(s, Choice):
            left = _psi(s.left, t, env)
            if not left.is_fail:
                return left
            s = s.right
        elif isinstance(s, SVar):
            name = s.name
            if name not in env:
                raise ValidationFailure(f"cannot translate open strategy (free {name})")
            s, defined, left = env[name]
            if left == 0:
                return FAIL_PCE
            env = {**defined, name: (s, defined, left - 1)}
        elif isinstance(s, Ins):
            return PosCE((((), s.ctx),))
        elif isinstance(s, Guard):
            if match(s.pattern, t) is None:
                return FAIL_PCE
            s = s.body
        elif isinstance(s, Mu):
            n = depth(t)
            if n == 0:
                return FAIL_PCE
            env = {**env, s.var: (s.body, env, n - 1)}
            s = s.body
        elif isinstance(s, Most):
            ar = arity_at_root(t)
            if ar == 0:
                return FAIL_PCE
            return _entries(tuple((i, s.body) for i in range(1, ar + 1)), t, env)
        elif isinstance(s, IfThen):
            if _psi(s.cond, t, env).is_fail:
                return FAIL_PCE
            s = s.body
        elif isinstance(s, SFail):
            return FAIL_PCE
        else:
            raise TypeError(f"not a strategy: {s!r}")


def _entries(entries, t: Term, env: Env) -> PosCE:
    collected: list[tuple[Position, object]] = []
    succeeded = False
    for i, body in entries:
        if i is None:
            prefix: Position = ()
            subject = t
        else:
            if not isinstance(t, App) or not 1 <= i <= len(t.args):
                continue
            prefix = (i,)
            subject = t.args[i - 1]
        sub = _psi(body, subject, env)
        if sub.is_fail:
            continue
        succeeded = True
        collected.extend((prefix + p, c) for p, c in sub.entries)
    if not succeeded:
        return FAIL_PCE
    # entries applied later wrap the results of earlier ones at the same spot
    composed: dict[Position, object] = {}
    order: list[Position] = []
    for p, c in collected:
        if p in composed:
            composed[p] = merge(c, composed[p])
        else:
            composed[p] = c
            order.append(p)
    return canonicalize(PosCE(tuple((p, composed[p]) for p in order)))
