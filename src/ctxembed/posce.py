"""Position-based insertion strategies.

A position-based strategy is either the failing strategy or a nonempty
ordered list of (position, context) entries.  Applied to a term it embeds
each context at its position, first entry first; entries whose position is
absent are skipped, and the whole application fails when no entry's position
exists in the input.

The canonical entry order is well-founded: descendants come before their
ancestors (the root last) so that an insertion never displaces the target
position of a later entry; parallel positions are ordered lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ctxembed.terms import (
    Context,
    MergePolicy,
    Position,
    PositionError,
    Term,
    merge,
    replace,
    subterm,
)

Entry = tuple[Position, Context]


@dataclass(frozen=True, slots=True)
class PosCE:
    """Position-based strategy; an empty entry tuple is the failing strategy."""

    entries: tuple[Entry, ...] = ()

    @property
    def is_fail(self) -> bool:
        return not self.entries


FAIL_PCE = PosCE(())


def _order_key(p: Position) -> tuple:
    # strict descendants sort before their ancestors, parallel positions
    # lexicographically: append an infinite sentinel and compare
    return p + (float("inf"),)


def canonicalize(e: PosCE) -> PosCE:
    """Sort entries into the canonical well-founded order."""
    return PosCE(tuple(sorted(e.entries, key=lambda en: _order_key(en[0]))))


def apply_pos_ce(e: PosCE, t: Term) -> Optional[Term]:
    """Run ``e`` on ``t``; None is failure.

    Fails when ``e`` is the failing strategy or no entry position occurs in
    ``t``; otherwise applies each entry in order, skipping entries whose
    position has disappeared from the evolving term.
    """
    # until an entry applies the running term is still t, so "some entry
    # applied" is "some entry position occurs in t"
    out, hit = t, False
    for p, tau in e.entries:
        try:
            here = subterm(out, p)
        except PositionError:
            continue
        out, hit = replace(out, p, tau.fill(here)), True
    return out if hit else None


def unify_pos(left: PosCE, right: PosCE, policy: MergePolicy = MergePolicy.NEST) -> PosCE:
    """Join two insertion lists position-wise.

    Contexts at a position both sides insert at are merged with the left
    operand outermost; one-sided entries are kept.  Failure is absorbing.
    The result is canonical.
    """
    if left.is_fail or right.is_fail:
        return FAIL_PCE
    rmap = dict(right.entries)
    out: list[Entry] = []
    for p, tau in left.entries:
        other = rmap.pop(p, None)
        out.append((p, tau) if other is None else (p, merge(tau, other, policy)))
    for p, tau in right.entries:
        if p in rmap:
            out.append((p, tau))
    return canonicalize(PosCE(tuple(out)))


def combine_pos(left: PosCE, right: PosCE, policy: MergePolicy = MergePolicy.NEST) -> PosCE:
    """Like unify_pos, but failure on one side yields the other side."""
    if left.is_fail:
        return canonicalize(right)
    if right.is_fail:
        return canonicalize(left)
    return unify_pos(left, right, policy)


def eq_pos(a: PosCE, b: PosCE) -> bool:
    """Equality after canonicalization."""
    return canonicalize(a) == canonicalize(b)
