"""Context-embedding strategies over first-order terms.

A strategy navigates a subject term without modifying it and embeds one-hole
contexts at the positions it reaches.  The package provides the strategy
language with its executable semantics, a prioritized reduction system that
unifies or combines two strategies into one, and a translation onto
position-based insertion lists used to cross-check the reduction system.
"""

from ctxembed.engine import combine, unify
from ctxembed.posce import PosCE, apply_pos_ce, combine_pos, eq_pos, unify_pos
from ctxembed.strategy import (
    Choice,
    Conj,
    Guard,
    IfThen,
    Ins,
    Most,
    Mu,
    SFail,
    SVar,
    alpha_eq,
    eval_strategy,
    jump,
    td,
    unfold,
    validate,
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
)
from ctxembed.terms import (
    App,
    BOX,
    Context,
    DEFAULT_SIGNATURE,
    HOLE,
    MergePolicy,
    Var,
    match,
    merge,
    positions,
    replace,
    subterm,
)
from ctxembed.translate import psi

__all__ = [
    "App",
    "BOX",
    "Choice",
    "Conj",
    "Context",
    "DEFAULT_SIGNATURE",
    "Guard",
    "HOLE",
    "IfThen",
    "Ins",
    "MergePolicy",
    "Most",
    "Mu",
    "ParseError",
    "PosCE",
    "SFail",
    "SVar",
    "Var",
    "alpha_eq",
    "apply_pos_ce",
    "combine",
    "combine_pos",
    "eq_pos",
    "eval_strategy",
    "jump",
    "match",
    "merge",
    "parse_context",
    "parse_posce",
    "parse_position",
    "parse_strategy",
    "parse_term",
    "positions",
    "print_context",
    "print_posce",
    "print_position",
    "print_strategy",
    "print_term",
    "psi",
    "replace",
    "subterm",
    "td",
    "unfold",
    "unify",
    "unify_pos",
    "validate",
]

__version__ = "0.1.0"
