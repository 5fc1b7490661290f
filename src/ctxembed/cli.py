"""Command-line front end.

Commands: apply, unify, combine, psi, check, unfold, verify.  Exit codes:
0 success, 1 strategy failure, law violation or a stdout closed before the
output was written (nothing more is written), 2 usage or parse error, an
input file that cannot be read or is not UTF-8 text, a strategy the command
cannot take (such as an open one), input nested too deeply for the command,
a unification that passes the engine's size or step cap, or an unfolding
count above that size cap.  A parse error writes a line/column diagnostic
to stderr and nothing to stdout; the other exit-2 cases write a one-line
diagnostic to stderr and nothing to stdout.
The --term/--strategy/--left/--right values name a file when one exists at
that path and are parsed as inline text otherwise, and a parse error of
inline text says that no file of that name exists; --signature names a file
only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from functools import partial
from typing import Callable, Optional

from ctxembed import engine
from ctxembed.checks import (
    GenConfig,
    check_algebra,
    check_homomorphism,
    check_theorem1,
    check_theorem2,
    suite_unfold,
)
from ctxembed.engine import EngineError, combine, unify
from ctxembed.strategy import (
    Guard,
    Ins,
    Strat,
    ValidationFailure,
    bound_vars,
    eval_strategy,
    nodes,
    unfold,
    validate,
)
from ctxembed.syntax import (
    ParseError,
    parse_strategy,
    parse_term,
    print_posce,
    print_strategy,
    print_term,
    to_json,
)
from ctxembed.terms import (
    DEFAULT_SIGNATURE,
    App,
    CtxTerm,
    MergePolicy,
    Signature,
    SignatureError,
    check_signature,
    infer_signature,
)
from ctxembed.translate import psi


_SUITES: dict[str, Callable[[GenConfig], dict]] = {
    "homomorphism": check_homomorphism,
    "theorem1": check_theorem1,
    "theorem2": check_theorem2,
    "unfold": suite_unfold,
    "algebra": check_algebra,
}


class _Diag(Exception):
    """Input problem; the message goes to stderr with exit status 2."""


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise _Diag(f"{path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise _Diag(f"{path}: not UTF-8 text (byte {err.start})") from err


def _located(source: str, text: str, err: ParseError) -> str:
    off = err.offset if err.offset is not None else 0
    off = max(0, min(off, len(text)))
    line = text.count("\n", 0, off) + 1
    col = off - text.rfind("\n", 0, off)
    return f"{source}:{line}:{col}: {err.args[0]}"


def _parse(parser: Callable, value: str, kind: str):
    """The file at ``value`` if there is one, else ``value`` as inline text,
    read by ``parser``."""
    if os.path.isfile(value):
        text, source, note = _read(value), value, ""
    else:
        text, source, note = value, f"<{kind}>", " (no file of that name; read as text)"
    try:
        return parser(text)
    except ParseError as err:
        raise _Diag(_located(source, text, err) + note) from err


def _read_signature(path: str) -> Signature:
    sig: Signature = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        name, sep, arity = line.partition("/")
        try:
            symbol = parse_term(name) is App(name)  # a constant as terms read it
        except ParseError:
            symbol = False
        if not sep or not symbol or not arity.isdecimal():
            raise _Diag(f"{path}:{lineno}: expected name/arity, got {line!r}")
        if name in sig and sig[name] != int(arity):
            raise _Diag(f"{path}:{lineno}: symbol {name!r} declared twice")
        sig[name] = int(arity)
    if not sig:
        raise _Diag(f"{path}: empty signature")
    return sig


def _embedded_terms(s: Strat) -> list[CtxTerm]:
    """Guard patterns and insertion context bodies, for signature inference."""
    out: list[CtxTerm] = []
    for node in nodes(s):
        if isinstance(node, Guard):
            out.append(node.pattern)
        elif isinstance(node, Ins):
            out.append(node.ctx.body)
    return out


def _signature_for(args: argparse.Namespace, mentioned: list[CtxTerm]) -> Signature:
    try:
        if args.signature:
            sig = _read_signature(args.signature)
            for t in mentioned:
                check_signature(t, sig)
            return sig
        sig = infer_signature(mentioned)
    except SignatureError as err:
        raise _Diag(str(err)) from err
    return sig if sig else dict(DEFAULT_SIGNATURE)


def _parse_map(spec: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in spec.split(","):
        name, sep, value = part.strip().partition("=")
        if not sep or not name or not value.isdecimal():
            raise _Diag(f"--map: expected NAME=COUNT, got {part.strip()!r}")
        if name in counts:
            raise _Diag(f"--map: binder {name} given twice")
        counts[name] = int(value)
    return counts


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_apply(args: argparse.Namespace) -> int:
    t = _parse(parse_term, args.term, "term")
    s = _parse(parse_strategy, args.strategy, "strategy")
    _signature_for(args, [t] + _embedded_terms(s))
    result = eval_strategy(s, t)
    if result is None:
        print("FAIL")
        return 1
    print(print_term(result))
    return 0


def _unify_like(args: argparse.Namespace, op: Callable) -> int:
    s = _parse(parse_strategy, args.left, "left")
    r = _parse(parse_strategy, args.right, "right")
    sig = _signature_for(args, _embedded_terms(s) + _embedded_terms(r))
    trace: Optional[list] = [] if args.trace else None
    out = op(s, r, policy=MergePolicy(args.merge), signature=sig, trace=trace)
    if args.json:
        doc = {"text": print_strategy(out), "strategy": to_json(out)}
        if trace is not None:
            doc["trace"] = trace
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    if trace is not None:
        for e in trace:
            print(
                f"{e['rule']:>3} at {e['path']}: lambda={e['lambda']} "
                f"dl={e['dl']} dr={e['dr']} mem={e['mem']}",
                file=sys.stderr,
            )
    print(print_strategy(out))
    return 0


def _cmd_psi(args: argparse.Namespace) -> int:
    t = _parse(parse_term, args.term, "term")
    s = _parse(parse_strategy, args.strategy, "strategy")
    _signature_for(args, [t] + _embedded_terms(s))
    print(print_posce(psi(s, t)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    s = _parse(parse_strategy, args.strategy, "strategy")
    v = validate(s)
    for f in fields(v):
        print(f"{f.name.replace('_', '-')}: {'ok' if getattr(v, f.name) else 'violated'}")
    return 0 if v.ok else 1


def _cmd_unfold(args: argparse.Namespace) -> int:
    s = _parse(parse_strategy, args.strategy, "strategy")
    binders = bound_vars(s)
    if args.map is not None:
        counts = _parse_map(args.map)
        missing = sorted(binders - counts.keys())
        if missing:
            raise _Diag(f"--map: no count for binder(s) {', '.join(missing)}")
        unknown = sorted(counts.keys() - binders)
        if unknown:
            raise _Diag(f"--map: no binder {', '.join(unknown)} in the strategy")
    else:
        counts = {name: args.n for name in binders}
    if any(n < 0 for n in counts.values()):
        raise _Diag("unfolding counts must be non-negative")
    # an iterate is built one substitution per unit of its count
    cap = engine._PHI_CAP
    if any(n > cap for n in counts.values()):
        raise _Diag(f"unfolding counts must be at most {cap}")
    print(print_strategy(unfold(s, counts)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    sig = _read_signature(args.signature) if args.signature else None
    try:
        cfg = GenConfig(
            signature=sig if sig is not None else dict(DEFAULT_SIGNATURE),
            max_term_depth=args.depth,
            seed=args.seed,
            cases=args.cases,
            merge_mode=MergePolicy(args.merge),
        )
    except (SignatureError, ValueError) as err:
        raise _Diag(str(err)) from err
    started = time.perf_counter()
    report = _SUITES[args.suite](cfg)
    elapsed = time.perf_counter() - started
    # timing stays off the report so equal seeds give identical bytes
    print(json.dumps(report, sort_keys=True, indent=2))
    print(f"{args.suite}: {report['cases']} cases in {elapsed:.2f}s", file=sys.stderr)
    return 1 if report["failures"] else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ctxembed",
        description="Context-embedding strategies: evaluate, unify, translate, verify.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_signature(p: argparse.ArgumentParser) -> None:
        p.add_argument("--signature", metavar="FILE", default=None,
                       help="arity declarations, one name/arity per line")

    def add_merge(p: argparse.ArgumentParser) -> None:
        p.add_argument("--merge", choices=("nest", "leftproject"), default="nest")

    p = sub.add_parser("apply", help="run a strategy on a term")
    p.add_argument("--term", required=True)
    p.add_argument("--strategy", required=True)
    add_signature(p)
    p.set_defaults(run=_cmd_apply)

    for name, op, doc in (("unify", unify, "strategy doing the work of both inputs"),
                          ("combine", combine, "unification with fallback to either input")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)
        p.add_argument("--json", action="store_true")
        p.add_argument("--trace", action="store_true")
        add_merge(p)
        add_signature(p)
        p.set_defaults(run=partial(_unify_like, op=op))

    p = sub.add_parser("psi", help="translate a strategy at a term")
    p.add_argument("--term", required=True)
    p.add_argument("--strategy", required=True)
    add_signature(p)
    p.set_defaults(run=_cmd_psi)

    p = sub.add_parser("check", help="report engine admissibility properties")
    p.add_argument("--strategy", required=True)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("unfold", help="replace binders by finite iterates")
    p.add_argument("--strategy", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--map", metavar="X=3,Y=2")
    p.set_defaults(run=_cmd_unfold)

    p = sub.add_parser("verify", help="run a seeded law suite, print the report")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=3, help="maximum generated term depth")
    add_merge(p)
    add_signature(p)
    p.set_defaults(run=_cmd_verify)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: let that write
        # go nowhere instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (_Diag, ValidationFailure) as err:
        print(err, file=sys.stderr)
        return 2
    except RecursionError:
        print(f"{args.command}: input nested too deeply", file=sys.stderr)
        return 2
    except EngineError as err:
        print(f"{args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
