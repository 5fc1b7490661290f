"""Benchmark: build joint strategies and run them, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload pairs --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md): ``pairs``, ``chains``, ``deep``, ``verify``.
One caller in one process drives a closed loop: each operation starts after
the previous one returns.  The inputs follow from ``--seed`` alone and reach
the program as text.  Every output is checked against the reference
interpreter in ``reference.py`` or against a law it must satisfy.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record,
with machine facts, goes to ``bench/results/``; a traced run also writes its
spans there.  The exit status is 1 when an output is wrong and 2 when the
program cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import inputs as I
import reference as R

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
clock = time.perf_counter

RULES = ("1a", "1b", "2", "3a", "3b", "4a", "4b", "5a", "5b", "6a", "6b", "7a", "7b", "7c", "8a", "8b")
SUITES = ("homomorphism", "theorem1", "theorem2", "unfold", "algebra")
# mean seconds per call of each public function the benchmark wraps in a span
LAYER_TIMES = (
    "syntax.parse", "syntax.print", "strategy.validate", "strategy.simplify",
    "strategy.eval", "engine.unify", "translate.psi", "posce.apply",
) + tuple(f"checks.{s}" for s in SUITES)
COUNTS = (
    ("strategy.evals", "count"), ("strategy.eval_hits", "count"), ("engine.steps", "count"),
) + tuple((f"engine.rule.{r}", "count") for r in RULES) + (
    ("engine.mu_opened", "count"), ("engine.mu_reused", "count"), ("engine.mem_max", "count"),
    ("engine.raw_tree_nodes", "nodes"), ("engine.raw_dag_nodes", "nodes"),
    ("engine.out_tree_nodes", "nodes"), ("engine.out_dag_nodes", "nodes"),
    ("engine.phi_nodes", "nodes"), ("engine.rejected", "count"),
    ("translate.entries", "count"), ("terms.result_nodes", "nodes"),
)

P = None  # the program's modules, bound by load_program()


def load_program() -> None:
    """Import ``ctxembed`` from this checkout's ``src`` and nowhere else."""
    global P
    if not os.path.isfile(os.path.join(SRC, "ctxembed", "__init__.py")):
        print(f"bench: no program at {SRC}/ctxembed", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ctxembed.engine as engine
    import ctxembed.posce as posce
    import ctxembed.strategy as strategy
    import ctxembed.syntax as syntax
    import ctxembed.terms as terms
    import ctxembed.translate as translate

    if not os.path.abspath(syntax.__file__).startswith(SRC + os.sep):
        print(f"bench: ctxembed was imported from {syntax.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    P = argparse.Namespace(
        engine=engine, posce=posce, strategy=strategy, syntax=syntax, terms=terms, translate=translate,
    )


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, their times, and wrong outputs.

    Throughput is taken per unit of work (a pair, a triple, or a whole round)
    and summarized by the median over units, which a rare very costly input
    cannot move far.  Times are kept raw during a round and scaled to
    nominal machine speed when it ends (see ``calibrate``)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.scales: list[float] = []  # per round
        self.busy: list[float] = []  # scaled seconds in operations, per round
        self.units: list[dict] = []  # per unit: kind -> (successes, scaled seconds)
        self.lat: dict[str, list[float]] = {"op": [], "eval": []}  # scaled, successes only
        self._round_units: list[dict] = []
        self._round_lat: dict[str, list[float]] = {"op": [], "eval": []}
        self._unit = self._empty()

    @staticmethod
    def _empty() -> dict:
        return {"op": [0, 0.0], "eval": [0, 0.0]}

    def op(self, seconds: float, ok: bool = True) -> None:
        self._add("op", seconds, ok)

    def ev(self, seconds: float, ok: bool = True) -> None:
        self._add("eval", seconds, ok)

    def count(self, ok: bool) -> None:
        """An operation that is counted but not timed."""
        self.attempted += 1
        self.failed += not ok

    def _add(self, kind: str, seconds: float, ok: bool) -> None:
        self.attempted += 1
        acc = self._unit[kind]
        acc[1] += seconds
        if ok:
            acc[0] += 1
            self._round_lat[kind].append(seconds)
        else:
            self.failed += 1

    def replay(self, buffer: "Buffer") -> None:
        for kind, seconds, ok in buffer.calls:
            self._add(kind, seconds, ok)

    def end_unit(self) -> None:
        if self._unit["op"][1] or self._unit["eval"][1]:
            self._round_units.append(self._unit)
        self._unit = self._empty()

    def end_round(self, scale: float) -> None:
        self.end_unit()
        busy = 0.0
        for unit in self._round_units:
            self.units.append({kind: (n, t * scale) for kind, (n, t) in unit.items()})
            busy += (unit["op"][1] + unit["eval"][1]) * scale
        for kind, lat in self._round_lat.items():
            self.lat[kind].extend(x * scale for x in lat)
        self.scales.append(scale)
        self.busy.append(busy)
        self._round_units = []
        self._round_lat = {"op": [], "eval": []}

    def per_second(self, kind: str) -> float:
        """Median over units of successful operations per scaled second."""
        return statistics.median(u[kind][0] / u[kind][1] for u in self.units if u[kind][1] > 0)

    def overall_per_second(self, kind: str) -> float:
        return sum(u[kind][0] for u in self.units) / sum(u[kind][1] for u in self.units)


class Buffer:
    """Operations held back until it is known whether they count."""

    def __init__(self):
        self.calls: list[tuple[str, float, bool]] = []
        self.wrong: list[str] = []

    def op(self, seconds: float, ok: bool = True) -> None:
        self.calls.append(("op", seconds, ok))

    def ev(self, seconds: float, ok: bool = True) -> None:
        self.calls.append(("eval", seconds, ok))


class Tracer:
    """Spans kept in memory: name, start, end, parent span, operation id."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0

    def call(self, name: str, fn, *args, **kw):
        i = len(self.spans)
        self.spans.append([name, clock(), None, self.stack[-1] if self.stack else None, self.op_id])
        self.stack.append(i)
        try:
            return fn(*args, **kw)
        finally:
            self.stack.pop()
            self.spans[i][2] = clock()

    def new_op(self) -> None:
        self.op_id += 1

    def layer_means(self) -> dict[str, float]:
        total: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        return {name: total[name] / calls[name] for name in calls}


class Counts:
    """Deterministic counts, gathered on the first traced round only."""

    def __init__(self):
        self.c: Counter = Counter()
        self.means: dict[str, list[float]] = {}
        self.mem_max = 0

    def add(self, name: str, n: float = 1) -> None:
        self.c[name] += n

    def sample(self, name: str, value: float) -> None:
        self.means.setdefault(name, []).append(value)

    def engine_trace(self, records: list) -> None:
        self.add("engine.steps", len(records))
        for e in records:
            self.add(f"engine.rule.{e['rule']}")
            if e["rule"] in ("8a", "8b"):
                self.add("engine.mu_opened" if e["children"] else "engine.mu_reused")
            self.mem_max = max(self.mem_max, e["mem"])

    def metrics(self) -> dict[str, float]:
        out = {name: float(self.c[name]) for name, _ in COUNTS}
        for name, values in self.means.items():
            out[name] = statistics.fmean(values)
        out["engine.mem_max"] = float(self.mem_max)
        return out


def tree_and_dag(s) -> tuple[int, int]:
    """Size of ``s`` printed as a tree, and its number of distinct node objects."""
    children = P.strategy.children
    size: dict[int, int] = {}
    work = [(s, False)]
    while work:
        node, done = work.pop()
        if done:
            size[id(node)] = 1 + sum(size[id(c)] for c in children(node))
        elif id(node) not in size:
            size[id(node)] = 0
            work.append((node, True))
            work.extend((c, False) for c in children(node) if id(c) not in size)
    return size[id(s)], len(size)


def term_nodes(t) -> int:
    return 1 + sum(term_nodes(c) for c in getattr(t, "args", ()))


def same(got, want) -> bool:
    """A program term equals a reference term (None is failure on both sides)."""
    if got is None or want is None:
        return got is None and want is None
    return P.syntax.print_term(got) == R.show_term(want)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def build(op, left: str, right: str, policy, tracer=None, counts=None):
    """Parse two strategy texts, unify or combine them, print the result.

    Returns (strategy, text, seconds).  Traced, the same work is split into
    its layers: parse, the admissibility checks, the reduction (unsimplified,
    with the engine's step records), simplification and printing.
    """
    syntax, engine, strategy = P.syntax, P.engine, P.strategy
    if tracer is None:
        t0 = clock()
        s = syntax.parse_strategy(left)
        r = syntax.parse_strategy(right)
        out = op(s, r, policy=policy)
        text = syntax.print_strategy(out)
        return out, text, clock() - t0
    call = tracer.call
    records: list = []
    t0 = clock()
    s = call("syntax.parse", syntax.parse_strategy, left)
    r = call("syntax.parse", syntax.parse_strategy, right)
    call("strategy.validate", strategy.validate, s)
    call("strategy.validate", strategy.validate, r)
    try:
        raw = call("engine.unify", op, s, r, policy=policy, simplify_output=False, trace=records)
    except strategy.ValidationFailure:
        if counts is not None:
            counts.add("engine.rejected")
        raise
    out = call("strategy.simplify", strategy.simplify, raw)
    text = call("syntax.print", syntax.print_strategy, out)
    seconds = clock() - t0
    if counts is not None:
        counts.engine_trace(records)
        raw_tree, raw_dag = tree_and_dag(raw)
        out_tree, out_dag = tree_and_dag(out)
        counts.sample("engine.raw_tree_nodes", raw_tree)
        counts.sample("engine.raw_dag_nodes", raw_dag)
        counts.sample("engine.out_tree_nodes", out_tree)
        counts.sample("engine.out_dag_nodes", out_dag)
        counts.sample("engine.phi_nodes", len(engine.phi(s)))
        counts.sample("engine.phi_nodes", len(engine.phi(r)))
    return out, text, seconds


def evaluate(s, t, tracer=None, counts=None):
    """eval_strategy(s, t) and its latency."""
    if tracer is None:
        t0 = clock()
        got = P.strategy.eval_strategy(s, t)
        return got, clock() - t0
    t0 = clock()
    got = tracer.call("strategy.eval", P.strategy.eval_strategy, s, t)
    seconds = clock() - t0
    if counts is not None:
        counts.add("strategy.evals")
        if got is not None:
            counts.add("strategy.eval_hits")
            counts.sample("terms.result_nodes", term_nodes(got))
    return got, seconds


def run_outputs(joint, ref, terms, pterms, tally, tracer, counts, where):
    """Evaluate a joint strategy on every term and compare with the
    reference's evaluation of ``ref``, its printed form read back.

    Returns the program's results, for the laws that compare outputs."""
    results = []
    for t, pt in zip(terms, pterms):
        if tracer is not None:
            tracer.new_op()
        got, seconds = evaluate(joint, pt, tracer, counts)
        tally.ev(seconds)
        want = R.evaluate(ref, t)
        if not same(got, want):
            tally.wrong.append(f"{where}: eval on {R.show_term(t)} gave {show(got)}, reference {R.show_term(want) if want else 'FAIL'}")
        results.append(got)
    return results


def show(t) -> str:
    return "FAIL" if t is None else P.syntax.print_term(t)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Pairs:
    """Independent pairs; unify and combine under both merge policies, then
    run each joint strategy on every ground term of depth <= 2."""

    # pairs per round by binder stratum (0, 1, 2, 3, 4 or more binders)
    QUOTA = (2, 4, 4, 2, 1)
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.next_index = 0
        self.terms = I.ground_terms(2)
        self.pterms = [P.syntax.parse_term(R.show_term(t)) for t in self.terms]
        self.ops = ((P.engine.unify, R.unify_positions), (P.engine.combine, R.combine_positions))
        self.policies = tuple(P.terms.MergePolicy)

    def prepare(self, rnd: int, tracer=None):
        out, left = [], list(self.QUOTA)
        while any(left):
            k = self.next_index
            self.next_index += 1
            s = I.class_strategy(self.seed, "pairs", 2 * k)
            r = I.class_strategy(self.seed, "pairs", 2 * k + 1)
            stratum = I.binder_stratum((s, r))
            if left[stratum]:
                left[stratum] -= 1
                out.append((s, r, R.show_strategy(s), R.show_strategy(r)))
        return out

    def run(self, rnd, inputs, tally, tracer=None, counts=None):
        for s, r, stext, rtext in inputs:
            images = [(R.psi(s, t), R.psi(r, t)) for t in self.terms]
            for op, ref_op in self.ops:
                for policy in self.policies:
                    where = f"{op.__name__}/{policy.value} of {stext!r} and {rtext!r}"
                    if tracer is not None:
                        tracer.new_op()
                    joint, text, seconds = build(op, stext, rtext, policy, tracer, counts)
                    tally.op(seconds)
                    ref = R.read_strategy(text)
                    run_outputs(joint, ref, self.terms, self.pterms, tally, tracer, counts, where)
                    # Theorems 1 and 2: ψ of the joint strategy is the
                    # position-list unify/combine of the inputs' images
                    for t, (ps, pr) in zip(self.terms, images):
                        if R.psi(ref, t) != ref_op(ps, pr, policy.value):
                            tally.wrong.append(f"{where}: ψ disagrees with the theorem on {R.show_term(t)}")
            tally.end_unit()


class Chains:
    """Three-way joint strategies nested both ways, with unify and combine,
    run on every ground term of depth <= 2."""

    # triples per round by binder stratum (0, 1, 2, 3, 4 or more binders)
    QUOTA = (1, 2, 3, 2, 1)
    min_rounds = 1
    # Depth 3, not 4: at depth 4 one triple's cost varies with a coefficient
    # of variation of 1.4 and single triples cost 15 times the median, so a
    # run holds too few triples for a steady mean; at depth 3 it is 0.7.
    DEPTH = 3
    # A triple whose chain the engine rejects today: unify(s1, s2) is not
    # linear, and unify(unify(s1, s2), s3) fails the engine's own gate.
    FIXED = (
        "mu X. mu W. [@1.X, @2.W]",
        "mu X. most(ins <[]> + [@2.X])",
        "a ; ((mu X. if ins <[]> then [@1.X]) + (if fail then ins <[]>))",
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.terms = I.ground_terms(2)
        self.pterms = [P.syntax.parse_term(R.show_term(t)) for t in self.terms]
        self.nest = P.terms.MergePolicy.NEST
        self.next_index = 0
        self.excluded = 0

    def prepare(self, rnd: int, tracer=None):
        return None  # triples are drawn in run(), past any that are left out

    def run(self, rnd, inputs, tally, tracer=None, counts=None):
        left = list(self.QUOTA)
        while any(left):
            k = self.next_index
            self.next_index += 1
            triple = [I.class_strategy(self.seed, "chains", 3 * k + j, self.DEPTH) for j in range(3)]
            stratum = I.binder_stratum(triple)
            if not left[stratum]:
                continue
            mine = Buffer()
            if self.triple([R.show_strategy(s) for s in triple], mine, tracer, counts):
                tally.replay(mine)
                tally.end_unit()
                left[stratum] -= 1
            else:
                self.excluded += 1
            tally.wrong += mine.wrong
        self.fixed_slice(tally, tracer, counts)

    def triple(self, texts, tally, tracer, counts) -> bool:
        """Build and run both nestings for both operations; False when the
        engine rejects an intermediate result (the triple is left out)."""
        s1, s2, s3 = texts
        ValidationFailure = P.strategy.ValidationFailure
        for op in (P.engine.unify, P.engine.combine):
            built = {}
            for key, (left, right) in (("12", (s1, s2)), ("23", (s2, s3))):
                if tracer is not None:
                    tracer.new_op()
                _, built[key], seconds = build(op, left, right, self.nest, tracer, counts)
                tally.op(seconds)
            outs = []
            for left, right in ((built["12"], s3), (s1, built["23"])):
                if tracer is not None:
                    tracer.new_op()
                try:
                    joint, text, seconds = build(op, left, right, self.nest, tracer, counts)
                except ValidationFailure:
                    return False
                tally.op(seconds)
                outs.append((joint, R.read_strategy(text)))
            where = f"{op.__name__} chain of {s1!r}, {s2!r}, {s3!r}"
            lhs = run_outputs(*outs[0], self.terms, self.pterms, tally, tracer, counts, where + " (left nesting)")
            rhs = run_outputs(*outs[1], self.terms, self.pterms, tally, tracer, counts, where + " (right nesting)")
            for t, a, b in zip(self.terms, lhs, rhs):
                if show(a) != show(b):
                    tally.wrong.append(f"{where}: nestings differ on {R.show_term(t)}: {show(a)} / {show(b)}")
        return True

    def fixed_slice(self, tally, tracer, counts) -> None:
        """The same two builds every round, counted but not timed."""
        s1, s2, s3 = self.FIXED
        unify = P.engine.unify
        if tracer is not None:
            tracer.new_op()
        _, u12, _ = build(unify, s1, s2, self.nest, tracer, counts)
        tally.count(ok=True)
        if tracer is not None:
            tracer.new_op()
        try:
            joint, text, _ = build(unify, u12, s3, self.nest, tracer, counts)
        except P.strategy.ValidationFailure:
            tally.count(ok=False)
            return
        tally.count(ok=True)
        ref = R.read_strategy(text)
        for t, pt in zip(self.terms, self.pterms):
            if not same(P.strategy.eval_strategy(joint, pt), R.evaluate(ref, t)):
                tally.wrong.append(f"fixed chain: eval on {R.show_term(t)} disagrees with the reference")


class Deep:
    """Top-down traversals and generated fixed points on terms of depth 4 to
    24, evaluated and translated (psi, then apply_pos_ce)."""

    per_round = 40
    min_rounds = 1
    # A unary spine deeper than the evaluator's and ψ's recursion reach today.
    SPINE_STRATEGY = "mu X. a ; ins <f([])> + @1.X"
    SPINE_DEPTH = 500

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, rnd: int, tracer=None):
        parse_s, parse_t = P.syntax.parse_strategy, P.syntax.parse_term

        def parse(fn, text):
            return fn(text) if tracer is None else tracer.call("syntax.parse", fn, text)

        out = []
        for k in range(rnd * self.per_round, (rnd + 1) * self.per_round):
            if k % 2 == 0:
                s = I.top_down(I.class_strategy(self.seed, "deep-td", k))
            else:
                s = I.fixed_point(self.seed, "deep-mu", k)
            r = I.rng(self.seed, "deep-term", k)
            t = I.spine_term(r, r.randint(4, 24))
            out.append((s, t, parse(parse_s, R.show_strategy(s)), parse(parse_t, R.show_term(t))))
        # The spine slice does not depend on the seed; its depth varies by
        # round so that no round repeats an earlier input.  Its answer is
        # failure: depth(t) iterations run out one level above the leaf.
        d = self.SPINE_DEPTH + rnd % 50
        spine = parse(parse_t, "f(" * d + "a" + ")" * d)
        out.append((self.SPINE_STRATEGY, None, parse(parse_s, self.SPINE_STRATEGY), spine))
        return out

    def run(self, rnd, inputs, tally, tracer=None, counts=None):
        psi, apply_pos_ce = P.translate.psi, P.posce.apply_pos_ce
        for s, t, ps, pt in inputs:
            spine = t is None  # counted, not timed; see prepare()
            if spine:
                want, shown = None, f"{s!r} on the spine"
            else:
                want, shown = R.evaluate(s, t), f"{R.show_strategy(s)!r} on {R.show_term(t)}"
            if tracer is not None:
                tracer.new_op()
            try:
                got, seconds = evaluate(ps, pt, tracer, counts)
            except RecursionError:
                tally.count(ok=False)
                if not spine:
                    tally.wrong.append(f"deep: eval of {shown} raised RecursionError")
            else:
                tally.count(ok=True) if spine else tally.ev(seconds)
                if not same(got, want):
                    tally.wrong.append(f"deep: eval of {shown}: {show(got)}")
            if tracer is not None:
                tracer.new_op()
            t0 = clock()
            try:
                if tracer is None:
                    image = psi(ps, pt)
                    via = apply_pos_ce(image, pt)
                else:
                    image = tracer.call("translate.psi", psi, ps, pt)
                    via = tracer.call("posce.apply", apply_pos_ce, image, pt)
            except RecursionError:
                tally.count(ok=False)
                if not spine:
                    tally.wrong.append(f"deep: psi of {shown} raised RecursionError")
                continue
            seconds = clock() - t0
            tally.count(ok=True) if spine else tally.op(seconds)
            if counts is not None:
                counts.sample("translate.entries", len(image.entries))
            if not same(via, want):
                tally.wrong.append(f"deep: apply_pos_ce(psi) of {shown}: {show(via)}")


class Verify:
    """``ctxembed verify`` for five suites under both merge policies, each
    suite in its own process, at fixed seeds.

    One operation is a pass over the whole mix, whose wall time ROADMAP
    takes as end to end; each suite case is one evaluation, timed as the
    pass's mean time per case.  Single processes are too few per run for
    their own percentiles."""

    MIX = (("homomorphism", 1500), ("theorem1", 200), ("theorem2", 200), ("unfold", 30), ("algebra", 10))
    MERGES = (("nest", 0), ("leftproject", 1))  # (policy, suite seed)
    min_rounds = 2  # a repeated (suite, seed, cases) must print the same bytes
    scales_itself = True

    def __init__(self, seed: int):
        self.reports: dict[tuple, bytes] = {}

    def prepare(self, rnd: int, tracer=None):
        return [
            (suite, cases, merge, seed)
            for suite, cases in self.MIX
            for merge, seed in self.MERGES
        ]

    def run(self, rnd, inputs, tally, tracer=None, counts=None):
        total, cases_run, all_ok = 0.0, 0, True
        for suite, cases, merge, seed in inputs:
            argv = ["verify", "--suite", suite, "--cases", str(cases), "--seed", str(seed), "--merge", merge]
            # a pass takes seconds, so each process is scaled by the
            # calibrations just around it
            before = calibrate()
            if tracer is not None:
                tracer.new_op()
                code, out, seconds = tracer.call(f"checks.{suite}", run_cli, argv)
            else:
                code, out, seconds = run_cli(argv)
            total += seconds * NOMINAL_CALIBRATION_S / ((before + calibrate()) / 2)
            cases_run += cases
            try:
                ok = code == 0 and json.loads(out)["failures"] == []
            except (ValueError, KeyError):
                ok = False
            all_ok &= ok
            key = (suite, seed, cases, merge)
            if not ok:
                tally.wrong.append(f"verify {' '.join(argv)}: exit {code}, {out[:200]!r}")
            elif self.reports.setdefault(key, out) != out:
                tally.wrong.append(f"verify {' '.join(argv)}: report differs from the earlier run")
        tally.op(total, all_ok)
        for _ in range(cases_run):
            tally.ev(total / cases_run, all_ok)


def run_cli(argv: list[str]) -> tuple[int, bytes, float]:
    """Run ``python3 -m ctxembed.cli`` in a child process; returns its exit
    code, stdout and wall time, and records its peak resident memory."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = clock()
    child = subprocess.Popen(
        [sys.executable, "-m", "ctxembed.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT
    )
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    seconds = clock() - t0
    run_cli.peak_kb = max(getattr(run_cli, "peak_kb", 0), usage.ru_maxrss)
    return child.returncode, out, seconds


WORKLOADS = {"pairs": Pairs, "chains": Chains, "deep": Deep, "verify": Verify}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


_CALIBRATION_STRATEGY = R.read_strategy("mu X. (g(?x, ?x) ; ins <list([], i)>) + @1.X")
_CALIBRATION_TERMS = I.ground_terms(2)


def _calibration_pass() -> None:
    for t in _CALIBRATION_TERMS:
        R.evaluate(_CALIBRATION_STRATEGY, t)
        R.psi(_CALIBRATION_STRATEGY, t)


def calibrate() -> float:
    """Median time of five passes of a fixed piece of the reference
    interpreter's work, about 1.2 ms each.

    The machines this runs on are shared, and their speed drifts by tens of
    percent over seconds.  Each round's times are multiplied by
    NOMINAL_CALIBRATION_S / (this figure, averaged over the calibrations
    just before and just after the round), which expresses them at one
    nominal speed: a machine on which a pass takes exactly 1.15 ms, the
    median on the 2-core machine the reference figures come from.  The
    pass is tree-walking interpretation like the program's own work, so
    its speed follows the program's more closely than a plain loop's."""
    times = []
    for _ in range(5):
        t0 = clock()
        _calibration_pass()
        times.append(clock() - t0)
    return statistics.median(times)


NOMINAL_CALIBRATION_S = 0.00115


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from starting a process to its first operation being ready:
    interpreter start, importing the program and preparing the first round.
    For ``verify`` it is a ``ctxembed verify`` of zero cases.  Scaled to
    nominal speed like every other time."""
    if workload == "verify":
        argv = ["verify", "--suite", "homomorphism", "--cases", "0"]
        times = []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            code, _, seconds = run_cli(argv)
            if code != 0:
                raise SystemExit("bench: ctxembed verify --cases 0 failed")
            times.append(seconds * NOMINAL_CALIBRATION_S / ((before + calibrate()) / 2))
        return times
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = clock()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        seconds = clock() - t0
        times.append(seconds * NOMINAL_CALIBRATION_S / ((before + calibrate()) / 2))
    return times


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def machine() -> dict:
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    load_program()
    if args.setup_only:
        WORKLOADS[args.workload](args.seed).prepare(0)
        return 0

    setup = setup_seconds(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    tally, tracer, counts = Tally(), Tracer(), Counts()
    rss = None
    start, rnd = clock(), 0
    cal = calibrate()
    while True:
        traced = bool(args.trace) and rnd % 2 == 1
        inputs = workload.prepare(rnd, tracer if traced else None)
        workload.run(rnd, inputs, tally, tracer if traced else None, counts if rnd == 1 and traced else None)
        after = calibrate()
        tally.end_round(1.0 if getattr(workload, "scales_itself", False) else NOMINAL_CALIBRATION_S / ((cal + after) / 2))
        cal = after
        if rss is None:
            rss = peak_rss_mb()
        rnd += 1
        if clock() - start >= args.seconds and rnd >= max(workload.min_rounds, 2 if args.trace else 1):
            break
    if args.workload == "verify":
        rss = run_cli.peak_kb / 1024

    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "op_per_s": (tally.per_second("op"), "1/s"),
        "op_p50_ms": (statistics.median(tally.lat["op"]) * 1e3, "ms"),
        "eval_per_s": (tally.per_second("eval"), "1/s"),
        "eval_p50_ms": (statistics.median(tally.lat["eval"]) * 1e3, "ms"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "rounds": rnd,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "left_out": getattr(workload, "excluded", 0),
        "setup_runs_s": setup,
        "round_scales": tally.scales,
        "units": len(tally.units),
        "overall_per_s": {kind: tally.overall_per_second(kind) for kind in ("op", "eval")},
        "tails": {
            kind: {
                "samples": len(tally.lat[kind]),
                "p90_ms": percentile(tally.lat[kind], 0.9) * 1e3,
                "p99_ms": percentile(tally.lat[kind], 0.99) * 1e3,
            }
            for kind in ("op", "eval")
        },
        "wrong": tally.wrong[:20],
    }
    if args.trace:
        means = tracer.layer_means()
        metrics = {f"{name}_s": (means.get(name, 0.0), "s") for name in LAYER_TIMES}
        units = dict(COUNTS)
        metrics.update({name: (value, units[name]) for name, value in counts.metrics().items()})
        overhead = statistics.fmean(tally.busy[1::2]) / statistics.fmean(tally.busy[0::2]) - 1
        metrics["trace.overhead_pct"] = (overhead * 100, "%")
    else:
        metrics = end_to_end
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    for line in tally.wrong[:20]:
        print("WRONG:", line, file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0 if not tally.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
