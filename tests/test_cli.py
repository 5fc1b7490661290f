"""Command-line behavior: outputs, exit codes, diagnostics, reproducibility.

Everything drives cli.main directly with argv lists; stdout and stderr are
captured through capsys.  Exit code 2 paths must leave stdout empty.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctxembed import cli, engine
from ctxembed.syntax import parse_strategy, parse_term, print_strategy
from ctxembed.engine import combine, unify
from ctxembed.terms import App


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_insertion_at_root(capsys):
    code, out, _ = run(
        capsys,
        "apply",
        "--term", "var(x, reg(omega, one))",
        "--strategy", "ins <list([], i)>",
    )
    assert code == 0
    assert parse_term(out.strip()) == parse_term("list(var(x, reg(omega, one)), i)")


def test_apply_failure_prints_fail_and_exits_1(capsys):
    code, out, _ = run(capsys, "apply", "--term", "a", "--strategy", "fail")
    assert code == 1
    assert out == "FAIL\n"


def test_apply_reads_files(tmp_path, capsys):
    term = tmp_path / "t.term"
    term.write_text("g(a, b)")
    code, out, _ = run(capsys, "apply", "--term", str(term), "--strategy", "ins <f([])>")
    assert code == 0
    assert parse_term(out.strip()) == App("f", (parse_term("g(a,b)"),))


def test_apply_parse_error_is_located_and_silent_on_stdout(capsys):
    code, out, err = run(capsys, "apply", "--term", "g(a", "--strategy", "fail")
    assert code == 2
    assert out == ""
    assert err.startswith("<term>:1:")


def test_parse_error_in_file_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.ces"
    bad.write_text("mu X.\n@1.)")
    code, out, err = run(capsys, "apply", "--term", "a", "--strategy", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{bad}:2:")


def test_parse_error_in_a_multi_line_file_gives_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.ces"
    for text, where in [
        ("mu X.\n  @1.)", "2:6: expected a strategy, got ')'"),
        ("mu X. a ; ins <[]>\n  + @1.X\n  + $", "3:5: unexpected character '$'"),
        ("fail\n\n + é", "3:4: unexpected character 'é'"),
    ]:
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "apply", "--term", "a", "--strategy", str(bad))
        assert (code, out, err) == (2, "", f"{bad}:{where}\n")
    code, out, err = run(capsys, "apply", "--term", "g(a,\n b", "--strategy", "fail")
    assert (code, out, err) == (2, "", "<term>:2:3: expected ')', got 'end of input'\n")


def test_inconsistent_arities_are_rejected(capsys):
    code, out, err = run(
        capsys, "apply", "--term", "g(a)", "--strategy", "g(?x, ?y) ; ins <[]>"
    )
    assert code == 2
    assert out == ""
    assert "arities" in err


def test_signature_file_constrains_inputs(tmp_path, capsys):
    sigfile = tmp_path / "sig"
    sigfile.write_text("a/0\nf/1\n")
    code, out, _ = run(
        capsys, "apply", "--term", "f(a)", "--strategy", "ins <f([])>",
        "--signature", str(sigfile),
    )
    assert code == 0 and out.strip() == "f(f(a))"
    code, out, err = run(
        capsys, "apply", "--term", "g(a, a)", "--strategy", "ins <f([])>",
        "--signature", str(sigfile),
    )
    assert code == 2
    assert out == "" and "not in the signature" in err


@pytest.mark.parametrize("line, accepted", [
    ("nonsense", False),
    # a signature names exactly the constants a term can hold
    ("fA/1", True),
    ("eps/0", False),
    ("most/3", False),
    ("X/0", False),
], ids=["nonsense", "fA", "eps", "most", "X"])
def test_malformed_signature_file(tmp_path, capsys, line, accepted):
    sigfile = tmp_path / "sig"
    sigfile.write_text(f"a/0\n{line}\n")
    code, out, err = run(capsys, "apply", "--term", "a", "--strategy", "ins <fA([])>",
                         "--signature", str(sigfile))
    if accepted:
        assert (code, out, err) == (0, "fA(a)\n", "")
    else:
        assert code == 2
        assert out == "" and err == f"{sigfile}:2: expected name/arity, got {line!r}\n"


@pytest.mark.parametrize("command", [
    ["apply", "--term", "a", "--strategy", "fail"],
    ["verify", "--suite", "algebra", "--cases", "1"],
], ids=["apply", "verify"])
def test_a_missing_signature_file_is_not_read_as_inline_text(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command, "--signature", "missing.sig")
    assert (code, out, err) == (2, "", "missing.sig: No such file or directory\n")


@pytest.mark.parametrize("command", [
    ["apply", "--term", "a", "--strategy", "fail"],
    ["verify", "--suite", "algebra", "--cases", "1"],
], ids=["apply", "verify"])
def test_signature_arity_must_be_decimal_digits(tmp_path, capsys, command):
    # "²" is a digit to str.isdigit, but int() rejects it
    sigfile = tmp_path / "sig"
    sigfile.write_text("a/0\nf/\u00b2\n")
    code, out, err = run(capsys, *command, "--signature", str(sigfile))
    assert code == 2
    assert out == "" and err.startswith(f"{sigfile}:2:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# unify / combine
# ---------------------------------------------------------------------------


def test_unify_of_the_stored_pair_reaches_the_normal_form(capsys):
    code, out, _ = run(
        capsys, "unify", "--left", "tests/data/s.ces", "--right", "tests/data/sprime.ces"
    )
    assert code == 0
    left = parse_strategy(open("tests/data/s.ces").read())
    right = parse_strategy(open("tests/data/sprime.ces").read())
    assert parse_strategy(out.strip()) == unify(left, right)
    assert out.startswith("mu Z. ")


def test_unify_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "unify",
        "--left", "ins <list([], i)>", "--right", "ins <list([], j)>", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["text"] == "ins <list(list([],j),i)>"
    assert doc["strategy"] == {"nodes": [{"kind": "ins", "ctx": "list(list([],j),i)"}]}


@pytest.mark.parametrize("command", ["unify", "combine"])
@pytest.mark.parametrize("text", [
    "mu X. @" + "1." * 10_000 + "(ins <[]> + X)",
    "a ; " * 10_000 + "ins <[]>",
], ids=["spine", "guards"])
def test_json_reaches_10000_levels(tmp_path, capsys, command, text):
    path = tmp_path / "deep.strat"
    path.write_text(text)
    code, out, err = run(capsys, command, "--left", str(path), "--right", str(path), "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    s = parse_strategy(text)
    assert parse_strategy(doc["text"]) is {"unify": unify, "combine": combine}[command](s, s)
    assert len(doc["strategy"]["nodes"]) > 10_000


def test_unify_left_project_keeps_the_left_context(capsys):
    code, out, _ = run(
        capsys, "unify", "--left", "ins <list([], i)>", "--right", "ins <list([], j)>",
        "--merge", "leftproject",
    )
    assert code == 0
    assert out.strip() == "ins <list([],i)>"


def test_trace_goes_to_stderr(capsys):
    code, out, err = run(
        capsys, "unify", "--left", "a ; ins <[]>", "--right", "ins <f([])>", "--trace"
    )
    assert code == 0
    assert parse_strategy(out.strip()) is not None
    assert "lambda=" in err


@pytest.mark.parametrize("argv", [
    ["unify", "--left", "s.ces", "--right", "sprime.ces"],
    ["combine", "--left", "s.ces", "--right", "sprime.ces", "--json", "--trace"],
    ["psi", "--term", "g(g(a, b), g(b, a))", "--strategy", "mu X. [@1.X, @2.X, @eps.ins <f([])>]"],
], ids=["unify", "combine-json-trace", "psi"])
def test_output_does_not_depend_on_the_hash_seed(argv):
    # terms and strategy nodes hash by identity, strings by the seed; a fresh
    # process per seed, since the seed is fixed at start-up
    data = Path(__file__).parent / "data"
    src = str(Path(__file__).parents[1] / "src")
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "ctxembed.cli", *argv], cwd=data, env=env,
                              capture_output=True, text=True, check=True)
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_quietly(buffered):
    # the read end of the pipe is closed before the child starts, so its
    # first write to stdout fails however stdout is buffered
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ctxembed.cli", "apply", "--term", "a", "--strategy", "ins <f([])>"],
            stdout=write, stderr=subprocess.PIPE, env=env, check=False,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")  # no traceback


def test_combine_falls_back_to_either_side(capsys):
    code, out, _ = run(
        capsys, "combine", "--left", "a ; ins <f([])>", "--right", "b ; ins <f([])>"
    )
    assert code == 0
    got = parse_strategy(out.strip())
    from ctxembed.strategy import eval_strategy
    assert eval_strategy(got, App("a")) == App("f", (App("a"),))
    assert eval_strategy(got, App("b")) == App("f", (App("b"),))


@pytest.mark.parametrize(
    "argv",
    [
        ("unify", "--left", "X", "--right", "fail"),
        ("apply", "--term", "f(a)", "--strategy", "X"),
        ("apply", "--term", "f(a)", "--strategy", "@1.X"),
        ("psi", "--term", "f(a)", "--strategy", "X"),
    ],
    ids=["unify", "apply", "apply-jump", "psi"],
)
def test_open_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "open" in err


@pytest.mark.parametrize("command", ["apply", "psi"])
@pytest.mark.parametrize("strategy", ["ins <f([])> + X", "if [@1.ins <f([])>, @2.X] then ins <f([])>"],
                         ids=["choice", "condition"])
def test_open_input_is_a_usage_error_where_the_variable_is_never_reached(capsys, command, strategy):
    # on g(a, b) the left branch, or the condition's first map entry, succeeds
    code, out, err = run(capsys, command, "--term", "g(a, b)", "--strategy", strategy)
    verb = "evaluate" if command == "apply" else "translate"
    assert (code, out, err) == (2, "", f"cannot {verb} open strategy (free X)\n")


# ---------------------------------------------------------------------------
# psi / check / unfold
# ---------------------------------------------------------------------------


def test_psi_prints_the_position_map(capsys):
    code, out, _ = run(
        capsys, "psi", "--term", "g(a, b)", "--strategy", "most(ins <f([])>)"
    )
    assert code == 0
    assert out.strip() == "[@1.<f([])>, @2.<f([])>]"


def test_psi_of_a_failing_strategy(capsys):
    code, out, _ = run(capsys, "psi", "--term", "a", "--strategy", "b ; ins <[]>")
    assert code == 0
    assert out.strip() == "fail"


@pytest.mark.parametrize("command", ["apply", "psi"])
def test_input_nested_too_deeply_is_a_usage_error(tmp_path, capsys, command):
    # the choice's left branch costs a second frame per level on top of the
    # map entry's, in evaluation (apply) and translation (psi) alike;
    # parsing reaches further, so the limit hit is past the parser
    strategy = "mu X. a ; ins <f([])> + (@1.X + fail)"
    text = "f(" * 700 + "a" + ")" * 700
    parse_term(text)
    term = tmp_path / "deep.term"
    term.write_text(text)
    code, out, err = run(capsys, command, "--term", str(term), "--strategy", strategy)
    assert code == 2
    assert out == ""
    assert err == f"{command}: input nested too deeply\n"


@pytest.mark.parametrize("option", ["--strategy", "--term", "--signature"])
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, option):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ins <f(\xff[])>\n")
    args = {"--strategy": "ins <f([])>", "--term": "a"}
    args[option] = str(bad)
    code, out, err = run(capsys, "apply", *(x for pair in args.items() for x in pair))
    assert code == 2
    assert out == ""
    assert err == f"{bad}: not UTF-8 text (byte 7)\n"


@pytest.mark.parametrize("command", ["unify", "combine"])
def test_a_unification_past_the_engine_caps_is_a_usage_error(capsys, monkeypatch, command):
    # the stored pair under a step cap it cannot meet, then two guard chains
    # whose closure table passes the size cap together
    monkeypatch.setattr(engine, "_MAX_STEPS", 2)
    code, out, err = run(capsys, command, "--left", "tests/data/s.ces", "--right", "tests/data/sprime.ces")
    assert (code, out, err) == (2, "", f"{command}: reduction exceeded the step cap\n")
    monkeypatch.setattr(engine, "_PHI_CAP", 50)
    left, right = "a ; " * 30 + "ins <[]>", "b ; " * 30 + "ins <[]>"
    for extra in ([], ["--json"], ["--trace"]):
        code, out, err = run(capsys, command, "--left", left, "--right", right, *extra)
        assert (code, out, err) == (2, "", f"{command}: closure exceeded size cap\n")


def test_apply_prints_a_result_deeper_than_evaluation_recurses(tmp_path, capsys):
    # printing runs on an explicit stack, so the printer is no longer the
    # limit on what apply can answer
    term = tmp_path / "deep.term"
    term.write_text("f(" * 700 + "a" + ")" * 700)
    code, out, err = run(capsys, "apply", "--term", str(term), "--strategy", "ins <f([])>")
    assert code == 0
    assert err == ""
    assert out == "f(" * 701 + "a" + ")" * 701 + "\n"


def test_check_reports_ok_for_an_admissible_strategy(capsys):
    code, out, _ = run(capsys, "check", "--strategy", "mu X. a ; ins <[]> + @1.X")
    assert code == 0
    assert out == "closed: ok\nmonotone: ok\nwell-founded: ok\ninsertion-entries: ok\n"


def test_check_flags_an_open_strategy(capsys):
    code, out, _ = run(capsys, "check", "--strategy", "@1.X")
    assert code == 1
    assert "closed: violated" in out


def test_unfold_uniform_count(capsys):
    code, out, _ = run(
        capsys, "unfold", "--strategy", "mu X. (a ; ins <[]>) + @1.X", "--n", "1"
    )
    assert code == 0
    assert out.strip() == "a ; ins <[]> + @1.fail"


def test_unfold_zero_is_fail(capsys):
    code, out, _ = run(
        capsys, "unfold", "--strategy", "mu X. (a ; ins <[]>) + @1.X", "--n", "0"
    )
    assert code == 0
    assert out.strip() == "fail"


def test_unfold_per_binder_map(capsys):
    code, out, _ = run(
        capsys, "unfold",
        "--strategy", "mu X. [@1.mu Y. ins <[]> + @1.Y, @2.X]",
        "--map", "X=1,Y=2",
    )
    assert code == 0
    got = parse_strategy(out.strip())
    from ctxembed.strategy import bound_vars
    assert bound_vars(got) == set()


def test_unfold_map_must_cover_all_binders(capsys):
    code, out, err = run(
        capsys, "unfold", "--strategy", "mu X. a ; ins <[]> + @1.X", "--map", "Y=2"
    )
    assert code == 2
    assert out == "" and "no count for binder" in err


def test_unfold_map_names_each_binder_once(capsys):
    code, out, err = run(
        capsys, "unfold", "--strategy", "mu X. a ; ins <[]> + @1.X", "--map", "X=1,X=2"
    )
    assert (code, out, err) == (2, "", "--map: binder X given twice\n")


def test_unfold_map_counts_must_be_decimal_digits(capsys):
    code, out, err = run(
        capsys, "unfold", "--strategy", "mu X. a ; ins <[]> + @1.X", "--map", "X=\u00b2"
    )
    assert code == 2
    assert out == "" and "expected NAME=COUNT" in err and err.count("\n") == 1


def test_unfold_rejects_negative_counts(capsys):
    code, out, err = run(
        capsys, "unfold", "--strategy", "mu X. a ; ins <[]> + @1.X", "--n", "-1"
    )
    assert code == 2
    assert out == "" and "non-negative" in err


@pytest.mark.parametrize("strategy, count", [
    ("mu X. ins <f([])>", ["--n", "99999999999999999999"]),
    ("mu X. ins <f([])> + @1.X", ["--n", "99999999999999999999"]),
    ("mu X. ins <f([])> + @1.X", ["--map", "X=99999999999999999999"]),
    ("mu X. [@1.mu Y. ins <[]> + @1.Y, @2.X]", ["--map", "X=1,Y=100001"]),
])
def test_unfold_rejects_counts_past_the_node_cap(capsys, strategy, count):
    # an iterate is built one step per unit of its count: a huge count is
    # refused at once instead of running for ever
    code, out, err = run(capsys, "unfold", "--strategy", strategy, *count)
    assert code == 2
    assert out == "" and err == f"unfolding counts must be at most {engine._PHI_CAP}\n"


def test_unfold_reads_the_node_cap_when_called(capsys, monkeypatch):
    strategy = "mu X. ins <f([])> + @1.X"
    assert run(capsys, "unfold", "--strategy", strategy, "--n", "3")[0] == 0
    monkeypatch.setattr(engine, "_PHI_CAP", 2)
    code, out, err = run(capsys, "unfold", "--strategy", strategy, "--n", "3")
    assert code == 2 and out == "" and err == "unfolding counts must be at most 2\n"
    assert run(capsys, "unfold", "--strategy", strategy, "--n", "2")[0] == 0


def test_unfold_needs_exactly_one_count_source(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["unfold", "--strategy", "fail", "--n", "1", "--map", "X=1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reports_are_byte_identical_for_equal_seeds(capsys):
    code1, out1, err1 = run(capsys, "verify", "--suite", "homomorphism", "--cases", "25")
    code2, out2, _ = run(capsys, "verify", "--suite", "homomorphism", "--cases", "25")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc == {"suite": "homomorphism", "seed": 0, "cases": 25, "failures": []}
    assert "25 cases" in err1  # timing stays off the report


_PINNED = [line.split() for line in
           (Path(__file__).parent / "data" / "verify_sha256.txt").read_text().splitlines()]


@pytest.mark.parametrize("suite,cases,merge,seed,digest", _PINNED,
                         ids=[f"{p[0]}-{p[2]}" for p in _PINNED])
def test_verify_reports_match_the_pinned_bytes(capsys, suite, cases, merge, seed, digest):
    # the bench's verify mix; a change that keeps the results keeps these bytes
    code, out, _ = run(capsys, "verify", "--suite", suite, "--cases", cases,
                       "--seed", seed, "--merge", merge)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_DATA = Path(__file__).parent / "data"
_OUTPUTS = [line.split() for line in (_DATA / "outputs_sha256.txt").read_text().splitlines()]


def test_unify_and_combine_outputs_match_the_pinned_bytes(capsys):
    # one process, in file order, so a combine's print meets the texts its
    # unify stored; each line: command, merge policy, text or --json --trace
    for op, merge, form, digest in _OUTPUTS:
        extra = ["--json", "--trace"] if form == "json" else []
        code, out, _ = run(capsys, op, "--left", str(_DATA / "s.ces"), "--right", str(_DATA / "sprime.ces"),
                           "--merge", merge, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (op, merge, form)


def test_verify_seed_changes_the_sample(capsys):
    _, out0, _ = run(capsys, "verify", "--suite", "theorem1", "--cases", "5")
    _, out7, _ = run(capsys, "verify", "--suite", "theorem1", "--cases", "5",
                     "--seed", "7")
    assert json.loads(out0)["seed"] == 0
    assert json.loads(out7)["seed"] == 7


def test_verify_exits_1_when_a_suite_reports_failures(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES, "homomorphism",
        lambda cfg: {"suite": "homomorphism", "seed": cfg.seed, "cases": cfg.cases,
                     "failures": [{"index": 0}]},
    )
    code, out, _ = run(capsys, "verify", "--suite", "homomorphism", "--cases", "1")
    assert code == 1
    assert json.loads(out)["failures"]


def test_verify_signature_needs_a_constant(tmp_path, capsys):
    sigfile = tmp_path / "sig"
    sigfile.write_text("f/1\n")
    code, out, err = run(capsys, "verify", "--suite", "algebra", "--cases", "1",
                         "--signature", str(sigfile))
    assert code == 2
    assert out == "" and "constant" in err


def test_verify_rejects_a_negative_case_count(capsys):
    code, out, err = run(capsys, "verify", "--suite", "homomorphism", "--cases", "-3")
    assert code == 2
    assert out == "" and "cases" in err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
