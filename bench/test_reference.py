"""Hand-worked values for the benchmark's reference interpreter.

Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"

The expected values come from the paper's worked example (the four terms of
the recursive unification example), the README, and small cases worked out
by hand from the semantics in ``reference.py``; none of them comes from
running ``ctxembed``.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs as I  # noqa: E402
import reference as R  # noqa: E402


def run(strategy: str, term: str) -> str:
    got = R.evaluate(R.read_strategy(strategy), R.read_term(term))
    return "FAIL" if got is None else R.show_term(got)


def image(strategy: str, term: str) -> str:
    return R.show_positions(R.psi(R.read_strategy(strategy), R.read_term(term)))


def positions(text: str):
    """A position list written like ``[@1.<f([])>, @eps.<g([],a)>]``."""
    if text == "fail":
        return None
    out = []
    for part in text[1:-1].split(", "):
        where, ctx = part[1:].split(".<")
        p = () if where == "eps" else tuple(int(i) for i in where.split("."))
        out.append((p, R._Reader(ctx[:-1]).term(hole=True)))
    return tuple(out)


S = "mu X. (g(?x, ?x) ; ins <list([], i)>) + @1.X"
S_PRIME = "mu Y. (g(?x, b) ; ins <list([], j)>) + @1.Y"
# the paper's unification of S and S_PRIME, written out by hand
JOINT = (
    "mu Z. (g(?x, ?x) ; (g(?x, b) ; ins <list(list([], j), i)>"
    " + if @1.(" + S_PRIME + ") then [@1.(" + S_PRIME + "), @eps.ins <list([], i)>]))"
    " + ((g(?x, b) ; if @1.(" + S + ") then [@1.(" + S + "), @eps.ins <list([], j)>]) + @1.Z)"
)


class WorkedExample(unittest.TestCase):
    """The paper's example: S inserts list([], i) at the topmost g(x, x)
    along the first-child spine, S' inserts list([], j) at g(x, b)."""

    CASES = {
        "g(b, b)": "list(list(g(b,b),j),i)",
        "g(g(a, b), g(a, b))": "list(g(list(g(a,b),j),g(a,b)),i)",
        "g(g(a, a), b)": "list(g(list(g(a,a),i),b),j)",
        "g(g(b, b), a)": "g(list(list(g(b,b),j),i),a)",
    }

    def test_joint_strategy_on_the_four_terms(self):
        for term, want in self.CASES.items():
            self.assertEqual(run(JOINT, term), want, term)

    def test_inputs_alone(self):
        self.assertEqual(run(S, "g(g(a, a), b)"), "g(list(g(a,a),i),b)")
        self.assertEqual(run(S_PRIME, "g(g(a, a), b)"), "list(g(g(a,a),b),j)")
        self.assertEqual(run(S, "g(b, b)"), "list(g(b,b),i)")
        self.assertEqual(run(S_PRIME, "a"), "FAIL")

    def test_translation_distributes_over_unification(self):
        s, r, joint = map(R.read_strategy, (S, S_PRIME, JOINT))
        for term in self.CASES:
            t = R.read_term(term)
            self.assertEqual(R.psi(joint, t), R.unify_positions(R.psi(s, t), R.psi(r, t)), term)

    def test_translation_agrees_with_evaluation(self):
        joint = R.read_strategy(JOINT)
        for term, want in self.CASES.items():
            t = R.read_term(term)
            self.assertEqual(R.show_term(R.apply_positions(R.psi(joint, t), t)), want)


class ReadmeExamples(unittest.TestCase):
    def test_apply(self):
        self.assertEqual(run("ins <list([], i)>", "var(x, reg(omega, one))"), "list(var(x,reg(omega,one)),i)")
        self.assertEqual(run("fail", "a"), "FAIL")

    def test_psi(self):
        self.assertEqual(image("most(ins <f([])>)", "g(a, b)"), "[@1.<f([])>, @2.<f([])>]")

    def test_library_example(self):
        self.assertEqual(run(JOINT, "g(g(b, b), a)"), "g(list(list(g(b,b),j),i),a)")

    def test_merge_and_position_lists(self):
        tau_i, tau_j = (R._Reader(c).term(hole=True) for c in ("list([], i)", "list([], j)"))
        self.assertEqual(R.show_term(R.merge(tau_i, tau_j, R.NEST)), "list(list([],j),i)")
        self.assertEqual(R.merge(tau_i, tau_j, R.LEFT_PROJECT), tau_i)
        e = positions("[@1.<list([],i)>, @2.<list([],j)>]")
        self.assertEqual(R.show_term(R.apply_positions(e, R.read_term("d(u, x)"))), "d(list(u,i),list(x,j))")
        left = positions("[@1.<list([],i)>, @2.<list([],j)>, @3.<list([],k)>]")
        right = positions("[@1.<list([],l)>, @4.<list([],m)>, @5.<list([],n)>]")
        self.assertEqual(
            R.show_positions(R.unify_positions(left, right)),
            "[@1.<list(list([],l),i)>, @2.<list([],j)>, @3.<list([],k)>, @4.<list([],m)>, @5.<list([],n)>]",
        )


class FixedPoints(unittest.TestCase):
    def test_iterations_run_out_one_level_above_the_leaf(self):
        # depth(f^d(a)) = d iterations reach the leaf with none left
        for d in range(6):
            term = "f(" * d + "a" + ")" * d
            self.assertEqual(run("mu X. a ; ins <f([])> + @1.X", term), "FAIL", d)
            self.assertEqual(image("mu X. a ; ins <f([])> + @1.X", term), "fail", d)

    def test_iteration_count_is_fixed_at_the_binder(self):
        # iterate 2 at f(f(a)); iterate 1 at f(a) tries @1 with iterate 0,
        # which fails, and inserts there instead
        self.assertEqual(run("mu X. @1.X + ins <g([], b)>", "f(f(a))"), "f(g(f(a),b))")
        self.assertEqual(run("mu X. @1.X + ins <g([], b)>", "a"), "FAIL")

    def test_top_down(self):
        td = I.top_down(R.read_strategy("g(?x, a) ; ins <f([])>"))
        self.assertEqual(R.show_term(R.evaluate(td, R.read_term("g(g(b, a), g(a, a))"))), "g(f(g(b,a)),f(g(a,a)))")
        self.assertIsNone(R.evaluate(td, R.read_term("f(b)")))

    def test_fails_on_constants(self):
        self.assertTrue(R.fails_on_constants(R.read_strategy("@1.X + most(ins <f([])>)"), ("a", "b")))
        self.assertFalse(R.fails_on_constants(R.read_strategy("a ; ins <f([])> + @1.X"), ("a", "b")))


class Maps(unittest.TestCase):
    def test_entries_apply_to_the_running_result(self):
        self.assertEqual(run("[@1.ins <f([])>, @eps.ins <g([], a)>]", "g(a, b)"), "g(g(f(a),b),a)")
        self.assertEqual(run("[@1.ins <f([])>, @1.ins <g([], a)>]", "g(a, b)"), "g(g(f(a),a),b)")

    def test_map_fails_only_when_every_entry_fails(self):
        self.assertEqual(run("[@2.fail]", "f(a)"), "FAIL")
        self.assertEqual(run("[@1.fail, @eps.ins <f([])>]", "a"), "f(a)")
        self.assertEqual(run("most(ins <f([])>)", "a"), "FAIL")
        self.assertEqual(run("most(a ; ins <f([])>)", "g(a, b)"), "g(f(a),b)")

    def test_later_insertions_wrap_earlier_ones_in_the_image(self):
        self.assertEqual(image("[@1.ins <f([])>, @1.ins <g([], a)>]", "g(a, b)"), "[@1.<g(f([]),a)>]")
        self.assertEqual(image("[@1.ins <f([])>, @eps.ins <g([], a)>]", "g(a, b)"), "[@1.<f([])>, @eps.<g([],a)>]")

    def test_guards_and_conditions(self):
        self.assertEqual(run("g(?x, ?x) ; ins <f([])>", "g(a, a)"), "f(g(a,a))")
        self.assertEqual(run("g(?x, ?x) ; ins <f([])>", "g(a, b)"), "FAIL")
        self.assertEqual(run("if @1.ins <f([])> then ins <g([], a)>", "a"), "FAIL")
        self.assertEqual(run("if @1.ins <f([])> then ins <g([], a)>", "f(b)"), "g(f(b),a)")


class PositionLists(unittest.TestCase):
    def test_failure(self):
        e = positions("[@1.<f([])>]")
        self.assertIsNone(R.unify_positions(None, e))
        self.assertEqual(R.combine_positions(None, e), e)
        self.assertEqual(R.combine_positions(e, None), e)

    def test_canonical_order(self):
        got = R.combine_positions(positions("[@eps.<f([])>]"), positions("[@2.<f([])>, @1.1.<f([])>]"))
        self.assertEqual(R.show_positions(got), "[@1.1.<f([])>, @2.<f([])>, @eps.<f([])>]")

    def test_left_project(self):
        got = R.unify_positions(positions("[@1.<f([])>]"), positions("[@1.<g([],a)>]"), R.LEFT_PROJECT)
        self.assertEqual(R.show_positions(got), "[@1.<f([])>]")


class Syntax(unittest.TestCase):
    def test_written_strategies_read_back(self):
        for text in (JOINT, S, "[@1.2.ins <[]>, @eps.ins <f([])>]", "if fail then (mu X. @1.X) + fail"):
            s = R.read_strategy(text)
            self.assertEqual(R.read_strategy(R.show_strategy(s)), s)

    def test_jumps(self):
        self.assertEqual(R.read_strategy("@1.2.fail"), ("conj", ((1, ("conj", ((2, R.FAIL),))),)))
        self.assertEqual(R.read_strategy("@eps.fail"), ("conj", ((None, R.FAIL),)))

    def test_rejects_malformed_text(self):
        for text in ("ins <f(a)>", "mu x. a", "a ;", "[@1.fail", "f(a) # b"):
            with self.assertRaises(R.SyntaxFault):
                R.read_strategy(text)


if __name__ == "__main__":
    unittest.main()
