"""Problem representation and ground-truth evaluation semantics.

``evaluate`` is the semantic anchor for the whole package — the solver
and the brute-force oracle are both judged against it — so its edge
cases (out-of-range character positions, overlapping occurrences,
negative integers) are pinned down here on tiny hand-built problems.
"""

import re

import pytest

from slsolve.automata import Alphabet, nfa_from_word
from slsolve.constraints import (
    And,
    CharAtom,
    CharConst,
    CharPos,
    ConcatEq,
    CountTerm,
    Disequality,
    IndexOfAtom,
    IntTerm,
    Leaf,
    LenTerm,
    LinearAtom,
    Lit,
    Not,
    Or,
    Problem,
    RegAtom,
    TransducerEq,
    Var,
    evaluate,
    problem_wellformed,
    satisfying_vectors,
    tree_eval,
    tree_eval_indexed,
    tree_leaves,
)
from slsolve.regex import regex_parse
from slsolve.solver import solve
from slsolve.transducer import erase_transducer, identity_transducer

AB = Alphabet.of("ab")


def reg(var: str, pattern: str) -> Leaf:
    return Leaf(RegAtom(var, regex_parse(pattern, AB), pattern))


# ---------------------------------------------------------------------------
# Boolean combination trees


def test_tree_leaves_in_left_to_right_order():
    tree = And((Or((Leaf("p"), Not(Leaf("q")))), Leaf("r")))
    assert [leaf.atom for leaf in tree_leaves(tree)] == ["p", "q", "r"]


def test_tree_eval_logic():
    tree = And((Or((Leaf("p"), Leaf("q"))), Not(Leaf("q"))))
    assert tree_eval(tree, lambda atom: atom == "p")
    assert not tree_eval(tree, lambda atom: atom == "q")
    assert not tree_eval(tree, lambda atom: False)


def test_tree_eval_is_kleene_three_valued():
    def known(**truth):
        return lambda atom: truth.get(atom)

    p, q = Leaf("p"), Leaf("q")
    assert tree_eval(p, known()) is None
    assert tree_eval(Not(p), known()) is None
    assert tree_eval(Not(p), known(p=True)) is False
    assert tree_eval(And((p, q)), known(q=False)) is False
    assert tree_eval(And((p, q)), known(q=True)) is None
    assert tree_eval(And((p, q)), known(p=True, q=True)) is True
    assert tree_eval(Or((p, q)), known(q=True)) is True
    assert tree_eval(Or((p, q)), known(q=False)) is None
    assert tree_eval(Or((p, q)), known(p=False, q=False)) is False
    assert tree_eval(Or((And((p, q)), Not(q))), known(p=True)) is None
    assert tree_eval(And((Or((p, q)), Not(q))), known(q=True)) is False


def test_tree_eval_stops_at_the_deciding_child():
    seen: list[str] = []

    def truth(atom: str):
        seen.append(atom)
        return {"p": None, "q": False}.get(atom)

    assert tree_eval(And((Leaf("p"), Leaf("q"), Leaf("r"))), truth) is False
    assert seen == ["p", "q"]


def test_satisfying_vectors_in_search_order():
    tree = Or((Leaf("p"), Not(Leaf("q"))))
    assert list(satisfying_vectors(tree)) == [
        (True, True),
        (True, False),
        (False, False),
    ]
    assert list(satisfying_vectors(None)) == [()]


def test_tree_eval_indexed_matches_positional_leaves():
    tree = Or((And((Leaf("a"), Leaf("b"))), Not(Leaf("c"))))
    for bits in range(8):
        values = [bool(bits >> i & 1) for i in range(3)]
        expected = (values[0] and values[1]) or not values[2]
        assert tree_eval_indexed(tree, values) == expected


# ---------------------------------------------------------------------------
# evaluate: core fragment


def test_evaluate_concatenation():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(ConcatEq("x", (Var("y"), Lit("b"), Var("y"))),),
    )
    assert evaluate(problem, {"x": "aba", "y": "a"})
    assert not evaluate(problem, {"x": "aba", "y": "b"})
    assert evaluate(problem, {"x": "b", "y": ""})


def test_evaluate_transducer_relation():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(TransducerEq("y", "eraseA", erase_transducer(AB, "a"), "x"),),
    )
    assert evaluate(problem, {"x": "abab", "y": "bb"})
    assert not evaluate(problem, {"x": "abab", "y": "ab"})
    assert evaluate(problem, {"x": "aa", "y": ""})


def test_evaluate_regular_tree_with_negation():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        regular=And((reg("x", "a*"), Not(reg("x", "aa")))),
    )
    assert evaluate(problem, {"x": "a"})
    assert evaluate(problem, {"x": ""})
    assert not evaluate(problem, {"x": "aa"})
    assert not evaluate(problem, {"x": "b"})


def test_evaluate_missing_variable_raises():
    problem = Problem(alphabet=AB, str_vars=("x",))
    with pytest.raises(KeyError):
        evaluate(problem, {})


def test_evaluate_wrong_sort_raises():
    problem = Problem(alphabet=AB, str_vars=("x",), int_vars=("u",))
    with pytest.raises(TypeError):
        evaluate(problem, {"x": 3, "u": 0})
    with pytest.raises(TypeError):
        evaluate(problem, {"x": "a", "u": "a"})


# ---------------------------------------------------------------------------
# evaluate: integer, character, and position extensions


def test_evaluate_linear_atoms_over_lengths_counts_and_vars():
    atom = LinearAtom(((1, LenTerm("x")), (-2, CountTerm("x", "a")), (1, IntTerm("u"))), 1)
    problem = Problem(alphabet=AB, str_vars=("x",), int_vars=("u",), integers=Leaf(atom))
    # len - 2*count_a + u <= 1
    assert evaluate(problem, {"x": "aab", "u": 2})      # 3 - 4 + 2 = 1
    assert not evaluate(problem, {"x": "bb", "u": 0})   # 2 - 0 + 0 = 2
    assert evaluate(problem, {"x": "", "u": 1})


def test_evaluate_negative_integer_falsifies():
    problem = Problem(alphabet=AB, str_vars=(), int_vars=("u",))
    assert evaluate(problem, {"u": 0})
    assert not evaluate(problem, {"u": -1})


def test_evaluate_char_atom_positions_are_one_based():
    atom = CharAtom(CharPos("x", 2), CharConst("b"))
    problem = Problem(alphabet=AB, str_vars=("x",), chars=Leaf(atom))
    assert evaluate(problem, {"x": "ab"})
    assert not evaluate(problem, {"x": "ba"})


def test_evaluate_char_atom_out_of_range_is_false():
    atom = CharAtom(CharPos("x", "u"), CharConst("a"))
    problem = Problem(alphabet=AB, str_vars=("x",), int_vars=("u",), chars=Leaf(atom))
    assert evaluate(problem, {"x": "a", "u": 1})
    assert not evaluate(problem, {"x": "a", "u": 0})
    assert not evaluate(problem, {"x": "a", "u": 2})
    # ... and negating an out-of-range comparison makes it true.
    negated = Problem(alphabet=AB, str_vars=("x",), int_vars=("u",), chars=Not(Leaf(atom)))
    assert evaluate(negated, {"x": "a", "u": 2})


def test_evaluate_char_atom_between_two_variables():
    atom = CharAtom(CharPos("x", "u"), CharPos("y", 1))
    problem = Problem(alphabet=AB, str_vars=("x", "y"), int_vars=("u",), chars=Leaf(atom))
    assert evaluate(problem, {"x": "ab", "y": "ba", "u": 2})
    assert not evaluate(problem, {"x": "ab", "y": "ba", "u": 1})
    assert not evaluate(problem, {"x": "ab", "y": "", "u": 1})


def test_evaluate_indexof_anywhere_accepts_any_occurrence():
    atom = IndexOfAtom("u", "aa", Var("x"), first=False)
    problem = Problem(alphabet=AB, str_vars=("x",), int_vars=("u",), indexofs=(atom,))
    # Occurrences may overlap: "aaa" contains "aa" at positions 1 and 2.
    assert evaluate(problem, {"x": "aaa", "u": 1})
    assert evaluate(problem, {"x": "aaa", "u": 2})
    assert not evaluate(problem, {"x": "aaa", "u": 3})
    assert not evaluate(problem, {"x": "bb", "u": 1})


def test_evaluate_indexof_first_pins_the_earliest_occurrence():
    atom = IndexOfAtom("u", "ab", Var("x"), first=True)
    problem = Problem(alphabet=AB, str_vars=("x",), int_vars=("u",), indexofs=(atom,))
    assert evaluate(problem, {"x": "babab", "u": 2})
    assert not evaluate(problem, {"x": "babab", "u": 4})
    assert not evaluate(problem, {"x": "bbb", "u": 1})


def test_evaluate_indexof_literal_haystack():
    atom = IndexOfAtom("u", "b", Lit("abba"), first=True)
    problem = Problem(alphabet=AB, str_vars=(), int_vars=("u",), indexofs=(atom,))
    assert evaluate(problem, {"u": 2})
    assert not evaluate(problem, {"u": 3})


def test_evaluate_disequality():
    problem = Problem(
        alphabet=AB, str_vars=("x", "y"), disequalities=(Disequality("x", "y"),)
    )
    assert evaluate(problem, {"x": "a", "y": "b"})
    assert not evaluate(problem, {"x": "ab", "y": "ab"})


def test_has_extensions_flag():
    core = Problem(alphabet=AB, str_vars=("x",), regular=reg("x", "a*"))
    assert not core.has_extensions
    assert Problem(alphabet=AB, str_vars=(), int_vars=("u",)).has_extensions
    assert Problem(
        alphabet=AB, str_vars=("x", "y"), disequalities=(Disequality("x", "y"),)
    ).has_extensions


# ---------------------------------------------------------------------------
# Static well-formedness report


def assert_flagged(problem: Problem, fault: str) -> None:
    """The report names ``fault``, and ``solve`` refuses the problem with it."""
    assert any(fault in line for line in problem_wellformed(problem))
    with pytest.raises(ValueError, match=re.escape(fault)):
        solve(problem)


def test_wellformed_accepts_a_sane_problem():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        int_vars=("u",),
        relations=(
            ConcatEq("x", (Var("y"), Lit("ab"))),
            TransducerEq("y", "copy", identity_transducer(AB), "x"),
        ),
        regular=reg("x", "(a|b)*"),
        integers=Leaf(LinearAtom(((1, IntTerm("u")),), 5)),
        indexofs=(IndexOfAtom("u", "a", Var("x"), first=False),),
        disequalities=(Disequality("x", "y"),),
    )
    assert problem_wellformed(problem) == []


def test_wellformed_flags_undeclared_variables():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        relations=(ConcatEq("x", (Var("ghost"),)),),
    )
    report = problem_wellformed(problem)
    assert any("ghost" in line for line in report)
    ints = Problem(
        alphabet=AB,
        str_vars=("x",),
        integers=Leaf(LinearAtom(((1, IntTerm("ghost")),), 5)),
    )
    assert_flagged(ints, "undeclared integer variable 'ghost'")


def test_wellformed_flags_literal_outside_alphabet():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        relations=(ConcatEq("x", (Lit("a<b"),)),),
    )
    report = problem_wellformed(problem)
    assert any("alphabet" in line for line in report)
    # Character atoms only the API can build: a count, a constant, an
    # index and a needle that the parser would refuse.
    count = Leaf(LinearAtom(((1, CountTerm("x", "c")),), 5))
    assert_flagged(
        Problem(alphabet=AB, str_vars=("x",), integers=count),
        "count term: bad character 'c'",
    )
    for side, fault in [
        (CharPos("x", 0), "character index 0 must be at least 1"),
        (CharConst("ab"), "bad character constant 'ab'"),
    ]:
        chars = Leaf(CharAtom(CharPos("x", 1), side))
        assert_flagged(Problem(alphabet=AB, str_vars=("x",), chars=chars), fault)
    needle = IndexOfAtom("u", "", Var("x"), first=True)
    assert_flagged(
        Problem(alphabet=AB, str_vars=("x",), int_vars=("u",), indexofs=(needle,)),
        "indexof binding u: empty needle",
    )


def test_wellformed_flags_alphabet_mismatch_of_machines():
    other = Alphabet.of("abc")
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        regular=Leaf(RegAtom("x", nfa_from_word("a", other), None)),
    )
    report = problem_wellformed(problem)
    assert any("alphabet" in line for line in report)
    image = TransducerEq("y", "copy", identity_transducer(other), "x")
    assert_flagged(
        Problem(alphabet=AB, str_vars=("x", "y"), relations=(image,)),
        "transducer alphabet differs from problem alphabet",
    )


def test_wellformed_flags_duplicate_and_double_sorted_declarations():
    duplicated = Problem(alphabet=AB, str_vars=("x", "x"))
    assert any("duplicate" in line for line in problem_wellformed(duplicated))
    ints = Problem(alphabet=AB, str_vars=("x",), int_vars=("u", "u"))
    assert_flagged(ints, "duplicate integer variable declaration")
    both = Problem(alphabet=AB, str_vars=("u",), int_vars=("u",))
    assert any("both sorts" in line for line in problem_wellformed(both))
