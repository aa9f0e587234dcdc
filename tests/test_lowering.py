"""Lowering the extension constraints onto a problem's pieces.

``lower_integer_terms`` and ``enumerate_scenarios`` lay every position
out once, zone by zone (``extensions._layout``), for character sides and
index-of placements alike.  Their outputs are semantic pins: on the
seeded extension problems, and on each hand-made one the generator
never produces, one digest of the ``repr`` of each problem's
``(list(enumerate_scenarios(...)), lower_integer_terms(...))``.  The
scenario stream is pinned as a list in order, since the first
satisfying walk wins.  Each hand-made case also states the property it
is there for.

The pins were recorded while a copy of the lowering that spelled each
layout out separately still checked every case: the same scenario list
and the same integer tree.  To re-record, print ``digest`` of the
``lowered`` outputs and paste it into ``SEEDED`` or ``HAND_MADE``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from outcome_digest import digest

from slsolve.automata import Alphabet
from slsolve.constraints import (
    And,
    BoolTree,
    CharAtom,
    CharConst,
    CharPos,
    ConcatEq,
    CountTerm,
    Disequality,
    IndexOfAtom,
    Leaf,
    LenTerm,
    LinearAtom,
    Lit,
    Not,
    Or,
    Problem,
    Var,
)
from slsolve.extensions import (
    LinkEq,
    Scenario,
    enumerate_scenarios,
    lower_integer_terms,
)
from slsolve.solver import _checked_fold, split_concat


def lowered(problem: Problem) -> tuple[list[Scenario], Optional[BoolTree]]:
    """The problem's scenario stream and lowered integer tree."""
    folded, graph = _checked_fold(problem)
    shapes = split_concat(folded, graph)
    scenarios = list(enumerate_scenarios(folded, shapes))
    return scenarios, lower_integer_terms(folded.integers, shapes)


SEEDED = "b3fcee068512c8b9"
HAND_MADE = {
    "constant-haystack": "b9e15fbfd4968d81",
    "first-occurrence": "633698e2493fbc18",
    "char-literals": "8c153d38ad641a7d",
    "disequality": "674de2bf0be0f65f",
}


def test_seeded_problems_lower_as_the_reference_does(extension_problems):
    names = [field.name for field in fields(Scenario)]
    used = set()
    outputs = [lowered(problem) for problem in extension_problems]
    for scenarios, tree in outputs:
        used.update(name for s in scenarios for name in names if getattr(s, name))
        if tree is not None:
            used.add("int_tree")
    # Every kind of obligation occurs somewhere.
    assert used == {*names, "int_tree"}
    assert digest(outputs) == SEEDED


AB = Alphabet.of("ab")


def concat(lhs: str, *items: str) -> ConcatEq:
    """``lhs = items``; quoted items are literals, the rest variables."""
    return ConcatEq(
        lhs, tuple(Lit(i[1:-1]) if i[0] == '"' else Var(i) for i in items)
    )


def char(left: CharPos | CharConst, right: CharPos | CharConst) -> Leaf:
    return Leaf(CharAtom(left, right))


def test_indexof_on_a_constant_haystack():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        int_vars=("u", "v"),
        indexofs=(
            IndexOfAtom("u", "ab", Lit("abab"), first=False),
            IndexOfAtom("v", "ab", Lit("abab"), first=True),
        ),
    )
    scenarios, tree = lowered(problem)
    assert digest([(scenarios, tree)]) == HAND_MADE["constant-haystack"]
    first = LinkEq("v", 0, None, 1, ())
    assert [s.links for s in scenarios] == [
        (LinkEq("u", 0, None, 1, ()), first),
        (LinkEq("u", 0, None, 3, ()), first),
    ]


def test_first_occurrence_landing_in_a_literal():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        int_vars=("u", "v"),
        relations=(concat("y", "x", '"bb"', "x", '"aba"', "x"),),
        indexofs=(
            IndexOfAtom("u", "ab", Var("y"), first=True),
            IndexOfAtom("v", "ba", Var("y"), first=True),
        ),
    )
    scenarios, tree = lowered(problem)
    assert digest([(scenarios, tree)]) == HAND_MADE["first-occurrence"]
    # Matches end inside a literal (no piece holds the landing), inside the
    # first piece, and inside a later piece.  Entering "aba" after a "b"
    # completes "ba" on its first letter, so no match of "ba" may end on
    # its last letter then.
    landings = [
        [mp.landing_term for mp in mon.pieces]
        for s in scenarios
        for mon in s.monitors
    ]
    assert any(terms == [None] for terms in landings)
    assert any(terms[-1] is not None for terms in landings)
    assert any(len(terms) > 1 for terms in landings)


def test_char_positions_landing_in_literals():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        int_vars=("u", "v"),
        relations=(concat("y", '"ab"', "x", '"b"'),),
        chars=Or(
            (
                char(CharPos("y", "u"), CharConst("a")),
                Not(char(CharPos("y", 2), CharPos("y", "v"))),
            )
        ),
    )
    scenarios, tree = lowered(problem)
    assert digest([(scenarios, tree)]) == HAND_MADE["char-literals"]
    constants = [link.const for s in scenarios for link in s.links if link.term is None]
    assert {1, 2, 3} <= set(constants)
    assert any(s.zeros for s in scenarios) and any(s.past_ends for s in scenarios)


def test_disequality_between_concatenations_with_literals():
    length_and_count = ((1, LenTerm("y")), (-1, LenTerm("z")), (1, CountTerm("y", "a")))
    twice_x = LinearAtom(((1, LenTerm("z")), (-2, LenTerm("x"))), 1)
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y", "z"),
        relations=(concat("y", '"a"', "x"), concat("z", "x", '"b"', "x")),
        integers=And((Leaf(LinearAtom(length_and_count, 2)), Leaf(twice_x))),
        disequalities=(Disequality("y", "z"),),
    )
    scenarios, tree = lowered(problem)
    assert digest([(scenarios, tree)]) == HAND_MADE["disequality"]
    assert tree is not None
    assert scenarios[0].extra and not scenarios[0].links
    # Both sides of the char-difference witness can land in a literal.
    assert any(
        [link.term for link in s.links] == [None, None] for s in scenarios[1:]
    )
