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
and the same integer tree.  They were re-recorded when links and monitor
pieces came to hold their tracker objects instead of indices into
per-scenario lists, which changed ``repr(Scenario)``.  Before that, the
old and the new scenario streams of the seeded problems, the hand-made
ones and ``TWIN`` were shown equal in one canonical index form: trackers
as ``(node, char)`` and ``(node, needle, entry)`` tuples, references as
positions in those lists, monitor pieces flattened.  To re-record, print
``digest`` of the ``lowered`` outputs and paste it into ``SEEDED`` or
``HAND_MADE``.
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
from slsolve.parser import parse_problem
from slsolve.solver import _checked_fold, solve, split_concat


def lowered(problem: Problem) -> tuple[list[Scenario], Optional[BoolTree]]:
    """The problem's scenario stream and lowered integer tree."""
    folded, graph = _checked_fold(problem)
    shapes = split_concat(graph)
    scenarios = list(enumerate_scenarios(folded, shapes))
    return scenarios, lower_integer_terms(folded.integers, shapes)


SEEDED = "0e1b29b920f99d8a"
HAND_MADE = {
    "constant-haystack": "28030c9444c8d46e",
    "first-occurrence": "88cf0c8790f1c294",
    "char-literals": "df2a83a09d510714",
    "disequality": "1ca5bc5d7c036e28",
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


def test_each_tracker_is_held_once_per_scenario(extension_problems):
    """Trackers compare by identity, so a scenario may name each only once
    (by its link or its monitor piece), and a landing tracker is one of
    the scenario's own position trackers."""
    for problem in extension_problems:
        for s in lowered(problem)[0]:
            trackers = s.terms + s.comps
            assert len(set(map(id, trackers))) == len(trackers)
            for mp in s.monitors:
                assert mp.landing_term is None or any(
                    mp.landing_term is term for term in s.terms
                )


#: Two positions of one piece that both hold ``a``: their trackers have
#: equal fields, yet must freeze at two different positions.
TWIN = """alphabet "ab"
str x
int u v
charc (and (= x[u] 'a') (= x[v] 'a'))
intc (<= (+ u 2 (* -1 v)) 0)
"""


def test_trackers_with_equal_fields_stay_two():
    problem = parse_problem(TWIN)
    verdict = solve(problem)
    assert verdict.status == "sat"
    assert verdict.model == {"x": "aaa", "u": 1, "v": 3}
    [scenario], _tree = lowered(problem)
    first, second = scenario.terms
    assert first is not second
    assert (first.node, first.char) == (second.node, second.char)


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
    # Each scenario's pieces, grouped by binding (the needles differ).
    landings: list[list] = []
    for s in scenarios:
        by_needle: dict[str, list] = {}
        for mp in s.monitors:
            by_needle.setdefault(mp.comp.needle, []).append(mp.landing_term)
        landings += by_needle.values()
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
