"""The straight-line gate: unique definitions, acyclic dependencies.

Covers the canonical evaluation order, minimal failure witnesses
(shortest cycles, first multiply-defined variable), the piece counts
behind the dimension statistic, and linear-time scaling on
a very long equation chain.
"""

import time
from dataclasses import replace

import pytest

from slsolve.automata import Alphabet
from slsolve.constraints import ConcatEq, Lit, Problem, TransducerEq, Var
from slsolve.straightline import (
    CyclicDefinition,
    MultiplyDefined,
    NotStraightLine,
    check_straightline,
    dimension,
)
from slsolve.solver import split_concat
from slsolve.transducer import identity_transducer

AB = Alphabet.of("ab")
COPY = identity_transducer(AB)


def concat(lhs: str, *items: object) -> ConcatEq:
    wrapped = tuple(
        item if isinstance(item, (Var, Lit)) else Var(str(item)) for item in items
    )
    return ConcatEq(lhs, wrapped)


def test_copy_loop_is_rejected_with_its_cycle():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(concat("x", "y"), TransducerEq("y", "copy", COPY, "x")),
    )
    with pytest.raises(CyclicDefinition) as info:
        check_straightline(problem)
    assert info.value.cycle == ("x", "y", "x")
    assert "x -> y -> x" in str(info.value)


def test_shared_input_with_concatenation_is_accepted():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "zp", "y", "z"),
        relations=(
            TransducerEq("y", "copy", COPY, "x"),
            concat("z", "y", "y", "zp"),
        ),
    )
    graph = check_straightline(problem)
    assert graph.order == ("x", "zp", "y", "z")
    assert graph.sources == ("x", "zp")
    assert graph.uses["z"] == ("y", "zp")
    assert graph.uses["y"] == ("x",)


def test_self_reference_is_a_two_step_cycle():
    problem = Problem(
        alphabet=AB, str_vars=("x", "y"), relations=(concat("x", "x", "y"),)
    )
    with pytest.raises(CyclicDefinition) as info:
        check_straightline(problem)
    assert info.value.cycle == ("x", "x")


def test_cycle_witness_is_shortest_and_deterministic():
    problem = Problem(
        alphabet=AB,
        str_vars=("w", "x", "y", "z"),
        relations=(
            concat("w", "x"),       # dead-end feeder into the loop
            concat("x", "y"),
            concat("y", "z"),
            concat("z", "x"),
        ),
    )
    with pytest.raises(CyclicDefinition) as info:
        check_straightline(problem)
    assert info.value.cycle == ("x", "y", "z", "x")


def test_double_definition_is_rejected():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(concat("x", "y"), TransducerEq("x", "copy", COPY, "y")),
    )
    with pytest.raises(MultiplyDefined) as info:
        check_straightline(problem)
    assert info.value.var == "x"
    assert isinstance(info.value, NotStraightLine)


def test_illformed_problem_raises_plain_value_error():
    problem = Problem(alphabet=AB, str_vars=("x",), relations=(concat("x", "ghost"),))
    with pytest.raises(ValueError) as info:
        check_straightline(problem)
    assert not isinstance(info.value, NotStraightLine)
    assert "ghost" in str(info.value)


def test_order_breaks_ties_by_declaration_position():
    forward = Problem(alphabet=AB, str_vars=("a", "b"))
    backward = Problem(alphabet=AB, str_vars=("b", "a"))
    assert check_straightline(forward).order == ("a", "b")
    assert check_straightline(backward).order == ("b", "a")


def test_uses_lists_distinct_variables_in_first_occurrence_order():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "z", "x"),
        relations=(concat("x", "z", Lit("ab"), "y", "z"),),
    )
    graph = check_straightline(problem)
    assert graph.uses["x"] == ("z", "y")


# ---------------------------------------------------------------------------
# Piece counts and the dimension statistic


def test_split_counts_sum_variable_occurrences():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x", "z"),
        relations=(
            concat("x", "y", Lit("ab"), "y"),
            TransducerEq("z", "copy", COPY, "x"),
        ),
    )
    shapes = split_concat(problem)
    assert {var: len(shape.slots) for var, shape in shapes.items()} == {
        "y": 1,
        "x": 2,
        "z": 2,
    }
    assert dimension(problem) == 2
    # Each literal item counts one more piece: x and z then count 3, and
    # w = z "a" "b" counts 5, its two adjacent literals separately.
    assert dimension(problem, count_constants=True) == 3
    longer = replace(
        problem,
        str_vars=(*problem.str_vars, "w"),
        relations=(*problem.relations, concat("w", "z", Lit("a"), Lit("b"))),
    )
    assert dimension(longer, count_constants=True) == 5


def test_dimension_is_the_largest_split_count():
    doubling = Problem(
        alphabet=AB,
        str_vars=("x0", "x1", "x2", "x3"),
        relations=(
            concat("x1", "x0", "x0"),
            concat("x2", "x1", "x1"),
            concat("x3", "x2", "x2"),
        ),
    )
    assert dimension(doubling) == 8

    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(concat("x", "y", Lit("a"), Lit("b"), "y"),),
    )
    assert dimension(problem) == 2
    assert dimension(problem, count_constants=True) == 4


def test_dimension_counts_the_folded_problem_solve_splits():
    # ``x = "ab"`` folds into a membership, so ``x`` is a one-piece source
    # and ``y = x . x`` is cut into two pieces.
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(concat("x", Lit("ab")), concat("y", "x", "x")),
    )
    assert dimension(problem) == 2
    assert dimension(problem, count_constants=True) == 2

    constant = Problem(
        alphabet=AB,
        str_vars=("x",),
        relations=(concat("x", Lit("a"), Lit("b")),),
    )
    assert dimension(constant) == 1
    assert dimension(constant, count_constants=True) == 2


def test_dimension_refuses_what_solve_refuses():
    twice = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(concat("x", "y"), concat("x", Lit("a"))),
    )
    with pytest.raises(MultiplyDefined):
        dimension(twice)


def test_dimension_of_variable_free_problem_is_zero():
    assert dimension(Problem(alphabet=AB, str_vars=())) == 0


def test_dimension_of_unrelated_variables_is_one():
    assert dimension(Problem(alphabet=AB, str_vars=("x", "y"))) == 1


# ---------------------------------------------------------------------------
# Scaling


def chain_check_seconds(n: int) -> float:
    """The fastest of three checks of an ``n``-atom equation chain."""
    names = tuple(f"x{i}" for i in range(n + 1))
    relations = tuple(concat(names[i + 1], names[i], Lit("a")) for i in range(n))
    problem = Problem(alphabet=AB, str_vars=names, relations=relations)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        graph = check_straightline(problem)
        times.append(time.perf_counter() - start)
        assert graph.order == names
    return min(times)


def test_hundred_thousand_atom_chain_is_checked_fast():
    # Linear time, stated as a ratio of two timings in one process so
    # that a busy machine slows both sides: ten times the atoms must cost
    # well under thirty times as much (about fifteen is usual; a
    # quadratic check costs about a hundred).
    small = chain_check_seconds(10_000)
    large = chain_check_seconds(100_000)
    assert large < 30 * small
