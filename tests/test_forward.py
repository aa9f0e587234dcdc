"""Forward ranges against the cut path, on every sharing-free input at hand.

``solve`` decides a sharing-free string-only problem by forward ranges
(``slsolve.forward``) and never places a cut for it.  The cut path
(``cut_path.cut_solve``: ``normalize_regular``, ``_branch_forests``,
``_propagate``, ``_extract`` and ``_join_model``, called directly) is
the paper's procedure and decides the same problems.  On every
sharing-free string seed, on ``ex_iframe`` and on the ``pipe`` and
``wrap`` pipelines at depths 1 to 4, both paths must give the same
verdict, and each model must pass ``evaluate``; pipeline models must
also replay through the sanitizer functions.  The two models may differ:
the forward path reads its model top-down from the last values.
"""

from __future__ import annotations

import pytest
from cut_path import cut_solve
from outcome_digest import pipeline_family
from test_websec import pipeline_replay

from slsolve.automata import Alphabet
from slsolve.constraints import ConcatEq, Lit, Problem, TransducerEq, Var, evaluate
from slsolve.parser import parse_problem
from slsolve.solver import (
    fold_constant_relations,
    max_model_bound,
    sharing_free,
    solve,
)
from slsolve.transducer import identity_transducer
from slsolve.websec import load_benchmark

AB = Alphabet.of("ab")


def forward_solve(problem: Problem):
    """``solve``'s verdict, checked to come from forward ranges."""
    stats: dict = {}
    verdict = solve(problem, stats=stats)
    assert stats["forests"] == stats["cut-placements"] == 0
    assert "ranges" in stats
    return verdict


def assert_paths_agree(problem: Problem, replay: bool = False) -> str:
    forward = forward_solve(problem)
    cut = cut_solve(problem)
    assert forward.status == cut.status
    for verdict in (forward, cut):
        if verdict.is_sat:
            assert evaluate(problem, verdict.model)
            if replay:
                assert pipeline_replay(problem, verdict.model) == verdict.model
    return forward.status


def sharing_free_seeds(string_problems) -> list[Problem]:
    return [p for p in string_problems if sharing_free(fold_constant_relations(p))]


def test_sharing_free_string_seeds_agree(string_problems):
    problems = sharing_free_seeds(string_problems)
    assert len(problems) == 474
    statuses = [assert_paths_agree(problem) for problem in problems]
    assert (statuses.count("sat"), statuses.count("unsat")) == (428, 46)


def test_iframe_agrees():
    assert assert_paths_agree(load_benchmark("ex_iframe").problem, True) == "sat"


@pytest.mark.parametrize("name", ["pipe", "wrap"])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_pipelines_agree(name, depth):
    assert assert_paths_agree(pipeline_family(name, depth), True) == "sat"


def test_forward_models_are_within_the_model_bound(string_problems):
    problems = sharing_free_seeds(string_problems)
    problems.append(load_benchmark("ex_iframe").problem)
    problems += [
        pipeline_family(name, depth)
        for name in ("pipe", "wrap")
        for depth in range(1, 5)
    ]
    models = 0
    for problem in problems:
        verdict = forward_solve(problem)
        if verdict.is_sat:
            models += 1
            longest = max(map(len, verdict.model.values()), default=0)
            assert longest <= max_model_bound(problem)
    assert models == 437


def test_sharing_is_counted_on_right_hand_sides():
    def problem(*relations) -> Problem:
        return Problem(
            alphabet=AB, str_vars=("u", "v", "x", "y"), relations=relations
        )

    twice = ConcatEq("x", (Var("u"), Lit("a"), Var("u")))
    assert not sharing_free(problem(twice))
    chain = (
        ConcatEq("x", (Var("u"), Lit("a"), Var("v"))),
        ConcatEq("y", (Var("x"),)),
    )
    assert sharing_free(problem(*chain))
    fed_twice = (
        ConcatEq("x", (Var("u"),)),
        TransducerEq("y", "t", identity_transducer(AB), "u"),
    )
    assert not sharing_free(problem(*fed_twice))
    assert sharing_free(problem())


def test_spliced_concatenations_get_no_range():
    """A universal concatenation feeding a concatenation is spliced into
    its user; a constrained one gets a range."""
    head = 'alphabet "ab"\nstr u v w x y\nw = u . "a"\nx = w . v\ny = x . "b"\n'
    for extra, ranges in (
        ("regc (in y /a+b/)\n", 1),
        ("regc (and (in y /a+b/) (in w /a+/))\n", 2),
    ):
        problem = parse_problem(head + extra)
        stats: dict = {}
        verdict = solve(problem, stats=stats)
        assert verdict.model == {"u": "", "v": "", "w": "a", "x": "a", "y": "ab"}
        assert stats["ranges"] == ranges


def spliced_chain(n: int) -> str:
    """``x{i+1} = x{i} . "a"`` for ``i < n``, with ``x{n}`` in ``b*a*``:
    every concatenation but the last is spliced into its user."""
    names = " ".join(f"x{i}" for i in range(n + 1))
    steps = "".join(f'x{i + 1} = x{i} . "a"\n' for i in range(n))
    return f'alphabet "ab"\nstr {names}\n{steps}regc (in x{n} /b*a*/)\n'


def test_long_spliced_chains_expand_without_recursion():
    """Each spliced concatenation is expanded once, off an explicit
    stack; one call per link overflowed Python's stack at 1,200 links."""
    verdict = forward_solve(parse_problem(spliced_chain(2_000)))
    assert verdict.status == "sat"
    assert verdict.model["x2000"] == "a" * 2_000


def test_concatenations_split_late_items_longest():
    problem = parse_problem(
        'alphabet "ab"\nstr u v x\nx = u . v\n'
        "regc (and (in x /aaa/) (in u /a*/) (in v /a*/))\n"
    )
    assert forward_solve(problem).model == {"u": "", "v": "aaa", "x": "aaa"}
    assert cut_solve(problem).is_sat


def test_forward_ranges_charge_the_budget():
    problem = load_benchmark("ex_iframe").problem
    stats: dict = {}
    assert solve(problem, resource_limit=1, stats=stats).status == "resource-limit"
    assert stats["ranges"] == 0
    deep = pipeline_family("pipe", 8)
    assert solve(deep, resource_limit=1_000).status == "resource-limit"


