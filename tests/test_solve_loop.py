"""One solve loop for string-only and extension problems.

``solve`` runs membership normalization, splitting and forest
propagation once for both kinds of problem; only the step taken on a
feasible forest differs (extraction, or a walk per scenario).  Copies of
the two loops it replaced — the string-only loop of ``solve`` and the
extension loop ``solve_extended`` — are kept here as the reference: on
every problem below the new loop must give the same verdict and the same
``stats``, except that an extension solve now also counts its feasible
forests.  The small budget pins where a solve runs out.
"""

from __future__ import annotations

from typing import Optional

import pytest

from slsolve.constraints import Assignment, Problem, TransducerEq, evaluate
from slsolve.extensions import (
    LoweredProblem,
    MultiTrackAutomaton,
    counter_walk_solve,
    default_int_bound,
    enumerate_scenarios,
    lower_integer_terms,
)
from slsolve.solver import (
    AcForest,
    Budget,
    Verdict,
    _branch_forests,
    _checked_fold,
    _extract,
    _join_model,
    _propagate,
    normalize_regular,
    solve,
    split_concat,
)
from slsolve.straightline import DependencyGraph
from slsolve.transducer import Transducer
from slsolve.websec import benchmark_names, load_benchmark

# ---------------------------------------------------------------------------
# The reference: the string-only loop and the extension loop, separately


def reference_solve(
    problem: Problem,
    *,
    int_bound: Optional[int] = None,
    resource_limit: int = 2_000_000,
    stats: Optional[dict] = None,
) -> Verdict:
    """Decide a straight-line problem; produce a model when satisfiable.

    Raises :class:`slsolve.straightline.NotStraightLine` (or ValueError
    for ill-formed input) rather than guessing on problems outside the
    fragment.  For string-only problems ``sat`` and ``unsat`` are
    definitive.  When integer, character, index-of or disequality
    constraints are present the search is exhaustive only up to
    ``int_bound`` (a default is derived from the problem when None), so
    the negative answer weakens to ``unsat-within-bounds`` unless the
    bound provably covers all integers.  ``resource_limit`` caps the
    work of every solve: each cut or boundary placement costs one unit,
    as does each step of the bounded walk, and the answer is
    ``resource-limit`` once it runs out.

    Models returned are always verified against the original problem
    before being reported.  A ``stats`` dict, when supplied, is filled
    with deterministic search counters, whatever the verdict.
    """
    folded, graph = _checked_fold(problem)
    if folded.has_extensions:
        return reference_solve_extended(
            folded,
            graph,
            int_bound=int_bound,
            resource_limit=resource_limit,
            stats=stats,
        )

    shapes = split_concat(folded, graph)
    norm_ts = {
        idx: rel.transducer.normalized
        for idx, rel in enumerate(folded.relations)
        if isinstance(rel, TransducerEq)
    }
    seg_cache: dict[tuple[int, int, int, Optional[int]], Transducer] = {}
    budget = Budget(resource_limit)
    branches = forests = feasible_forests = 0

    def note() -> None:
        if stats is not None:
            stats["membership-branches"] = branches
            stats["forests"] = forests
            stats["feasible-forests"] = feasible_forests
            stats["cut-placements"] = budget.placements

    for _values, var_nfas in normalize_regular(folded):
        branches += 1
        for forest in _branch_forests(
            folded, graph, shapes, var_nfas, norm_ts, seg_cache, budget
        ):
            forests += 1
            feasible = _propagate(forest)
            if feasible is None:
                continue
            feasible_forests += 1
            model = _join_model(folded, shapes, _extract(forest, feasible))
            if not evaluate(problem, model):
                raise RuntimeError(
                    "internal error: extracted model failed verification"
                )
            note()
            return Verdict("sat", model=model)
        if budget.remaining < 0:
            note()
            return Verdict("resource-limit")
    note()
    return Verdict("unsat")


def reference_solve_extended(
    problem: Problem,
    graph: DependencyGraph,
    *,
    int_bound: Optional[int] = None,
    resource_limit: int = 2_000_000,
    stats: Optional[dict] = None,
) -> Verdict:
    """Decide a problem with extension constraints, bounded by ``int_bound``.

    Reuses the core solver's branch enumeration for the string skeleton;
    each surviving branch is crossed with every lowering scenario and
    walked.  The first satisfying walk wins; otherwise the weakest
    caveat seen anywhere (resource exhaustion, then bound dependence)
    qualifies the negative answer.
    """
    bound = default_int_bound(problem) if int_bound is None else int_bound
    shapes = split_concat(problem, graph)
    int_tree = lower_integer_terms(problem.integers, shapes)
    scenarios = list(enumerate_scenarios(problem, shapes))
    budget = Budget(resource_limit)

    norm_ts = {
        idx: rel.transducer.normalized
        for idx, rel in enumerate(problem.relations)
        if isinstance(rel, TransducerEq)
    }
    seg_cache: dict = {}
    any_within = False
    any_resource = False
    walks = branches = forests = 0

    def note() -> None:
        if stats is not None:
            stats["membership-branches"] = branches
            stats["forests"] = forests
            stats["scenarios"] = len(scenarios)
            stats["walks"] = walks
            stats["budget-left"] = budget.remaining
            stats["cut-placements"] = budget.placements

    for _values, var_nfas in normalize_regular(problem):
        branches += 1
        for forest in _branch_forests(
            problem, graph, shapes, var_nfas, norm_ts, seg_cache, budget
        ):
            forests += 1
            feasible = _propagate(forest)
            if feasible is None:
                continue
            refined = AcForest(
                forest.order, feasible, forest.children, forest.parent
            )
            mta = MultiTrackAutomaton(refined)
            for scenario in scenarios:
                walks += 1
                lowered = LoweredProblem(
                    mta, scenario, int_tree, problem.int_vars, problem.alphabet
                )
                result = counter_walk_solve(lowered, bound, budget)
                if result.status == "sat":
                    assert result.node_words is not None
                    assert result.int_values is not None
                    model: Assignment = _join_model(
                        problem, shapes, result.node_words
                    )
                    for var in problem.int_vars:
                        model[var] = result.int_values.get(var, 0)
                    if not evaluate(problem, model):
                        raise RuntimeError(
                            "internal error: extended model failed verification"
                        )
                    note()
                    return Verdict("sat", model=model)
                if result.status == "within":
                    any_within = True
                elif result.status == "resource":
                    any_resource = True
            if any_resource:
                break
        any_resource = any_resource or budget.remaining < 0
        if any_resource:
            break

    note()
    if any_resource:
        return Verdict("resource-limit", int_bound=bound)
    if any_within:
        return Verdict("unsat-within-bounds", int_bound=bound)
    return Verdict("unsat")


# ---------------------------------------------------------------------------
# The one loop, checked against the reference


def assert_same(problem: Problem, **kwargs) -> Verdict:
    expected_stats: dict = {}
    stats: dict = {}
    expected = reference_solve(problem, stats=expected_stats, **kwargs)
    verdict = solve(problem, stats=stats, **kwargs)
    assert verdict == expected
    if problem.has_extensions:
        assert 0 <= stats.pop("feasible-forests") <= stats["forests"]
    assert stats == expected_stats
    return verdict


@pytest.mark.parametrize("name", benchmark_names())
def test_sanitizer_benchmarks_match_the_reference(name):
    assert_same(load_benchmark(name).problem)


def test_string_only_problems_match_the_reference(string_problems):
    statuses = {assert_same(problem).status for problem in string_problems[:300]}
    assert statuses == {"sat", "unsat"}


@pytest.mark.parametrize("limit", [10_000, 300])
def test_extension_problems_match_the_reference(extension_problems, limit):
    statuses = {
        assert_same(problem, resource_limit=limit).status
        for problem in extension_problems
    }
    assert statuses == {"sat", "unsat", "unsat-within-bounds", "resource-limit"}
