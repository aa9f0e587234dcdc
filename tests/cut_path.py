"""The cut path of ``solve``, run on any string-only problem.

``solve`` decides a sharing-free string-only problem by forward ranges
(``slsolve.forward``) and sends every other problem down the cut path:
membership normalization, cut placement (``_branch_forests``),
propagation (``_propagate``) and extraction (``_extract`` and
``_join_model``).  :func:`cut_solve` runs those stages directly, in the
order ``solve`` runs them, so that tests of their mechanisms may use
sharing-free inputs, and so that the two paths can be compared.  It
looks each stage up on the ``solver`` module when it runs, so a test's
``monkeypatch`` of a stage applies here too.  Pytest does not collect
this file (its name has no ``test_`` prefix).
"""

from __future__ import annotations

from typing import Optional

from slsolve import solver
from slsolve.automata import nfa_universal
from slsolve.constraints import Problem, evaluate
from slsolve.solver import Budget, BudgetExhausted, Verdict


def cut_solve(
    problem: Problem,
    *,
    resource_limit: int = 2_000_000,
    stats: Optional[dict] = None,
) -> Verdict:
    """``solve`` on a string-only problem, always through the cut path.

    ``stats`` gets the keys ``solve`` gives a cut-path solve.
    """
    assert not problem.has_extensions
    folded, graph = solver._checked_fold(problem)
    shapes = solver.split_concat(graph)
    seg_cache: dict = {}
    budget = Budget(resource_limit)
    universal = nfa_universal(folded.alphabet)
    branches = forests = feasible_forests = 0
    try:
        for _values, var_nfas in solver.normalize_regular(folded, universal):
            branches += 1
            for forest in solver._branch_forests(
                folded, graph, shapes, var_nfas, seg_cache, budget, universal
            ):
                forests += 1
                feasible = solver._propagate(forest)
                if feasible is None:
                    continue
                feasible_forests += 1
                value = solver._extract(forest, feasible, budget)
                model = solver._join_model(folded, shapes, value)
                assert evaluate(problem, model)
                return Verdict("sat", model=model)
        return Verdict("unsat")
    except BudgetExhausted:
        return Verdict("resource-limit")
    finally:
        if stats is not None:
            stats["membership-branches"] = branches
            stats["forests"] = forests
            stats["feasible-forests"] = feasible_forests
            stats["cut-placements"] = budget.placements
