"""The bounded counter walk of the extension solver.

``counter_walk_solve`` keeps each walk state as one flat tuple of ints
with the id of its product state in slot 0, steps through one table of
planned moves per id and compiles the acceptance check's leaves once
per walk.  Every walk that ``solve`` makes on the seeded extension
corpus, at resource limits 10,000 and 300, is pinned: the walk count,
and one digest of ``(repr(result), budget left)`` per walk in call
order, a walk that spends the budget giving ``("resource", -1)``.  This
is a semantic pin, as the budget left decides where a solve stops with
``resource-limit``.  The seeded walks are backed by two sets of
hand-made walks, each stating its status, budget left and model:
walks whose acceptance check tries many combinations of free integers,
where the budget runs out between two of them, and one walk per path
of the successor loop (no freezable position term, one, two, a
mandatory ceiling, a match tracker's first completion).

The pins and the first set were recorded while a copy of an earlier
walk (moves regenerated for every popped state, counter updates
re-derived for every candidate successor, every tree re-evaluated for
every combination of free integers) still checked each walk: same
result, same budget left.  The second set was recorded while walk
states still held the nested product state; its two-term walks fail
when the forks come out with the last term slowest, or frozen first.
The seeded pins were re-recorded when a spent budget began to end the
solve: each solve's walks up to the first that spends the budget are
those of the earlier walk, and no walk follows that one.  To re-record
the pins, run ``python3 tests/test_walk.py`` and paste the dict it
prints into ``WALKS``.
"""

from __future__ import annotations

from typing import Optional

import pytest
from outcome_digest import digest

from slsolve import extensions
from slsolve.extensions import Budget, LoweredProblem, WalkResult
from slsolve.oracle import gen_random_problem
from slsolve.parser import parse_problem
from slsolve.solver import BudgetExhausted, solve

Walk = tuple[LoweredProblem, Optional[WalkResult], int]


def record_walks(monkeypatch) -> list[Walk]:
    """Record each walk a solve makes, with the budget it leaves.

    A walk that spends the budget is recorded with no result (its
    ``BudgetExhausted`` is raised again)."""
    walk = extensions.counter_walk_solve
    walks: list[Walk] = []

    def recorded(lowered: LoweredProblem, int_bound: int, budget: Budget) -> WalkResult:
        try:
            result = walk(lowered, int_bound, budget)
        except BudgetExhausted:
            walks.append((lowered, None, budget.remaining))
            raise
        walks.append((lowered, result, budget.remaining))
        return result

    monkeypatch.setattr(extensions, "counter_walk_solve", recorded)
    return walks


def walk_pin(walks) -> tuple[int, str]:
    pairs = [("resource" if r is None else repr(r), left) for _l, r, left in walks]
    return len(walks), digest(pairs)


#: Per resource limit: walks made on the corpus, and their digest.
WALKS = {10_000: (234, "953974f514d715b7"), 300: (231, "283da171ba62f283")}


@pytest.mark.parametrize("limit", [10_000, 300])
def test_every_walk_matches_the_reference(monkeypatch, extension_problems, limit):
    walks = record_walks(monkeypatch)
    for problem in extension_problems:
        solve(problem, resource_limit=limit)
    assert walk_pin(walks) == WALKS[limit]
    statuses = {"resource" if r is None else r.status for _l, r, _left in walks}
    assert {"sat", "unsat", "resource"} <= statuses
    # The walks read every kind of counter, and some automata serve
    # several scenarios, so their memo is shared between walks.
    scenarios = [lowered.scenario for lowered, _result, _left in walks]
    assert any(s.terms for s in scenarios)
    assert any(s.comps for s in scenarios)
    assert any(s.links for s in scenarios)
    automata = [lowered.automaton for lowered, _result, _left in walks]
    assert len({id(a) for a in automata}) < len(automata)


@pytest.mark.parametrize("seed, walks", [(105, 2), (113, 1), (275, 1)])
def test_no_walk_follows_the_one_that_spends_the_budget(
    extension_problems, seed, walks
):
    """Each of these seeds has scenarios left when a walk spends the
    budget at a resource limit of 10,000; none of them is walked."""
    stats: dict = {}
    verdict = solve(extension_problems[seed], resource_limit=10_000, stats=stats)
    assert verdict.status == "resource-limit"
    assert (stats["walks"], stats["budget-left"]) == (walks, -1)
    assert stats["scenarios"] > walks


# ---------------------------------------------------------------------------
# Hand-made walks: the acceptance check's charges per integer combination,
# and one walk per path of the successor loop

HEADER = 'alphabet "ab"\nstr x\n'
#: ``u`` is read by no constraint; ``len x <= -1`` caps ``x`` at length
#: -1, so the walk pops only its initial state and tries every ``u``.
UNREAD = HEADER + "int u\nintc (<= (len x) -1)\n"
#: ``len x <= 0``: the first combination satisfies, whatever ``u``.
UNREAD_SAT = HEADER + "int u\nintc (<= (len x) 0)\n"
#: Two scenarios (``u`` is 0 or 2), each walked as ``UNREAD`` walks; once
#: the first has spent the whole budget, the second is not walked.
TWO_SCENARIOS = (
    HEADER + 'int u v\nintc (<= (len x) -1)\nu = indexof("a", "aba", anywhere)\n'
)
#: ``len x >= 3``: at an integer bound of 1 the length counter
#: saturates, and the check is unknown however ``u`` is chosen.
SATURATED = HEADER + "int u\nintc (<= (* -1 (len x)) -3)\n"
#: A tree that reads the free ``u``.
READ = HEADER + "int u\nintc (<= (+ (len x) u) -1)\n"
#: ``u >= 3``: the fourth combination satisfies.
READ_SAT = HEADER + "int u\nintc (and (<= (+ (len x) (* -1 u)) -3) (<= (len x) 1))\n"
#: Two free integers: ``v - u >= 4``, first satisfied at ``u = 0, v = 4``.
TWO_FREE = HEADER + "int u v\nintc (<= (+ (len x) u (* -1 v)) -4)\n"

#: ``len x >= 2``: every move bumps the length counter, and no
#: constraint places a position term, so no move can freeze one.
NO_FORK = HEADER + "intc (<= (* -1 (len x)) -2)\n"
#: ``x[u] = 'a'`` with ``len x >= 2``: each ``a`` move on ``x`` may
#: freeze the one term.  Unfrozen first finds ``u = 2`` before ``u = 1``.
ONE_FORK = HEADER + "int u\ncharc (= x[u] 'a')\nintc (<= (* -1 (len x)) -2)\n"
#: Two terms on the one piece of ``x``: each ``a`` move while both are
#: unfrozen forks four ways.  The order of those four decides which
#: states are found before the accepting one, so the budget left.
TWO_FORKS = HEADER + "charc (= x[1] 'a')\ncharc (= x[3] 'a')\n"
#: As ``TWO_FORKS``, with the positions left to the walk and required to
#: differ.  Unfrozen first with the first term slowest finds the state
#: that froze ``v`` on the first letter before the one that froze ``u``
#: there, so the model is ``u = 2, v = 1`` and not its mirror image.
TWO_FORKS_FREE = (
    HEADER
    + "int u v\ncharc (= x[u] 'a')\ncharc (= x[v] 'a')\n"
    + "intc (or (<= (+ u (* -1 v)) -1) (<= (+ v (* -1 u)) -1))\n"
)
#: ``x ∈ a*b`` with ``len x <= 2`` and at least two ``a``: the mandatory
#: ceiling on the length drops the third letter's moves, so the walk
#: ends definite (unsat) instead of saturating the counter.
CEILING = (
    HEADER
    + "regc (in x /a*b/)\nintc (<= (len x) 2)\nintc (<= (* -1 (count x 'a')) -2)\n"
)
#: The first ``ab`` in ``x`` starts at index 2 or later: the match
#: tracker records its first completion and keeps it.
FIRST_MATCH = HEADER + 'int u\nu = indexof("ab", x, first)\nintc (<= (* -1 u) -2)\n'


@pytest.mark.parametrize(
    "text, int_bound, limit, status, left, model",
    [
        (UNREAD, 1, 100, "unsat", 98, None),
        (UNREAD, 1, 1, "resource-limit", -1, None),
        (UNREAD, 5, 3, "resource-limit", -1, None),
        (UNREAD, 5, 6, "unsat", 0, None),
        (UNREAD, 5, 5, "resource-limit", -1, None),
        (UNREAD_SAT, 5, 100, "sat", 99, {"x": "", "u": 0}),
        (TWO_SCENARIOS, 5, 3, "resource-limit", -1, None),
        (SATURATED, 1, 100, "unsat-within-bounds", 92, None),
        (READ, 5, 100, "unsat-within-bounds", 94, None),
        (READ, 5, 3, "resource-limit", -1, None),
        (READ_SAT, 5, 4, "sat", 0, {"x": "", "u": 3}),
        (READ_SAT, 5, 3, "resource-limit", -1, None),
        (TWO_FREE, 5, 100, "sat", 95, {"x": "", "u": 0, "v": 4}),
        (NO_FORK, 5, 100, "sat", 95, {"x": "aa"}),
        (ONE_FORK, 5, 100, "sat", 91, {"x": "aa", "u": 2}),
        (TWO_FORKS, 5, 100, "sat", 59, {"x": "aaa"}),
        (TWO_FORKS_FREE, 5, 100, "sat", 75, {"x": "aa", "u": 2, "v": 1}),
        (CEILING, 5, 100, "unsat", 94, None),
        (FIRST_MATCH, 5, 100, "sat", 29, {"x": "aab", "u": 2}),
    ],
    ids=[
        "unread-two-combinations",
        "unread-out-after-one",
        "unread-out-after-three",
        "unread-exactly-enough",
        "unread-one-short",
        "unread-sat-at-the-lowest",
        "unread-after-an-exhausted-walk",
        "unread-saturated",
        "read-every-combination",
        "read-out-midway",
        "read-sat-on-the-last-unit",
        "read-out-before-sat",
        "two-free-first-slowest",
        "no-freezable-term",
        "one-freezable-term",
        "two-freezable-terms",
        "two-freezable-terms-free-positions",
        "mandatory-ceiling",
        "first-match-completion",
    ],
)
def test_hand_made_walks_match_the_reference(
    monkeypatch, text, int_bound, limit, status, left, model
):
    walks = record_walks(monkeypatch)
    stats: dict = {}
    verdict = solve(
        parse_problem(text), int_bound=int_bound, resource_limit=limit, stats=stats
    )
    assert len(walks) == 1
    assert (verdict.status, stats["budget-left"]) == (status, left)
    assert verdict.model == model


if __name__ == "__main__":
    problems = [gen_random_problem(seed, with_extensions=True) for seed in range(300)]
    pins = {}
    for limit in WALKS:
        with pytest.MonkeyPatch.context() as patch:
            walks = record_walks(patch)
            for problem in problems:
                solve(problem, resource_limit=limit)
        pins[limit] = walk_pin(walks)
    print(pins)
