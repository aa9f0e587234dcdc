"""The bounded counter walk of the extension solver.

``counter_walk_solve`` keeps each walk state as one flat tuple, steps
through per-product-state tables of planned moves and compiles the
acceptance check's leaves once per walk.  Every walk that ``solve``
makes on the seeded extension corpus, at resource limits 10,000 and
300, is pinned: the walk count, and one digest of ``(repr(result),
budget left)`` per walk in call order.  This is a semantic pin, as the
budget left decides where a solve stops with ``resource-limit``.  The
seeded walks are backed by hand-made walks whose acceptance check tries
many combinations of free integers, where the budget runs out between
two of them; each states its status, budget left and model.

The pins and the hand-made answers were recorded while a copy of an
earlier walk (moves regenerated for every popped state, counter updates
re-derived for every candidate successor, every tree re-evaluated for
every combination of free integers) still checked each walk: same
result, same budget left.  To re-record, print ``walk_pin`` for each
limit and paste the pair into ``WALKS``.
"""

from __future__ import annotations

import pytest
from outcome_digest import digest

from slsolve import extensions
from slsolve.extensions import Budget, LoweredProblem, WalkResult
from slsolve.parser import parse_problem
from slsolve.solver import solve


def record_walks(monkeypatch) -> list[tuple[LoweredProblem, WalkResult, int]]:
    """Record each walk a solve makes, with the budget it leaves."""
    walk = extensions.counter_walk_solve
    walks: list[tuple[LoweredProblem, WalkResult, int]] = []

    def recorded(lowered: LoweredProblem, int_bound: int, budget: Budget) -> WalkResult:
        result = walk(lowered, int_bound, budget)
        walks.append((lowered, result, budget.remaining))
        return result

    monkeypatch.setattr(extensions, "counter_walk_solve", recorded)
    return walks


def walk_pin(walks) -> tuple[int, str]:
    return len(walks), digest([(repr(result), left) for _l, result, left in walks])


#: Per resource limit: walks made on the corpus, and their digest.
WALKS = {10_000: (395, "4683cdac0c71a6f2"), 300: (403, "de29cc06af78992f")}


@pytest.mark.parametrize("limit", [10_000, 300])
def test_every_walk_matches_the_reference(monkeypatch, extension_problems, limit):
    walks = record_walks(monkeypatch)
    for problem in extension_problems:
        solve(problem, resource_limit=limit)
    assert walk_pin(walks) == WALKS[limit]
    statuses = {result.status for _lowered, result, _left in walks}
    assert {"sat", "unsat", "resource"} <= statuses
    # The walks read every kind of counter, and some automata serve
    # several scenarios, so their memo is shared between walks.
    scenarios = [lowered.scenario for lowered, _result, _left in walks]
    assert any(s.terms for s in scenarios)
    assert any(s.comps for s in scenarios)
    assert any(s.links for s in scenarios)
    automata = [lowered.automaton for lowered, _result, _left in walks]
    assert len({id(a) for a in automata}) < len(automata)


# ---------------------------------------------------------------------------
# Hand-made walks: the acceptance check's charges per integer combination

HEADER = 'alphabet "ab"\nstr x\n'
#: ``u`` is read by no constraint; ``len x <= -1`` caps ``x`` at length
#: -1, so the walk pops only its initial state and tries every ``u``.
UNREAD = HEADER + "int u\nintc (<= (len x) -1)\n"
#: ``len x <= 0``: the first combination satisfies, whatever ``u``.
UNREAD_SAT = HEADER + "int u\nintc (<= (len x) 0)\n"
#: Two scenarios (``u`` is 0 or 2), each walked as ``UNREAD`` walks; the
#: second starts where the first has spent the whole budget.
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


@pytest.mark.parametrize(
    "text, int_bound, limit, status, left, model",
    [
        (UNREAD, 1, 100, "unsat", 98, None),
        (UNREAD, 1, 1, "resource-limit", -1, None),
        (UNREAD, 5, 3, "resource-limit", -1, None),
        (UNREAD, 5, 6, "unsat", 0, None),
        (UNREAD, 5, 5, "resource-limit", -1, None),
        (UNREAD_SAT, 5, 100, "sat", 99, {"x": "", "u": 0}),
        (TWO_SCENARIOS, 5, 3, "resource-limit", -2, None),
        (SATURATED, 1, 100, "unsat-within-bounds", 92, None),
        (READ, 5, 100, "unsat-within-bounds", 94, None),
        (READ, 5, 3, "resource-limit", -1, None),
        (READ_SAT, 5, 4, "sat", 0, {"x": "", "u": 3}),
        (READ_SAT, 5, 3, "resource-limit", -1, None),
        (TWO_FREE, 5, 100, "sat", 95, {"x": "", "u": 0, "v": 4}),
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
    assert len(walks) == (2 if text is TWO_SCENARIOS else 1)
    assert (verdict.status, stats["budget-left"]) == (status, left)
    assert verdict.model == model
