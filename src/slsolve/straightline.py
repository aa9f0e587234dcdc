"""Straight-line form: definition discipline, ordering, and the dimension.

A conjunction of relational constraints is *straight-line* when every
variable has at most one defining equation and the definitions can be
ordered so each right-hand side mentions only source variables or
variables defined earlier.  Equivalently: definitions are unique and the
use-definition graph is acyclic.  This module produces that ordering (or
a minimal witness of failure) and reads the dimension parameter off the
piece decomposition the decision procedure splits.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .constraints import ConcatEq, Lit, Problem, RelAtom, Var, problem_wellformed


class NotStraightLine(ValueError):
    """The relational constraints are not in straight-line form."""


class MultiplyDefined(NotStraightLine):
    def __init__(self, var: str) -> None:
        super().__init__(f"variable {var!r} has more than one defining equation")
        self.var = var


class CyclicDefinition(NotStraightLine):
    def __init__(self, cycle: tuple[str, ...]) -> None:
        shown = " -> ".join(cycle)
        super().__init__(f"definitions form a cycle: {shown}")
        self.cycle = cycle


@dataclass(frozen=True)
class DependencyGraph:
    """The result of a successful straight-line check.

    ``order`` lists every string variable in a valid evaluation order
    (ties broken by declaration position, so it is canonical).
    ``defining`` maps each non-source variable to its equation; ``uses``
    maps it to the distinct variables its right-hand side mentions, in
    first-occurrence order.
    """

    order: tuple[str, ...]
    sources: tuple[str, ...]
    defining: Mapping[str, RelAtom]
    uses: Mapping[str, tuple[str, ...]]


def check_straightline(problem: Problem) -> DependencyGraph:
    """Verify straight-line form and return the canonical ordering.

    :raises MultiplyDefined: if some variable has two defining equations.
    :raises CyclicDefinition: if definitions are mutually recursive; the
        exception carries a shortest cycle, first variable repeated at
        the end.
    :raises ValueError: if the problem is not well-formed at all.
    """
    errors = problem_wellformed(problem)
    if errors:
        raise ValueError("; ".join(errors))

    defining: dict[str, RelAtom] = {}
    uses: dict[str, tuple[str, ...]] = {}
    for rel in problem.relations:
        var = rel.lhs
        if var in defining:
            raise MultiplyDefined(var)
        defining[var] = rel
        if isinstance(rel, ConcatEq):
            # A dict keeps each name once, at its first occurrence.
            uses[var] = tuple(
                {item.name: None for item in rel.items if isinstance(item, Var)}
            )
        else:
            uses[var] = (rel.arg,)

    # Kahn's algorithm over declaration indices, with a min-heap of the
    # ready variables so ties break by declaration position.
    str_vars = problem.str_vars
    decl_index = {v: i for i, v in enumerate(str_vars)}
    pending = [0] * len(str_vars)
    dependents: list[list[int]] = [[] for _ in str_vars]
    for var, used in uses.items():
        index = decl_index[var]
        pending[index] = len(used)
        for name in used:
            dependents[decl_index[name]].append(index)

    ready = [i for i, n in enumerate(pending) if n == 0]
    order: list[str] = []
    while ready:
        index = heapq.heappop(ready)
        order.append(str_vars[index])
        for dependent in dependents[index]:
            pending[dependent] -= 1
            if pending[dependent] == 0:
                heapq.heappush(ready, dependent)

    if len(order) < len(str_vars):
        residual = {str_vars[i] for i, n in enumerate(pending) if n > 0}
        raise CyclicDefinition(_shortest_cycle(problem, uses, residual))

    sources = tuple(v for v in problem.str_vars if v not in defining)
    return DependencyGraph(tuple(order), sources, defining, uses)


def _shortest_cycle(
    problem: Problem,
    uses: dict[str, tuple[str, ...]],
    residual: set[str],
) -> tuple[str, ...]:
    """A shortest definition cycle among the unresolvable variables.

    Deterministic: candidate start variables are tried in declaration
    order and the breadth-first search expands dependencies in
    declaration order, so the same problem always reports the same
    witness.
    """
    decl_index = {v: i for i, v in enumerate(problem.str_vars)}

    def deps(var: str) -> list[str]:
        return sorted(
            (u for u in uses.get(var, ()) if u in residual),
            key=decl_index.__getitem__,
        )

    for start in sorted(residual, key=decl_index.__getitem__):
        parent: dict[str, str] = {}
        queue = deque([start])
        found = None
        while queue and found is None:
            var = queue.popleft()
            for nxt in deps(var):
                if nxt == start:
                    found = var
                    break
                if nxt not in parent:
                    parent[nxt] = var
                    queue.append(nxt)
        if found is not None:
            path = [found]
            while path[-1] != start:
                path.append(parent[path[-1]])
            path.reverse()
            return (start, *path[1:], start) if len(path) > 1 else (start, start)
    raise AssertionError("no cycle among residual variables")


def dimension(problem: Problem, count_constants: bool = False) -> int:
    """The most pieces any variable is cut into (0 without string variables).

    This is the fragment's complexity dial: solving is exponential only
    in this number.  It is read off the piece decomposition
    :func:`slsolve.solver.solve` splits, where a variable-free equation
    such as ``x = "ab"`` has been folded into a membership, making ``x``
    a source.  With ``count_constants`` the literal items of the given
    concatenations are tallied too, each occurrence separately, matching
    the coarser statistic sometimes quoted for benchmark families.
    """
    from .solver import _checked_fold, split_concat  # solver imports this module

    if not count_constants:
        shapes = split_concat(_checked_fold(problem)[1])
        return max((len(shape.slots) for shape in shapes.values()), default=0)
    graph = check_straightline(problem)
    shapes = split_concat(graph)
    literals: dict[str, int] = {}
    for var in graph.order:
        rel = graph.defining.get(var)
        if isinstance(rel, ConcatEq):
            literals[var] = sum(
                1 if isinstance(item, Lit) else literals[item.name]
                for item in rel.items
            )
        else:
            literals[var] = 0 if rel is None else literals[rel.arg]
    return max((len(shapes[v].slots) + literals[v] for v in graph.order), default=0)
