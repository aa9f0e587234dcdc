"""Forward ranges: sharing-free string problems decided without cuts.

A problem is *sharing-free* when every variable occurs at most once on
the right-hand sides of all relations, so its dependency graph is a
forest (:func:`slsolve.solver.sharing_free`).  Then no value feeds two
users, and no cut needs guessing.  Under one membership branch, the
values each variable can take form a regular language, its *range*,
computed forward in graph order:

- a source's range is its membership automaton ``R_x``;
- ``x = T(y)`` has range ``R_x ∩ T(range(y))``;
- ``x = y . "lit" . z`` has range ``R_x ∩ range(y)·lit·range(z)``.

Every word of a range extends to values of all its ancestors, since no
ancestor has another user, so the branch is satisfiable iff no range is
empty.  This is the forward automata analysis of string programs (Yu,
Bultan, Cova and Ibarra, SPIN 2008).  A concatenation whose membership
is universal and whose user is a concatenation gets no range of its
own: its items are spliced into its user's item list.  Ranges that a
relation reads are reduced; a sink's (a variable no relation reads) is
only searched for its shortest word, so it is not.

The model is read top-down, in reverse graph order.  A sink takes the
shortest word of its range.  A variable whose word is known passes it
down: an image gives its argument the shortest word of the argument's
range that the transducer maps to the known word, found by
:func:`~slsolve.transducer.shortest_related` without building the
word's pre-image, and a concatenation is split by a dynamic program over
its items' ranges (:func:`_split`).  Spliced concatenations are joined
back from their items last.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from .automata import (
    Nfa,
    nfa_eps_eliminate,
    nfa_nonempty_shortest,
    nfa_reduce,
)
from .constraints import Assignment, ConcatEq, ConcatItem, Lit, Problem, Var
from .solver import Budget, _range_step
from .straightline import DependencyGraph
from .transducer import shortest_related


class ForwardRanges:
    """Decides one sharing-free, string-only problem branch by branch.

    ``built`` counts the ranges computed so far.  Each product a range
    needs charges ``budget`` its state count, and each search the model
    needs one unit per product state it visits.  ``universal`` is the
    solve's one universal automaton, which marks the memberships that
    constrain nothing.
    """

    def __init__(
        self,
        problem: Problem,
        graph: DependencyGraph,
        budget: Budget,
        universal: Nfa,
    ) -> None:
        self.problem = problem
        self.graph = graph
        self.budget = budget
        self.built = 0
        self.universal = universal
        #: The left-hand side of the one relation reading each variable.
        self.user = {
            name: var for var, names in graph.uses.items() for name in names
        }

    def model(self, var_nfas: dict[str, Nfa]) -> Optional[Assignment]:
        """A model under one branch's automata, or None if it has none."""
        defining = self.graph.defining
        spliced = {
            var
            for var, rel in defining.items()
            if isinstance(rel, ConcatEq)
            and var_nfas[var] == self.universal
            and isinstance(defining.get(self.user.get(var)), ConcatEq)
        }
        items: dict[str, list[ConcatItem]] = {}
        ranges: dict[str, Nfa] = {}
        for var in self.graph.order:
            rel = defining.get(var)
            if var in spliced:
                continue
            if rel is None:
                rng = var_nfas[var]
            else:
                if isinstance(rel, ConcatEq):
                    items[var] = self._spliced_items(rel, spliced)
                    rel = replace(rel, items=tuple(items[var]))
                within = None if var_nfas[var] == self.universal else var_nfas[var]
                rng = _range_step(self.problem, rel, within, ranges, self.budget)
                self.built += 1
                if var in self.user:
                    rng = nfa_reduce(rng)
            if not rng.finals:
                return None
            ranges[var] = rng
        word = self._words(ranges, items)
        for var in self.graph.order:
            if var in spliced:
                word[var] = "".join(
                    item.text if isinstance(item, Lit) else word[item.name]
                    for item in defining[var].items
                )
        return {var: word[var] for var in self.problem.str_vars}

    def _spliced_items(self, rel: ConcatEq, spliced: set[str]) -> list[ConcatItem]:
        """``rel``'s items with spliced concatenations expanded, nested
        ones too, and adjacent literals merged.

        The expansion keeps a stack of item iterators, one per open
        concatenation, so a chain of any length fits.  A spliced
        concatenation has one user, so it is expanded once, in place.
        """
        out: list[ConcatItem] = []
        stack = [iter(rel.items)]
        while stack:
            item = next(stack[-1], None)
            if item is None:
                stack.pop()
            elif isinstance(item, Var) and item.name in spliced:
                stack.append(iter(self.graph.defining[item.name].items))
            elif isinstance(item, Lit) and out and isinstance(out[-1], Lit):
                out[-1] = Lit(out[-1].text + item.text)
            else:
                out.append(item)
        return out

    def _words(
        self, ranges: dict[str, Nfa], items: dict[str, list[ConcatItem]]
    ) -> dict[str, str]:
        """One word per variable with a range, read top-down.

        An image's argument takes the least word of its range that the
        transducer relates to the image's word, by a search over word
        positions and states (:func:`shortest_related`); the search
        charges the budget one unit per product state it visits.
        """
        word: dict[str, str] = {}
        for var in reversed(self.graph.order):
            if var not in ranges:
                continue
            if var not in word:
                word[var] = _witness(nfa_nonempty_shortest(ranges[var]))
            rel = self.graph.defining.get(var)
            if isinstance(rel, ConcatEq):
                pieces = _split(word[var], items[var], ranges)
                for item, piece in zip(items[var], pieces):
                    if isinstance(item, Var):
                        word[item.name] = piece
            elif rel is not None:
                word[rel.arg] = _witness(
                    shortest_related(
                        rel.transducer,
                        word[var],
                        ranges[rel.arg],
                        False,
                        self.budget.charge,
                    )
                )
        return word


def _witness(word: Optional[str]) -> str:
    if word is None:
        raise RuntimeError("internal error: a forward range lost its witness")
    return word


def _split(word: str, items: list[ConcatItem], ranges: dict[str, Nfa]) -> list[str]:
    """Cut ``word`` into one piece per item: each literal's own text, each
    variable's a word of its range.

    The positions each item can end at are found front to back, from the
    positions the item before can end at; then the pieces are chosen
    back to front, each starting as early as a split of the rest allows.
    So later variables take the longest pieces.
    """
    # steps[i][j]: the positions item i can end at when it starts at j.
    steps: list[dict[int, list[int]]] = []
    frontier = {0}
    for item in items:
        step: dict[int, list[int]] = {}
        for j in frontier:
            if isinstance(item, Lit):
                if word.startswith(item.text, j):
                    step[j] = [j + len(item.text)]
            else:
                step[j] = _ends(nfa_eps_eliminate(ranges[item.name]), word, j)
        steps.append(step)
        frontier = {k for ends in step.values() for k in ends}
    pieces: list[str] = []
    end = len(word)
    for step in reversed(steps):
        start = min(j for j, ends in step.items() if end in ends)
        pieces.append(word[start:end])
        end = start
    return pieces[::-1]


def _ends(nfa: Nfa, word: str, start: int) -> list[int]:
    """Every ``k`` with ``word[start:k]`` accepted by the epsilon-free ``nfa``."""
    states = frozenset({nfa.initial})
    out = [start] if states & nfa.finals else []
    for k in range(start, len(word)):
        states = nfa.step(states, word[k])
        if not states:
            break
        if states & nfa.finals:
            out.append(k + 1)
    return out
