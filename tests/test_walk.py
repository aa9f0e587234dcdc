"""The bounded counter walk of the extension solver.

``counter_walk_solve`` keeps each walk state as one flat tuple, steps
through per-product-state tables of planned moves and compiles the
acceptance check's leaves once per walk.  A copy of an earlier walk —
moves regenerated for every popped state, counter updates re-derived
for every candidate successor, every tree re-evaluated for every
combination of free integers — is kept here as the reference: every
walk that ``solve`` makes on an extension problem must give the same
result and leave the same budget, including where the budget runs out.
The seeded corpus is backed by hand-made walks whose acceptance check
tries many combinations of free integers, where the budget runs out
between two of them.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import deque
from itertools import product as iter_product
from typing import Iterator, Optional, Union

import pytest

from slsolve import extensions
from slsolve.constraints import (
    And,
    BoolTree,
    IntTerm,
    Leaf,
    Not,
    Or,
    tree_leaves,
)
from slsolve.extensions import (
    Budget,
    LoweredLinear,
    LoweredProblem,
    LoweredTerm,
    MultiTrackAutomaton,
    NodeId,
    PieceCount,
    PieceLen,
    WalkResult,
    _definite_caps,
    _kmp_delta,
    _Saturated,
)
from slsolve.parser import parse_problem
from slsolve.solver import solve

# ---------------------------------------------------------------------------
# The reference: moves and counter updates recomputed at every step


class ReferenceAutomaton(MultiTrackAutomaton):
    """The product automaton with unmemoised moves and finality."""

    def is_final(self, state: tuple[int, ...]) -> bool:
        n = len(self._nfas)
        return all(
            state[i] in nfa.finals for i, nfa in enumerate(self._nfas)
        ) and all(
            state[n + e] in machine.finals
            for e, (_p, _c, machine) in enumerate(self._edges)
        )

    def moves(
        self, state: tuple[int, ...]
    ) -> Iterator[tuple[int, str, tuple[int, ...]]]:
        """All (track, letter, successor) moves, in deterministic order."""
        n = len(self._nfas)
        for i, nfa in enumerate(self._nfas):
            arcs = nfa.arcs_by_symbol[state[i]]
            parent = self._parent_edge[i]
            for ch in nfa.alphabet:
                nfa_targets = arcs.get(ch, ())
                if not nfa_targets:
                    continue
                if parent is not None:
                    cause = self._out_map[parent][state[n + parent]].get(ch, ())
                    if not cause:
                        continue
                else:
                    cause = (-1,)
                edge_choices = []
                dead = False
                for e in self._out_edges[i]:
                    targets = self._in_map[e][state[n + e]].get(ch, ())
                    if not targets:
                        dead = True
                        break
                    edge_choices.append((e, targets))
                if dead:
                    continue
                for nfa_t in nfa_targets:
                    for cause_t in cause:
                        for combo in iter_product(
                            *(targets for _e, targets in edge_choices)
                        ):
                            nxt = list(state)
                            nxt[i] = nfa_t
                            if parent is not None:
                                nxt[n + parent] = cause_t
                            for (e, _ts), tgt in zip(edge_choices, combo):
                                nxt[n + e] = tgt
                            yield i, ch, tuple(nxt)


def reference_counter_walk_solve(
    lowered: LoweredProblem, int_bound: int, budget: Budget
) -> WalkResult:
    """Breadth-first walk over (product state, capped counters).

    Counters are exact up to ``int_bound`` and saturate above it; every
    acceptance check that would depend on a saturated value abandons
    that state and weakens an eventual negative verdict to
    within-bounds.  Position trackers freeze nondeterministically on a
    letter equal to their guessed character, making frozen values
    1-based positions.  The first satisfying state found (breadth-first,
    deterministic move order) is reconstructed into per-node words.
    """
    mta = lowered.automaton
    scenario = lowered.scenario
    cap = int_bound
    top = cap + 1  # saturation marker

    # --- watched counters -------------------------------------------------
    len_nodes: dict[NodeId, None] = {}
    count_keys: dict[tuple[NodeId, str], None] = {}

    def watch_tree(tree: Optional[BoolTree]) -> None:
        if tree is None:
            return
        for leaf in tree_leaves(tree):
            atom = leaf.atom
            assert isinstance(atom, LoweredLinear)
            for _c, term in atom.terms:
                if isinstance(term, PieceLen):
                    len_nodes.setdefault(term.node)
                elif isinstance(term, PieceCount):
                    count_keys.setdefault((term.node, term.char))

    watch_tree(lowered.int_tree)
    for tree in scenario.extra:
        watch_tree(tree)
    for link in scenario.links:
        for node in link.nodes:
            len_nodes.setdefault(node)
    for pe in scenario.past_ends:
        for node in pe.nodes:
            len_nodes.setdefault(node)
    for node, _needle, _entry in scenario.comps:
        len_nodes.setdefault(node)

    len_order = [n for n in mta.tracks if n in len_nodes]
    len_idx = {n: i for i, n in enumerate(len_order)}
    count_order = sorted(
        count_keys, key=lambda k: (mta.tracks.index(k[0]), k[1])
    )
    count_idx = {k: i for i, k in enumerate(count_order)}
    track_len = [len_idx.get(node) for node in mta.tracks]
    track_counts: list[list[tuple[str, int]]] = [
        [(ch, count_idx[(node, ch)]) for (n2, ch) in count_order if n2 == node]
        for node in mta.tracks
    ]
    track_terms: list[list[int]] = [
        [t for t, (n2, _g) in enumerate(scenario.terms) if n2 == node]
        for node in mta.tracks
    ]
    deltas: dict[str, list[dict[str, int]]] = {}
    for _n, needle, _e in scenario.comps:
        if needle not in deltas:
            deltas[needle] = _kmp_delta(needle, lowered.alphabet)

    mandatory = list(scenario.extra)
    if lowered.int_tree is not None:
        mandatory.append(lowered.int_tree)
    hard_caps = _definite_caps(mandatory)
    len_caps = [hard_caps.get(node) for node in mta.tracks]
    count_caps = {
        count_idx[key]: hard_caps[key] for key in count_order if key in hard_caps
    }
    track_comps: list[list[int]] = [
        [c for c, (n2, _nd, _e) in enumerate(scenario.comps) if n2 == node]
        for node in mta.tracks
    ]

    def bump(value: int) -> int:
        return value + 1 if value <= cap else top

    # --- the walk ---------------------------------------------------------
    init = (
        mta.initial(),
        (0,) * len(len_order),
        (0,) * len(count_order),
        tuple((0, 0) for _ in scenario.terms),
        tuple((entry, -1) for _n, _needle, entry in scenario.comps),
    )
    parents: dict[tuple, Optional[tuple]] = {init: None}
    queue = deque([init])
    touched = False

    # --- acceptance -------------------------------------------------------
    def raw_counter(term: LoweredTerm, state: tuple) -> int:
        """The stored (possibly saturated) counter for a piece term."""
        _prod, lens, counts, _terms, _comps = state
        if isinstance(term, PieceLen):
            return lens[len_idx[term.node]]
        assert isinstance(term, PieceCount)
        return counts[count_idx[(term.node, term.char)]]

    def leaf_value(
        atom: LoweredLinear, ints: dict[str, int], state: tuple
    ) -> Optional[bool]:
        """Three-valued: a saturated counter stands for any value >= top."""
        lo = hi = 0
        lo_open = hi_open = False
        for coeff, term in atom.terms:
            if isinstance(term, IntTerm):
                lo += coeff * ints[term.var]
                hi += coeff * ints[term.var]
                continue
            v = raw_counter(term, state)
            if v < top:
                lo += coeff * v
                hi += coeff * v
            elif coeff > 0:
                lo += coeff * top
                hi_open = True
            else:
                hi += coeff * top
                lo_open = True
        if not hi_open and hi <= atom.bound:
            return True
        if not lo_open and lo > atom.bound:
            return False
        return None

    def tree3(
        tree: BoolTree, ints: dict[str, int], state: tuple
    ) -> Optional[bool]:
        if isinstance(tree, Leaf):
            atom = tree.atom
            assert isinstance(atom, LoweredLinear)
            return leaf_value(atom, ints, state)
        if isinstance(tree, Not):
            value = tree3(tree.child, ints, state)
            return None if value is None else not value
        values = [tree3(c, ints, state) for c in tree.children]
        if isinstance(tree, And):
            if False in values:
                return False
            return None if None in values else True
        assert isinstance(tree, Or)
        if True in values:
            return True
        return None if None in values else False

    def lens_sum(nodes: tuple[NodeId, ...], lens: tuple[int, ...]) -> int:
        total = 0
        for node in nodes:
            v = lens[len_idx[node]]
            if v >= top:
                raise _Saturated
            total += v
        return total

    def try_accept(state: tuple) -> Optional[WalkResult]:
        nonlocal touched
        prod, lens, counts, terms, comps = state
        if not mta.is_final(prod):
            return None
        for y, z in terms:
            if z != 1:
                return None
        try:
            for y, _z in terms:
                if y >= top:
                    raise _Saturated

            # First-occurrence monitors (exact, so checked before anything
            # that could abandon the state on a saturated counter).
            for mon in scenario.monitors:
                for mp in mon.pieces:
                    q, first = comps[mp.comp]
                    if mp.landing_term is None:
                        if first != -1 or q != mp.exit_state:
                            return None
                    else:
                        if first == -1:
                            return None
                        if first >= top:
                            raise _Saturated
                        if first != terms[mp.landing_term][0]:
                            return None

            # Linking equations pin integer values (or check constants).
            ints: dict[str, int] = {}

            def bind(index: Union[str, int], value: int) -> bool:
                if isinstance(index, int):
                    return index == value
                if index in ints:
                    return ints[index] == value
                if value < 0:
                    return False
                ints[index] = value
                return True

            for link in scenario.links:
                pos = link.const + lens_sum(link.nodes, lens)
                if link.term is not None:
                    pos += terms[link.term][0]
                if not bind(link.index, pos - link.shift):
                    return None
            for index in scenario.zeros:
                if not bind(index, 0):
                    return None

            lower: dict[str, int] = {}
            for pe in scenario.past_ends:
                need = lens_sum(pe.nodes, lens) + pe.const + 1
                if isinstance(pe.index, int):
                    if pe.index < need:
                        return None
                elif pe.index in ints:
                    if ints[pe.index] < need:
                        return None
                else:
                    lower[pe.index] = max(lower.get(pe.index, 0), need)

            # Free integers: enumerate within the bound.
            free = [v for v in lowered.int_vars if v not in ints]
            ranges = []
            for var in free:
                lo = lower.get(var, 0)
                if lo > int_bound:
                    raise _Saturated
                ranges.append(range(lo, int_bound + 1))
            trees = list(scenario.extra)
            if lowered.int_tree is not None:
                trees.append(lowered.int_tree)
            saw_unknown = False
            for combo in iter_product(*ranges):
                if not budget.charge():
                    return WalkResult("resource")
                candidate = dict(ints)
                candidate.update(zip(free, combo))
                values = [tree3(t, candidate, state) for t in trees]
                if all(v is True for v in values):
                    words = _reconstruct(state)
                    return WalkResult("sat", words, candidate)
                if None in values:
                    saw_unknown = True
            if saw_unknown:
                touched = True
            # Exhausting a free variable's range is bound-dependent only
            # if some constraint actually reads that variable.
            free_set = set(free)
            for tree in trees:
                for leaf in tree_leaves(tree):
                    for _c, term in leaf.atom.terms:
                        if isinstance(term, IntTerm) and term.var in free_set:
                            touched = True
            return None
        except _Saturated:
            touched = True
            return None

    def _reconstruct(state: tuple) -> dict[NodeId, str]:
        letters: list[list[str]] = [[] for _ in mta.tracks]
        cur = state
        while True:
            step = parents[cur]
            if step is None:
                break
            prev, track, ch = step
            letters[track].append(ch)
            cur = prev
        return {
            node: "".join(reversed(letters[i]))
            for i, node in enumerate(mta.tracks)
        }

    # --- main loop --------------------------------------------------------
    while queue:
        state = queue.popleft()
        result = try_accept(state)
        if result is not None:
            return result
        prod, lens, counts, terms, comps = state
        n_tracks = mta.n_tracks
        for track, ch, nxt_prod in mta.moves(prod):
            new_lens = lens
            li = track_len[track]
            if li is not None:
                grown = bump(lens[li])
                cap_here = len_caps[track]
                if cap_here is not None and grown > cap_here:
                    continue  # mandatory length ceiling: state can never accept
                new_lens = lens[:li] + (grown,) + lens[li + 1 :]
            new_counts = counts
            dead = False
            for ch2, ci in track_counts[track]:
                if ch2 == ch:
                    grown = bump(new_counts[ci])
                    cap_here = count_caps.get(ci)
                    if cap_here is not None and grown > cap_here:
                        dead = True
                        break
                    new_counts = (
                        new_counts[:ci] + (grown,) + new_counts[ci + 1 :]
                    )
            if dead:
                continue
            new_comps = comps
            for c in track_comps[track]:
                q, first = new_comps[c]
                needle = scenario.comps[c][1]
                q2 = deltas[needle][q][ch]
                if q2 == len(needle) and first == -1:
                    assert li is not None
                    first = new_lens[li]
                new_comps = new_comps[:c] + ((q2, first),) + new_comps[c + 1 :]

            # Position trackers: bump while unfrozen, optionally freeze on
            # a matching letter (after the bump, so positions are 1-based).
            alternatives: list[list[tuple[int, int]]] = []
            for t in track_terms[track]:
                y, z = terms[t]
                if z:
                    alternatives.append([(y, z)])
                else:
                    y2 = bump(y)
                    options = [(y2, 0)]
                    if scenario.terms[t][1] == ch:
                        options.append((y2, 1))
                    alternatives.append(options)
            tset = track_terms[track]
            for combo in iter_product(*alternatives):
                new_terms = list(terms)
                for t, pair in zip(tset, combo):
                    new_terms[t] = pair
                nxt = (nxt_prod, new_lens, new_counts, tuple(new_terms), new_comps)
                if nxt not in parents:
                    if not budget.charge():
                        return WalkResult("resource")
                    parents[nxt] = (state, track, ch)
                    queue.append(nxt)

    return WalkResult("within" if touched else "unsat")


# ---------------------------------------------------------------------------
# Every walk of a solve, checked against the reference


def check_every_walk(monkeypatch) -> list[tuple[LoweredProblem, WalkResult]]:
    """Run the reference beside each walk a solve makes; record the walks.

    Each walk must give the reference's result and leave the budget
    where the reference leaves a copy of it.
    """
    walk = extensions.counter_walk_solve
    walks: list[tuple[LoweredProblem, WalkResult]] = []

    def checked(lowered: LoweredProblem, int_bound: int, budget: Budget) -> WalkResult:
        reference_budget = copy.copy(budget)
        reference = dataclasses.replace(
            lowered, automaton=ReferenceAutomaton(lowered.automaton.forest)
        )
        expected = reference_counter_walk_solve(
            reference, int_bound, reference_budget
        )
        result = walk(lowered, int_bound, budget)
        assert result == expected
        assert budget.remaining == reference_budget.remaining
        walks.append((lowered, result))
        return result

    monkeypatch.setattr(extensions, "counter_walk_solve", checked)
    return walks


@pytest.mark.parametrize("limit", [10_000, 300])
def test_every_walk_matches_the_reference(monkeypatch, extension_problems, limit):
    walks = check_every_walk(monkeypatch)
    for problem in extension_problems:
        solve(problem, resource_limit=limit)
    statuses = {result.status for _lowered, result in walks}
    assert {"sat", "unsat", "resource"} <= statuses
    # The walks read every kind of counter, and some automata serve
    # several scenarios, so their memo is shared between walks.
    scenarios = [lowered.scenario for lowered, _result in walks]
    assert any(s.terms for s in scenarios)
    assert any(s.comps for s in scenarios)
    assert any(s.links for s in scenarios)
    automata = [lowered.automaton for lowered, _result in walks]
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
    walks = check_every_walk(monkeypatch)
    stats: dict = {}
    verdict = solve(
        parse_problem(text), int_bound=int_bound, resource_limit=limit, stats=stats
    )
    assert len(walks) == (2 if text is TWO_SCENARIOS else 1)
    assert (verdict.status, stats["budget-left"]) == (status, left)
    assert verdict.model == model
