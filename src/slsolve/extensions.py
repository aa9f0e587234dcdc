"""Bounded decision support for the extended constraint layers.

The core solver handles concatenations, transducer applications, and
regular membership exactly.  Everything on top of that — linear
constraints over lengths, letter counts, and integer variables,
character-position equalities, index-of bindings, and string
disequalities — is decided here by a bounded search:

1. The extension constraints are *lowered* onto the same piece
   decomposition the core solver uses.  Lengths become sums of
   per-piece length counters, character positions become per-piece
   position trackers plus linear linking equations, index-of becomes a
   run of character equalities (plus, for first-occurrence, one match
   tracker per piece before the match), and a disequality becomes a
   choice between "lengths differ" and "some shared position differs".
   Choices that cannot be expressed as counters — which piece a
   position lands on, which character sits there, how a disequality is
   discharged — are enumerated as *scenarios*.  Each unit — a
   character-leaf occurrence under one truth vector, a disequality, an
   index-of binding — is lowered once, up front, into its alternatives,
   and a scenario is one pick per unit, their obligations concatenated
   when the search reaches it: each obligation holds the tracker
   objects it reads.  Where a position can land is read off one walk
   over a variable's layout (:func:`_layout`), which character sides
   and index-of placements share.

2. :func:`slsolve.solver.solve` runs its usual search and hands each
   feasible forest of piece automata and segment transducers to
   :class:`ScenarioWalks`, which turns it into a lazy multi-track
   product automaton whose moves emit one letter on one track at a time.

3. Each scenario is first checked statically (:func:`refuted`): one
   whose trees are false without reading a counter, which pins two
   letters to one position, or which needs a letter its piece never
   holds is skipped without a walk and charges no budget.  For every
   other scenario, a breadth-first walk explores (product state,
   counter state) pairs, counters capped at the integer bound.  A walk
   state is one flat tuple of ints: in slot 0 the product state's id
   (the product numbers its states once per forest, and every walk
   over that forest shares the numbering), then one counter vector for
   piece lengths and letter counts, then the position trackers in link
   order and the match trackers in monitor-piece order.  Each id's
   moves are joined once per walk with their planned counter updates
   into one step table, which the id indexes.  Whenever the walk stands
   on an accepting product state it tries to discharge the lowered
   constraints from the counters; integer variables not pinned by a
   linking equation are enumerated up to the bound.  The constraint
   leaves are compiled once per walk, so each combination of free
   integers only adds its own part to sums taken once per state.

A satisfying walk reconstructs a full model, which is verified against
the original problem before being reported.  A negative answer is
definitive (``unsat``) only when no rejection depended on a capped
counter or on the integer bound; otherwise it is reported as
``unsat-within-bounds``.  Exploration draws on the solve's work budget,
and a spent budget ends the solve with ``resource-limit``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from itertools import product as iter_product
from math import prod
from typing import Iterator, Optional, Sequence, Union

from .automata import Alphabet, Nfa, nfa_eps_eliminate
from .constraints import (
    And,
    Assignment,
    BoolTree,
    CharAtom,
    CharConst,
    CharPos,
    CountTerm,
    IndexOfAtom,
    IntTerm,
    Leaf,
    LenTerm,
    LinearAtom,
    Lit,
    Not,
    Or,
    Problem,
    TransducerEq,
    _occurrences,
    satisfying_vectors,
    tree_eval,
    tree_leaves,
)
from .solver import AcForest, Budget, BudgetExhausted, NodeId, Shape, _join_model
from .transducer import Transducer


# ---------------------------------------------------------------------------
# Lowered constraint vocabulary


@dataclass(frozen=True)
class PieceLen:
    """The length of one piece (forest node)."""

    node: NodeId


@dataclass(frozen=True)
class PieceCount:
    """How many times ``char`` occurs in one piece."""

    node: NodeId
    char: str


LoweredTerm = Union[PieceLen, PieceCount, IntTerm]


@dataclass(frozen=True)
class LoweredLinear:
    """``sum(coeff * term) <= bound`` over piece counters and int variables."""

    terms: tuple[tuple[int, LoweredTerm], ...]
    bound: int


# Trackers compare by identity: two with equal fields are two counters.
@dataclass(frozen=True, eq=False)
class PositionTerm:
    """A position tracker: a counter on ``node`` that freezes on ``char``."""

    node: NodeId
    char: str


@dataclass(frozen=True, eq=False)
class MatchTracker:
    """``needle``'s KMP state on ``node`` from ``entry``, and its first match.

    ``delta`` is the needle's match automaton, one per index-of atom.
    """

    node: NodeId
    needle: str
    entry: int
    delta: list[dict[str, int]] = field(repr=False)


@dataclass(frozen=True)
class LinkEq:
    """``value(index) + shift == const + sum(len(node)) + position(term)``.

    The right-hand side is a position inside some variable's value,
    assembled from literal offsets (``const``), the lengths of the
    pieces that precede the landing segment (``nodes``, kept with
    multiplicity), and — when the position lands inside a piece — the
    frozen value of that piece's position tracker ``term`` (None means
    the position inside a literal is already part of ``const``).
    """

    index: Union[str, int]
    shift: int
    term: Optional[PositionTerm]
    const: int
    nodes: tuple[NodeId, ...]


@dataclass(frozen=True)
class PastEnd:
    """``value(index) >= const + sum(len(node)) + 1`` — past a value's end."""

    index: Union[str, int]
    const: int
    nodes: tuple[NodeId, ...]


@dataclass(frozen=True)
class MonitorPiece:
    """One piece-zone obligation of a first-occurrence binding.

    ``comp`` is the match tracker run over the zone's piece.  A
    pre-landing zone must finish in ``exit_state`` without ever
    completing a match; the landing zone instead requires its first
    completion to sit exactly where the position tracker
    ``landing_term`` froze.
    """

    comp: MatchTracker
    exit_state: Optional[int]
    landing_term: Optional[PositionTerm]


@dataclass(frozen=True)
class Scenario:
    """One fully guessed way of discharging the non-regular constraints.

    Every field is checked when the walk stands on an accepting state:
    linking equations, forced-zero indices, past-the-end requirements,
    extra lowered linear trees (conjoined with the problem's own), and
    the pieces of first-occurrence bindings.  Links and monitor pieces
    hold the trackers they read, so scenarios merge by concatenation.
    """

    links: tuple[LinkEq, ...] = ()
    zeros: tuple[Union[str, int], ...] = ()
    past_ends: tuple[PastEnd, ...] = ()
    extra: tuple[BoolTree, ...] = ()
    monitors: tuple[MonitorPiece, ...] = ()

    @property
    def terms(self) -> tuple[PositionTerm, ...]:
        """The position trackers the walk runs, in link order."""
        return tuple(link.term for link in self.links if link.term is not None)

    @property
    def comps(self) -> tuple[MatchTracker, ...]:
        """The match trackers the walk runs, in monitor-piece order."""
        return tuple(mp.comp for mp in self.monitors)


def _merge_scenarios(parts: Sequence[Scenario]) -> Scenario:
    """Concatenate scenario pieces field by field.

    The five fields are joined by name: most merges join two small
    pieces, and reflecting on :func:`dataclasses.fields` cost more than
    the joins themselves.
    """
    links = zeros = past_ends = extra = monitors = ()
    for part in parts:
        links += part.links
        zeros += part.zeros
        past_ends += part.past_ends
        extra += part.extra
        monitors += part.monitors
    return Scenario(links, zeros, past_ends, extra, monitors)


# ---------------------------------------------------------------------------
# Integer-term lowering


def _len_parts(shape: Shape) -> tuple[list[NodeId], int]:
    """A variable's length as (piece nodes with multiplicity, literal total)."""
    return list(shape.slots), sum(len(lit) for lit in shape.literals)


def _linear_lower(atom: LinearAtom, shapes: dict[str, Shape]) -> LoweredLinear:
    coeffs: dict[LoweredTerm, int] = {}
    bound = atom.bound

    def add(term: LoweredTerm, coeff: int) -> None:
        coeffs[term] = coeffs.get(term, 0) + coeff

    for coeff, term in atom.terms:
        if isinstance(term, LenTerm):
            nodes, lit_len = _len_parts(shapes[term.var])
            for node in nodes:
                add(PieceLen(node), coeff)
            bound -= coeff * lit_len
        elif isinstance(term, CountTerm):
            shape = shapes[term.var]
            for node in shape.slots:
                add(PieceCount(node, term.char), coeff)
            bound -= coeff * sum(lit.count(term.char) for lit in shape.literals)
        else:
            add(term, coeff)
    terms = tuple((c, t) for t, c in coeffs.items() if c != 0)
    return LoweredLinear(terms, bound)


def lower_integer_terms(
    tree: Optional[BoolTree], shapes: dict[str, Shape]
) -> Optional[BoolTree]:
    """Rewrite length/count terms over whole variables into per-piece sums.

    The tree's shape is preserved; each linear leaf becomes a
    :class:`LoweredLinear` leaf whose terms are piece counters and
    integer variables, with literal contributions folded into the bound.
    """
    if tree is None:
        return None
    if isinstance(tree, Leaf):
        atom = tree.atom
        assert isinstance(atom, LinearAtom)
        return Leaf(_linear_lower(atom, shapes))
    if isinstance(tree, Not):
        return Not(lower_integer_terms(tree.child, shapes))
    cls = And if isinstance(tree, And) else Or
    return cls(tuple(lower_integer_terms(c, shapes) for c in tree.children))


def _length_differs(left: str, right: str, shapes: dict[str, Shape]) -> BoolTree:
    """``|left| != |right|``: ``|l| - |r| <= -1`` or ``-|l| + |r| <= -1``."""

    def shorter(sign: int) -> BoolTree:
        atom = LinearAtom(((sign, LenTerm(left)), (-sign, LenTerm(right))), -1)
        return Leaf(_linear_lower(atom, shapes))

    return Or((shorter(1), shorter(-1)))


# ---------------------------------------------------------------------------
# Position layout


def _layout(
    shape: Shape, index: Union[str, int], shift: int = 0
) -> Iterator[tuple[int, Optional[int], LinkEq]]:
    """Every place a position can land in a variable's value, in layout order.

    Zone ``2i`` is literal ``i``, one item per character with its 1-based
    position ``k`` in the literal; zone ``2i+1`` is piece ``i``, one item
    with ``k`` None.  Each item's :class:`LinkEq` reads ``value(index) +
    shift == that position``; a piece's link has no ``term`` yet, and
    its caller gives it the piece's position tracker.
    """
    const = 0
    for i, lit in enumerate(shape.literals):
        nodes = shape.slots[:i]
        for k in range(1, len(lit) + 1):
            yield 2 * i, k, LinkEq(index, shift, None, const + k, nodes)
        const += len(lit)
        if i < len(shape.slots):
            yield 2 * i + 1, None, LinkEq(index, shift, None, const, nodes)


# ---------------------------------------------------------------------------
# Character-position lowering


def _side_choices(
    side: CharConst | CharPos, shapes: dict[str, Shape], alphabet: Alphabet
) -> Iterator[list[tuple[str, Scenario]]]:
    """Every in-range resolution of one side, as its (character, fragment) choices.

    A constant, or a position landing in a literal, reads one known
    character; a position landing in a piece gets a position tracker,
    with one choice per guessed letter.
    """
    if isinstance(side, CharConst):
        yield [(side.char, Scenario())]
        return
    shape = shapes[side.var]
    for zone, k, link in _layout(shape, side.index):
        if k is not None:
            yield [(shape.literals[zone // 2][k - 1], Scenario((link,)))]
        else:
            node = shape.slots[zone // 2]
            yield [
                (ch, Scenario((replace(link, term=PositionTerm(node, ch)),)))
                for ch in alphabet.symbols
            ]


def _char_leaf_scenarios(
    atom: CharAtom, value: bool, shapes: dict[str, Shape], alphabet: Alphabet
) -> Iterator[Scenario]:
    """All ways one character-equality occurrence can take a truth value.

    A true occurrence binds both sides in range with equal characters; a
    false one either pushes a positional side out of range (index zero
    or past the end) or binds both sides in range with distinct
    characters.
    """
    if not value:
        for side in (atom.left, atom.right):
            if isinstance(side, CharPos):
                if not isinstance(side.index, int):
                    yield Scenario(zeros=(side.index,))
                nodes, lit_len = _len_parts(shapes[side.var])
                yield Scenario(past_ends=(PastEnd(side.index, lit_len, tuple(nodes)),))
    yield from _in_range_scenarios(atom, value, shapes, alphabet)


def _in_range_scenarios(
    atom: CharAtom, value: bool, shapes: dict[str, Shape], alphabet: Alphabet
) -> Iterator[Scenario]:
    """The ways both sides land in range, holding equal characters if ``value``."""
    rights = list(_side_choices(atom.right, shapes, alphabet))
    for left in _side_choices(atom.left, shapes, alphabet):
        for right in rights:
            for ch_l, frag_l in left:
                for ch_r, frag_r in right:
                    if (ch_l == ch_r) == value:
                        yield _merge_scenarios([frag_l, frag_r])


# ---------------------------------------------------------------------------
# Index-of lowering


def _kmp_delta(needle: str, alphabet: Alphabet) -> list[dict[str, int]]:
    """Deterministic match automaton: state = length of matched prefix."""
    p = len(needle)
    fail = [0] * (p + 1)
    k = 0
    for i in range(1, p):
        while k and needle[i] != needle[k]:
            k = fail[k]
        if needle[i] == needle[k]:
            k += 1
        fail[i + 1] = k
    delta: list[dict[str, int]] = []
    for q in range(p + 1):
        row: dict[str, int] = {}
        for ch in alphabet:
            k = q if q < p else fail[q]
            while k and needle[k] != ch:
                k = fail[k]
            if needle[k] == ch:
                k += 1
            row[ch] = k
        delta.append(row)
    return delta


def _run_literal(
    delta: list[dict[str, int]], p: int, entry: int, text: str
) -> tuple[int, Optional[int]]:
    """Run the match automaton over a literal; (exit, first completion pos)."""
    q = entry
    first: Optional[int] = None
    for i, ch in enumerate(text):
        q = delta[q][ch]
        if q == p and first is None:
            first = i + 1
    return q, first


def _indexof_scenarios(
    atom: IndexOfAtom, shapes: dict[str, Shape], alphabet: Alphabet
) -> Iterator[Scenario]:
    """All ways one index-of binding can hold.

    A constant haystack resolves statically.  Otherwise an anywhere
    binding becomes one character placement per needle letter at
    consecutive positions; a first-occurrence binding additionally
    requires the prefix before the match to be occurrence-free, with one
    match tracker per piece zone.
    """
    if isinstance(atom.haystack, Lit):
        positions = _occurrences(atom.needle, atom.haystack.text)
        for pos in positions[:1] if atom.first else positions:
            yield Scenario(links=(LinkEq(atom.result, 0, None, pos, ()),))
        return
    shape = shapes[atom.haystack.name]
    needle = atom.needle
    p = len(needle)

    # Every assignment of the needle's characters to layout positions, as
    # (zone, position in a literal, fragment).  Inconsistent assignments
    # are harmless — their linking equations cannot all hold — so only
    # static character mismatches are filtered here.
    def char_placements(i: int) -> list[tuple[int, Optional[int], Scenario]]:
        out = []
        for zone, k, link in _layout(shape, atom.result, i):
            if k is None:
                term = PositionTerm(shape.slots[zone // 2], needle[i])
                out.append((zone, k, Scenario((replace(link, term=term),))))
            elif shape.literals[zone // 2][k - 1] == needle[i]:
                out.append((zone, k, Scenario((link,))))
        return out

    delta = _kmp_delta(needle, alphabet)
    for placement in iter_product(*(char_placements(i) for i in range(p))):
        if any(placement[i][0] > placement[i + 1][0] for i in range(p - 1)):
            continue  # later needle characters cannot land in earlier zones
        base = _merge_scenarios([frag for _z, _k, frag in placement])
        if not atom.first:
            yield base
            continue

        # First occurrence: everything before the match's final character
        # must be completion-free.  Literal zones are checked statically
        # once the match-automaton state entering them is fixed; piece
        # zones contribute runtime trackers, and their exit states are
        # enumerated so the chain stays statically known.
        landing_z, landing_k, _frag = placement[-1]

        # Depth-first, exit states ascending: (zone, entry state, pieces)
        # prefixes still to extend, the next one on top.
        stack: list[tuple[int, int, tuple[MonitorPiece, ...]]] = [(0, 0, ())]
        while stack:
            z, entry, pieces = stack.pop()
            if z % 2 == 0:
                nxt, first = _run_literal(delta, p, entry, shape.literals[z // 2])
                if z == landing_z:
                    if first == landing_k:
                        yield Scenario(base.links, monitors=pieces)
                elif first is None:
                    stack.append((z + 1, nxt, pieces))
                continue
            comp = MatchTracker(shape.slots[z // 2], needle, entry, delta)
            if z == landing_z:
                # The landing link is the last, and holds a position tracker.
                landing = MonitorPiece(comp, None, base.links[-1].term)
                yield Scenario(base.links, monitors=pieces + (landing,))
                continue
            for exit_state in reversed(range(p + 1)):
                piece = MonitorPiece(comp, exit_state, None)
                stack.append((z + 1, exit_state, pieces + (piece,)))


# ---------------------------------------------------------------------------
# The scenario stream


def _scenario_units(
    problem: Problem, shapes: dict[str, Shape]
) -> list[list[list[Scenario]]]:
    """Per truth vector of the character tree, each unit's alternatives.

    Each unit is lowered once into its list of alternatives: a
    character-leaf occurrence under one truth vector (vectors in
    :func:`satisfying_vectors` order), a disequality, an index-of
    binding.  A vector's scenarios pick one alternative per unit
    (:func:`enumerate_scenarios`).  A disequality's witness is either
    that the lengths differ (a lowered linear disjunction) or that a
    shared fresh position holds distinct characters in range; fresh
    position names are not legal identifiers, so they never collide with
    declared integers.
    """
    alphabet = problem.alphabet
    rest: list[list[Scenario]] = []
    for idx, diseq in enumerate(problem.disequalities):
        position = f"%d{idx}"
        atom = CharAtom(CharPos(diseq.left, position), CharPos(diseq.right, position))
        rest.append(
            [
                Scenario(extra=(_length_differs(diseq.left, diseq.right, shapes),)),
                *_in_range_scenarios(atom, False, shapes, alphabet),
            ]
        )
    for atom in problem.indexofs:
        rest.append(list(_indexof_scenarios(atom, shapes, alphabet)))
    leaves = tree_leaves(problem.chars) if problem.chars is not None else []
    return [
        [
            list(_char_leaf_scenarios(leaf.atom, value, shapes, alphabet))
            for leaf, value in zip(leaves, values)
        ]
        + rest
        for values in satisfying_vectors(problem.chars)
    ]


def _merged(units: list[list[list[Scenario]]]) -> Iterator[Scenario]:
    """Each vector's scenarios in turn, the last unit varying fastest."""
    for vector in units:
        for combo in iter_product(*vector):
            yield _merge_scenarios(combo)


def enumerate_scenarios(
    problem: Problem, shapes: dict[str, Shape]
) -> Iterator[Scenario]:
    """The full scenario stream: chars × disequalities × index-of.

    A scenario picks one alternative per unit (:func:`_scenario_units`),
    vector by vector, the last unit varying fastest.
    """
    yield from _merged(_scenario_units(problem, shapes))


# ---------------------------------------------------------------------------
# The tree-solution automaton


class MultiTrackAutomaton:
    """Lazy product automaton over a forest's solution tuples.

    One track per forest node.  A move emits a single letter on a single
    track: the track's own automaton steps on it, the input side of
    every segment transducer hanging below the track steps with it, and
    — unless the track is a root — the letter must simultaneously be
    produced by an output move of the segment above.  Projections of
    accepted runs onto tracks are therefore exactly the forest's
    solution tuples.

    Product states get ids in discovery order, 0 the initial state, and
    :meth:`moves` and :meth:`is_final` answer by id from memos that every
    scenario walked over the forest shares.
    """

    def __init__(self, forest: AcForest) -> None:
        self.tracks: tuple[NodeId, ...] = forest.order
        self._index = {node: i for i, node in enumerate(self.tracks)}
        self._nfas = [nfa_eps_eliminate(forest.nfas[node]) for node in self.tracks]
        #: The letters on some arc of each node's automaton.
        self.letters = {
            node: {ch for _q, ch, _r in nfa.transitions}
            for node, nfa in zip(self.tracks, self._nfas)
        }
        # Edges in a fixed order: by parent track, then child track.
        self._edges: list[tuple[int, int, Transducer]] = []
        for node in self.tracks:
            for child, machine in forest.children[node]:
                self._edges.append(
                    (self._index[node], self._index[child], machine.normalized)
                )
        self._out_edges: list[list[int]] = [[] for _ in self.tracks]
        self._parent_edge: list[Optional[int]] = [None] * len(self.tracks)
        for e, (pi, ci, _machine) in enumerate(self._edges):
            self._out_edges[pi].append(e)
            self._parent_edge[ci] = e
        # Per-edge rule maps: state -> char -> targets.
        self._in_map = [machine.consuming for _p, _c, machine in self._edges]
        self._out_map = [machine.emitting for _p, _c, machine in self._edges]
        # A product state holds one state per track, then one per edge.
        parts = self._nfas + [machine for _p, _c, machine in self._edges]
        self._finals = [part.finals for part in parts]
        # Per id: the state tuple, its finality and its moves once expanded.
        self._ids: dict[tuple[int, ...], int] = {}
        self._states: list[tuple[int, ...]] = []
        self._final: list[bool] = []
        self._moves: list[Optional[tuple[tuple[int, str, int], ...]]] = []
        self._intern(tuple(part.initial for part in parts))

    @property
    def size(self) -> int:
        """How many product states have an id so far."""
        return len(self._states)

    def initial(self) -> int:
        return 0

    def is_final(self, k: int) -> bool:
        return self._final[k]

    def moves(self, k: int) -> tuple[tuple[int, str, int], ...]:
        """All (track, letter, successor id) moves, in deterministic order."""
        moves = self._moves[k]
        if moves is None:
            expanded = self._expand(self._states[k])
            moves = self._moves[k] = tuple(
                (i, ch, self._intern(nxt)) for i, ch, nxt in expanded
            )
        return moves

    def _intern(self, state: tuple[int, ...]) -> int:
        k = self._ids.get(state)
        if k is None:
            k = self._ids[state] = len(self._states)
            self._states.append(state)
            self._final.append(all(q in f for q, f in zip(state, self._finals)))
            self._moves.append(None)
        return k

    def _expand(
        self, state: tuple[int, ...]
    ) -> Iterator[tuple[int, str, tuple[int, ...]]]:
        n = len(self._nfas)
        for i, nfa in enumerate(self._nfas):
            parent = self._parent_edge[i]
            for ch, nfa_targets in nfa.arcs_by_symbol[state[i]].items():
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


# ---------------------------------------------------------------------------
# The counting walk


@dataclass(frozen=True)
class LoweredProblem:
    """Everything one bounded walk needs, already split-aligned.

    ``trees`` are the mandatory trees: the scenario's ``extra``, then the
    lowered integer constraints if any.
    """

    automaton: MultiTrackAutomaton
    scenario: Scenario
    trees: tuple[BoolTree, ...]
    int_vars: tuple[str, ...]


@dataclass(frozen=True)
class WalkResult:
    status: str  # "sat" | "unsat" | "within"
    node_words: Optional[dict[NodeId, str]] = None
    int_values: Optional[dict[str, int]] = None


class _Saturated(Exception):
    """A needed counter was capped; the outcome is bound-dependent."""


def _definite_caps(trees: Sequence[BoolTree]) -> dict[LoweredTerm, int]:
    """Hard ceilings on piece counters implied by mandatory linear leaves.

    A leaf in a purely conjunctive position must hold in every model, so
    ``c*counter <= bound`` with every other coefficient nonnegative caps
    the counter at ``bound // c``.  Walk states past a cap can never
    accept (counters only grow), so they are pruned outright.  Each
    ceiling is keyed by its :class:`PieceLen` or :class:`PieceCount` term.
    """
    caps: dict[LoweredTerm, int] = {}

    def leaf_caps(atom: LoweredLinear) -> None:
        if any(coeff < 0 for coeff, _t in atom.terms):
            return
        for coeff, term in atom.terms:
            if coeff > 0 and not isinstance(term, IntTerm):
                cap = atom.bound // coeff
                caps[term] = min(caps.get(term, cap), cap)

    # (subtree, polarity) pairs still to visit; caps combine by min, so
    # the visiting order does not matter.
    stack = [(tree, True) for tree in trees]
    while stack:
        tree, positive = stack.pop()
        if isinstance(tree, Leaf):
            if positive:
                atom = tree.atom
                assert isinstance(atom, LoweredLinear)
                leaf_caps(atom)
        elif isinstance(tree, Not):
            stack.append((tree.child, not positive))
        else:
            assert isinstance(tree, (And, Or))
            # Conjunctive positions: every child of a positive And or a
            # negative Or; an only child either way.
            if positive == isinstance(tree, And) or len(tree.children) == 1:
                stack.extend((child, positive) for child in tree.children)
    return caps


def counter_walk_solve(
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

    A walk state is one flat tuple of ints: in slot 0 the id of its
    product state (the automaton's own numbering), then the counter
    vector (one slot per :class:`PieceLen` or :class:`PieceCount` term
    that some check reads), then ``(position, frozen)`` per position
    tracker (:attr:`Scenario.terms`), then ``(KMP state, first
    completion)`` per match tracker (:attr:`Scenario.comps`); one map
    per walk gives each tracker object its state index.  A move bumps
    only counters of its own track and letter, so its updates are
    planned once per ``(track, letter)``, with every slot already a state
    index and each match tracker's step read off its own ``delta``; each
    id's moves are joined with their plans into one step table per id,
    built the first time a walk state on that id is popped.  A move
    that can freeze no position tracker yields one successor, one that
    can freeze one yields two (unfrozen first), and each further
    freezable tracker doubles them.

    Each newly found walk state costs one unit of ``budget``.  The
    leaves of :attr:`LoweredProblem.trees` are compiled once per walk
    into counter, pinned-integer and free-integer parts, so an accepting
    state sums its counters once and each combination of free integers
    adds only its own part, costing one unit each.  When no leaf reads a
    free integer, every combination has the same values: they are
    evaluated once, and the budget is charged at once for the
    combinations the enumeration would have tried.  A walk that needs
    more than is left spends the budget and raises
    :class:`BudgetExhausted`.
    """
    mta = lowered.automaton
    scenario = lowered.scenario
    mandatory = lowered.trees
    cap = int_bound
    top = cap + 1  # saturation marker
    hard_caps = _definite_caps(mandatory)

    # --- the state layout -------------------------------------------------
    # ``slot`` maps a counter term to its index in the state tuple.
    slot: dict[LoweredTerm, int] = {}
    for tree in mandatory:
        for leaf in tree_leaves(tree):
            for _c, term in leaf.atom.terms:
                if not isinstance(term, IntTerm):
                    slot.setdefault(term, len(slot) + 1)

    def len_slots(nodes: Sequence[NodeId]) -> tuple[int, ...]:
        return tuple(
            slot.setdefault(PieceLen(node), len(slot) + 1) for node in nodes
        )

    links = [(link, len_slots(link.nodes)) for link in scenario.links]
    # Forced zeros bind last, as the links ``value(index) + 0 == 0``.
    links += [(LinkEq(index, 0, None, 0, ()), ()) for index in scenario.zeros]
    past_ends = [(pe, len_slots(pe.nodes)) for pe in scenario.past_ends]
    terms, comps = scenario.terms, scenario.comps
    for comp in comps:
        slot.setdefault(PieceLen(comp.node), len(slot) + 1)
    # ``at`` maps each tracker to its state index: a position tracker's
    # position, then its frozen flag; a match tracker's KMP state, then
    # its first completion.
    terms_from = 1 + len(slot)
    comps_from = terms_from + 2 * len(terms)
    at = {tracker: terms_from + 2 * i for i, tracker in enumerate(terms + comps)}

    # Monitor pieces as (KMP state index, exit state, landing position index).
    monitor_pieces = [
        (at[mp.comp], mp.exit_state, at[mp.landing_term] if mp.landing_term else None)
        for mp in scenario.monitors
    ]

    def plan_for(track: int, ch: str) -> tuple:
        """The state updates of a ``ch`` move on ``track``.

        The ``(counter, cap)`` increments, the ``(KMP state index, KMP
        row, needle length, length counter)`` steps and the ``(term
        position index, can freeze)`` pairs.  A counter without a
        mandatory ceiling gets ``top``, which a bumped counter never
        passes.
        """
        node = mta.tracks[track]
        length = PieceLen(node)
        return (
            tuple(
                (slot[term], hard_caps.get(term, top))
                for term in (length, PieceCount(node, ch))
                if term in slot
            ),
            tuple(
                (
                    at[comp],
                    [row[ch] for row in comp.delta],
                    len(comp.needle),
                    slot[length],
                )
                for comp in comps
                if comp.node == node
            ),
            tuple((at[term], term.char == ch) for term in terms if term.node == node),
        )

    plans: dict[tuple[int, str], tuple] = {}
    # ``tables[k]`` is product state k's step table once some walk state
    # standing on it has been popped; the list grows with the product's
    # numbering, so every id a table names indexes it.
    tables: list[Optional[tuple[bool, list[tuple]]]] = [None] * mta.size

    def step_table(k: int) -> tuple[bool, list[tuple]]:
        """Finality and ``(successor id, track, letter, *plan)`` per move."""
        table = []
        for track, ch, nxt in mta.moves(k):
            plan = plans.get((track, ch))
            if plan is None:
                plan = plans[track, ch] = plan_for(track, ch)
            table.append((nxt, track, ch) + plan)
        tables.extend([None] * (mta.size - len(tables)))
        return mta.is_final(k), table

    # --- compiled acceptance ----------------------------------------------
    # Every string index in ``links`` is bound before the integers left
    # free are enumerated, so those are fixed for the walk.
    bound_indices = {link.index for link, _slots in links}
    free = [v for v in lowered.int_vars if v not in bound_indices]
    free_pos = {var: k for k, var in enumerate(free)}
    # One entry per leaf atom: its counter terms as (coefficient, state
    # index), its pinned integer terms as (coefficient, variable), its
    # free integer terms as (coefficient, position in ``free``), and its
    # bound.  ``truth`` finds an atom's entry by id.
    leaf_index: dict[int, int] = {}
    compiled: list[tuple] = []
    for tree in mandatory:
        for leaf in tree_leaves(tree):
            atom = leaf.atom
            if id(atom) in leaf_index:
                continue
            leaf_index[id(atom)] = len(compiled)
            ints_read = [(c, t.var) for c, t in atom.terms if isinstance(t, IntTerm)]
            compiled.append(
                (
                    [(c, slot[t]) for c, t in atom.terms if not isinstance(t, IntTerm)],
                    [(c, var) for c, var in ints_read if var not in free_pos],
                    [(c, free_pos[var]) for c, var in ints_read if var in free_pos],
                    atom.bound,
                )
            )
    # Leaves reading a free integer; the others take one value per state.
    # Exhausting a free variable's range is bound-dependent only if some
    # leaf reads that variable.
    free_leaves = [k for k, entry in enumerate(compiled) if entry[2]]
    values: list[Optional[bool]] = [None] * len(compiled)

    def truth(atom: LoweredLinear) -> Optional[bool]:
        return values[leaf_index[id(atom)]]

    # --- the walk ---------------------------------------------------------
    init = (
        (mta.initial(),)
        + (0,) * len(slot)
        + (0, 0) * len(terms)
        + tuple(x for comp in comps for x in (comp.entry, -1))
    )
    parents: dict[tuple, Optional[tuple]] = {init: None}
    queue = deque([init])
    touched = False

    def lens_sum(slots: tuple[int, ...], state: tuple) -> int:
        total = 0
        for i in slots:
            v = state[i]
            if v >= top:
                raise _Saturated
            total += v
        return total

    def try_accept(state: tuple) -> Optional[WalkResult]:
        """Discharge the scenario's checks on a state of a final product state."""
        nonlocal touched
        if 0 in state[terms_from + 1 : comps_from : 2]:
            return None  # some position tracker never froze
        try:
            for y in state[terms_from:comps_from:2]:
                if y >= top:
                    raise _Saturated

            # First-occurrence monitors (exact, so checked before anything
            # that could abandon the state on a saturated counter).
            for q_at, exit_state, landing_at in monitor_pieces:
                first = state[q_at + 1]
                if landing_at is None:
                    if first != -1 or state[q_at] != exit_state:
                        return None
                else:
                    if first == -1:
                        return None
                    if first >= top:
                        raise _Saturated
                    if first != state[landing_at]:
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

            for link, slots in links:
                pos = link.const + lens_sum(slots, state)
                if link.term is not None:
                    pos += state[at[link.term]]
                if not bind(link.index, pos - link.shift):
                    return None

            lower: dict[str, int] = {}
            for pe, slots in past_ends:
                need = lens_sum(slots, state) + pe.const + 1
                if isinstance(pe.index, int):
                    if pe.index < need:
                        return None
                elif pe.index in ints:
                    if ints[pe.index] < need:
                        return None
                else:
                    lower[pe.index] = max(lower.get(pe.index, 0), need)

            # Free integers: enumerate within the bound.
            ranges = []
            for var in free:
                lo = lower.get(var, 0)
                if lo > int_bound:
                    raise _Saturated
                ranges.append(range(lo, int_bound + 1))

            # Each leaf's counter and pinned part, three-valued: a
            # saturated counter stands for any value >= top.
            parts = []
            for k, (counter_terms, pinned, _free_terms, bound) in enumerate(compiled):
                lo = hi = 0
                lo_open = hi_open = False
                for coeff, i in counter_terms:
                    v = state[i]
                    if v < top:
                        lo += coeff * v
                        hi += coeff * v
                    elif coeff > 0:
                        lo += coeff * top
                        hi_open = True
                    else:
                        hi += coeff * top
                        lo_open = True
                for coeff, var in pinned:
                    lo += coeff * ints[var]
                    hi += coeff * ints[var]
                part = (
                    None if hi_open else bound - hi,
                    None if lo_open else bound - lo,
                )
                parts.append(part)
                values[k] = _leaf_truth(part, 0)

            def sat(combo: Sequence[int]) -> WalkResult:
                candidate = dict(ints)
                candidate.update(zip(free, combo))
                return WalkResult("sat", _reconstruct(state), candidate)

            if not free_leaves:
                # Every combination gives these values: charge for as many
                # as the enumeration would try before stopping.
                results = [tree_eval(t, truth) for t in mandatory]
                accepted = all(v is True for v in results)
                tries = 1
                if not accepted:
                    for r in ranges:
                        tries *= len(r)
                budget.charge(tries)
                if accepted:
                    return sat([r.start for r in ranges])
                if None in results:
                    touched = True
                return None
            for combo in iter_product(*ranges):
                budget.charge()
                for k in free_leaves:
                    shift = 0
                    for coeff, j in compiled[k][2]:
                        shift += coeff * combo[j]
                    values[k] = _leaf_truth(parts[k], shift)
                if all(tree_eval(t, truth) is True for t in mandatory):
                    return sat(combo)
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
        entry = tables[state[0]]
        if entry is None:
            entry = tables[state[0]] = step_table(state[0])
        final, table = entry
        if final:
            result = try_accept(state)
            if result is not None:
                return result
        for nxt_id, track, ch, increments, comp_steps, term_steps in table:
            grown = list(state)
            grown[0] = nxt_id
            if increments:
                dead = False
                for i, ceiling in increments:
                    v = grown[i]
                    v = v + 1 if v <= cap else top
                    if v > ceiling:
                        dead = True
                        break
                    grown[i] = v
                if dead:
                    continue  # mandatory ceiling: the state can never accept
            for q_at, kmp_row, needle_len, length_at in comp_steps:
                q = grown[q_at] = kmp_row[grown[q_at]]
                if q == needle_len and grown[q_at + 1] == -1:
                    grown[q_at + 1] = grown[length_at]

            # Position trackers: bump while unfrozen, optionally freeze on
            # a matching letter (after the bump, so positions are 1-based).
            forks = []
            for y_at, can_freeze in term_steps:
                if not grown[y_at + 1]:
                    y = grown[y_at]
                    grown[y_at] = y + 1 if y <= cap else top
                    if can_freeze:
                        forks.append(y_at + 1)
            # Each freezable term forks every option so far, unfrozen
            # first, so the options come out with the first term slowest.
            if not forks:
                options: Sequence[tuple] = (tuple(grown),)
            elif len(forks) == 1:
                unfrozen = tuple(grown)
                grown[forks[0]] = 1
                options = (unfrozen, tuple(grown))
            else:
                lists = [grown]
                for z_at in forks:
                    forked = []
                    for option in lists:
                        frozen = option.copy()
                        frozen[z_at] = 1
                        forked += (option, frozen)
                    lists = forked
                options = [tuple(option) for option in lists]
            for nxt in options:
                if nxt not in parents:
                    budget.remaining -= 1
                    if budget.remaining < 0:
                        raise BudgetExhausted
                    parents[nxt] = (state, track, ch)
                    queue.append(nxt)

    return WalkResult("within" if touched else "unsat")


def _leaf_truth(part: tuple[Optional[int], Optional[int]], shift: int) -> Optional[bool]:
    """A compiled leaf's value once its free integers add up to ``shift``.

    ``part`` holds the bound less the leaf's highest and lowest value
    over the counters and pinned integers, None where a saturated
    counter leaves that side open.
    """
    hi_room, lo_room = part
    if hi_room is not None and shift <= hi_room:
        return True
    if lo_room is not None and shift > lo_room:
        return False
    return None


# ---------------------------------------------------------------------------
# Static refutation


def _constant_truth(atom: LoweredLinear) -> Optional[bool]:
    """A leaf's value if it reads no term (``0 <= bound``), else unknown."""
    return None if atom.terms else 0 <= atom.bound


def refuted(lowered: LoweredProblem) -> bool:
    """Whether no walk of ``lowered`` can accept, at any integer bound.

    Three checks, none of which reads a counter:

    - a mandatory tree (:attr:`LoweredProblem.trees`) is false once
      every leaf without terms is evaluated, the others left unknown;
    - a position tracker's letter is on no arc of its node's automaton,
      so the tracker never freezes;
    - two links pin position trackers of one node, guessing different
      letters, to one position: same index, shift, constant and
      multiset of preceding pieces.
    """
    if any(tree_eval(tree, _constant_truth) is False for tree in lowered.trees):
        return True
    letters = lowered.automaton.letters
    guesses: dict[tuple, str] = {}
    for link in lowered.scenario.links:
        term = link.term
        if term is None:
            continue
        if term.char not in letters[term.node]:
            return True
        key = (link.index, link.shift, link.const, tuple(sorted(link.nodes)), term.node)
        if guesses.setdefault(key, term.char) != term.char:
            return True
    return False


# ---------------------------------------------------------------------------
# Orchestration


def default_int_bound(problem: Problem) -> int:
    """A bound scaled to the problem's machine sizes, within sane limits."""
    product = 1
    if problem.regular is not None:
        for leaf in tree_leaves(problem.regular):
            product *= leaf.atom.nfa.n_states  # type: ignore[union-attr]
            if product > 1_048_576:
                return 1_048_576
    for rel in problem.relations:
        if isinstance(rel, TransducerEq):
            product *= rel.transducer.normalized.n_states
            if product > 1_048_576:
                return 1_048_576
    return max(64, product)


class ScenarioWalks:
    """The extension solve's step for one feasible forest: walk its scenarios.

    Built once per solve, before the search: fixes the integer bound
    (``default_int_bound`` when ``int_bound`` is None), lowers the integer
    constraints and lowers each unit onto ``shapes`` into its
    alternatives (:func:`_scenario_units`).  :meth:`model` then merges
    the scenarios one at a time, gives each its mandatory trees
    (:attr:`LoweredProblem.trees`) and walks it over one forest's
    product automaton, all on the solve's ``budget``, except those that
    :func:`refuted` rules out for that forest: these cost no budget and
    never weaken the verdict to within-bounds.  So a walk that succeeds
    or spends the budget ends the work, however many scenarios there
    are; ``scenarios`` in :meth:`note` is their count, not how many were
    merged.
    """

    def __init__(
        self,
        problem: Problem,
        shapes: dict[str, Shape],
        int_bound: Optional[int],
        budget: Budget,
    ) -> None:
        self.problem = problem
        self.shapes = shapes
        self.budget = budget
        self.int_bound = default_int_bound(problem) if int_bound is None else int_bound
        int_tree = lower_integer_terms(problem.integers, shapes)
        self.int_trees = () if int_tree is None else (int_tree,)
        #: Per vector, each unit's alternatives; scenarios are merged
        #: from them only as :meth:`model` reaches them.
        self.units = _scenario_units(problem, shapes)
        self.walks = 0
        #: (forest, scenario) pairs skipped without a walk.
        self.refuted = 0
        #: Some walk's rejection depended on a capped counter or the bound.
        self.within = False

    def model(
        self, forest: AcForest, feasible: dict[NodeId, Nfa]
    ) -> Optional[Assignment]:
        """The first satisfying walk's model (unverified), else None.

        Every scenario not :func:`refuted` is walked in turn, until a
        walk spends the budget and raises :class:`BudgetExhausted`.
        """
        mta = MultiTrackAutomaton(
            AcForest(forest.order, feasible, forest.children, forest.parent)
        )
        problem = self.problem
        for scenario in _merged(self.units):
            trees = scenario.extra + self.int_trees
            lowered = LoweredProblem(mta, scenario, trees, problem.int_vars)
            if refuted(lowered):
                self.refuted += 1
                continue
            self.walks += 1
            result = counter_walk_solve(lowered, self.int_bound, self.budget)
            if result.status == "sat":
                assert result.node_words is not None
                assert result.int_values is not None
                model = _join_model(problem, self.shapes, result.node_words)
                for var in problem.int_vars:
                    model[var] = result.int_values.get(var, 0)
                return model
            if result.status == "within":
                self.within = True
        return None

    def note(self, stats: dict) -> None:
        stats["scenarios"] = sum(
            prod(len(alternatives) for alternatives in vector) for vector in self.units
        )
        stats["walks"] = self.walks
        stats["scenarios-refuted"] = self.refuted
        stats["budget-left"] = self.budget.remaining
