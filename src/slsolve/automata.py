"""Finite-state machinery: alphabets and nondeterministic automata.

Everything downstream (regular constraints, transducer images, the
decision procedure itself) reduces to a small algebra over these
machines, so the operations here are written for determinism first:
states are dense ints, iteration is id-ordered, and every constructed
machine depends only on its inputs, never on hash order.  The
:class:`Nfa` constructor fixes the arc order itself — callers may pass
transitions in any order, with repeats — so equal machines compare and
hash equal however they were built.

Each machine keeps one per-state arc table, :attr:`Nfa.arcs_by_symbol`.
Searches run on two kernels: :func:`explore`, a breadth-first search
that numbers states in discovery order and records the arcs between
them, builds every product and subset construction; :func:`reachable`,
a plain reachability set, computes epsilon closures and the
co-reachable half of :func:`live_states`, through which every trim
goes.  Every product is trimmed where it is built, in the one
construction that builds it (:func:`trimmed_nfa`), so it is empty
exactly when it has no final state; :func:`nfa_is_empty` answers for a
machine of any other origin.  A trimmed machine says so, and
:func:`nfa_reduce` does not trim it again.  The product of a machine
with the universal automaton is only a renumbered copy, so
:func:`nfa_bfs_copy` builds that copy without the product.

Epsilon arcs are read in one place, once per machine:
:func:`nfa_eps_eliminate` builds a machine's epsilon-free copy on first
use and keeps it, and every search (products, subset construction,
membership, witnesses, enumeration) runs on that copy; a regex leaf is
such a machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import (
    Callable,
    ClassVar,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
)

#: The empty word, used as the epsilon label on transitions.
EPSILON = ""


def explore(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[tuple[object, Hashable]]],
    cap: Optional[int] = None,
) -> Optional[tuple[list, list[tuple[int, object, int]]]]:
    """Breadth-first search from ``start``, numbering states as found.

    ``successors(state)`` yields ``(label, next_state)`` pairs.  Returns
    ``(order, arcs)``: ``order[i]`` is the state given id ``i`` (first-in,
    first-out discovery order, so equal inputs give equal numberings) and
    ``arcs`` lists every ``(source id, label, target id)`` in the order
    yielded.  Returns None as soon as more than ``cap`` (at least 1)
    states are found.
    """
    ids = {start: 0}
    order = [start]
    arcs: list[tuple[int, object, int]] = []
    for sid, state in enumerate(order):
        for label, nxt in successors(state):
            nid = ids.get(nxt)
            if nid is None:
                nid = ids[nxt] = len(order)
                order.append(nxt)
                if cap is not None and nid >= cap:
                    return None
            arcs.append((sid, label, nid))
    return order, arcs


def reachable(
    seeds: Iterable[Hashable],
    next_states: Callable[[Hashable], Iterable[Hashable]],
) -> set:
    """Every state reachable from ``seeds`` (included) via ``next_states``."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for r in next_states(stack.pop()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def live_states(
    n: int, edges: Iterable[tuple[int, int]], initial: int, finals: Iterable[int]
) -> set[int]:
    """States of ``range(n)`` both reachable from ``initial`` and co-reachable.

    The forward search runs over the co-reachable states only: every
    state on a path from ``initial`` to a co-reachable state is
    co-reachable too.  Most machines trimmed here are explored products,
    where every state is reachable, so this skips their dead states
    instead of walking them once more.
    """
    fwd: list[list[int]] = [[] for _ in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for q, r in edges:
        fwd[q].append(r)
        rev[r].append(q)
    coreach = reachable(finals, rev.__getitem__)
    if initial not in coreach:
        return set()
    live = {initial}
    stack = [initial]
    while stack:
        for r in fwd[stack.pop()]:
            if r in coreach and r not in live:
                live.add(r)
                stack.append(r)
    return live


def trim_renumbering(
    n: int, edges: Iterable[tuple[int, int]], initial: int, finals: Iterable[int]
) -> dict[int, int]:
    """Dense new ids, in old-id order, for the live states and ``initial``.

    The initial state is always kept (possibly as a dead state), so a
    trimmed machine is well-formed even for the empty language.  States
    missing from the map are dropped together with their arcs.
    """
    keep = live_states(n, edges, initial, finals)
    keep.add(initial)
    return {q: i for i, q in enumerate(sorted(keep))}


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite alphabet of single characters.

    The order is significant: shortest-witness extraction breaks length
    ties lexicographically *in alphabet order*, which is the declaration
    order of the problem's ``alphabet`` directive, not codepoint order.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        seen = set()
        for s in self.symbols:
            if len(s) != 1:
                raise ValueError(f"alphabet symbol must be a single character: {s!r}")
            if s in seen:
                raise ValueError(f"duplicate alphabet symbol: {s!r}")
            seen.add(s)

    @staticmethod
    def of(chars: Iterable[str]) -> "Alphabet":
        return Alphabet(tuple(chars))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def index(self, symbol: str) -> int:
        return self._index[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def check_word(self, word: str) -> None:
        for ch in word:
            if ch not in self._index:
                raise ValueError(f"character {ch!r} not in alphabet")


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton with a single initial state.

    States are exactly ``range(n_states)``.  Transitions carry either a
    single alphabet character or :data:`EPSILON`.  Callers may pass them
    in any order and with repeats: the constructor dedupes them and sorts
    them by (source, symbol index, target), epsilon before every letter,
    so two equal machines compare equal and all iteration is
    reproducible.
    """

    alphabet: Alphabet
    n_states: int
    transitions: tuple[tuple[int, str, int], ...]
    initial: int
    finals: frozenset[int]

    #: Set on the machines :func:`trimmed_nfa` and :func:`nfa_trim`
    #: return, whose states are all live (bar a dead initial state), so
    #: :func:`nfa_reduce` need not trim them again.
    _trimmed: ClassVar[bool] = False

    def __post_init__(self) -> None:
        n = self.n_states
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        idx = self.alphabet._index
        keyed: dict[tuple[int, int, int], tuple[int, str, int]] = {}
        for q, sym, r in self.transitions:
            if not (0 <= q < n and 0 <= r < n):
                raise ValueError(f"transition {(q, sym, r)} out of range")
            s = -1 if sym == EPSILON else idx.get(sym)
            if s is None:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            keyed[(q, s, r)] = (q, sym, r)
        object.__setattr__(
            self, "transitions", tuple(keyed[key] for key in sorted(keyed))
        )
        for f in self.finals:
            if not (0 <= f < n):
                raise ValueError("final state out of range")

    @cached_property
    def arcs_by_symbol(self) -> dict[int, dict[str, tuple[int, ...]]]:
        """Outgoing arcs per state: symbol -> targets, epsilon first, then
        alphabet order (the order of :attr:`transitions`)."""
        out: dict[int, dict[str, list[int]]] = {q: {} for q in range(self.n_states)}
        for q, sym, r in self.transitions:
            out[q].setdefault(sym, []).append(r)
        return {
            q: {sym: tuple(rs) for sym, rs in row.items()} for q, row in out.items()
        }

    @cached_property
    def has_epsilon(self) -> bool:
        return any(sym == EPSILON for _, sym, _ in self.transitions)

    @cached_property
    def _eps_free(self) -> "Nfa":
        # Not cached on an epsilon-free machine: a machine holding itself
        # is a reference cycle, left for the cyclic collector.  Each state
        # inherits the letter arcs and finality of its epsilon-closure.
        by_sym = self.arcs_by_symbol
        transitions: list[tuple[int, str, int]] = []
        finals = set()
        for q in range(self.n_states):
            closure = reachable((q,), lambda p: by_sym[p].get(EPSILON, ()))
            if not closure.isdisjoint(self.finals):
                finals.add(q)
            transitions += [
                (q, sym, r)
                for p in closure
                for sym, rs in by_sym[p].items()
                if sym != EPSILON
                for r in rs
            ]
        return Nfa(
            self.alphabet, self.n_states, transitions, self.initial, frozenset(finals)
        )

    def step(self, states: frozenset[int], symbol: str) -> frozenset[int]:
        """The states reached from ``states`` by one ``symbol`` arc."""
        by_sym = self.arcs_by_symbol
        return frozenset(r for q in states for r in by_sym[q].get(symbol, ()))

    def read(self, states: frozenset[int], word: str) -> frozenset[int]:
        """The states reached from ``states`` by reading ``word``, one
        :meth:`step` per letter; the machine must be epsilon-free."""
        for ch in word:
            states = self.step(states, ch)
            if not states:
                break
        return states


def nfa_from_word(word: str, alphabet: Alphabet) -> Nfa:
    """The automaton accepting exactly ``word`` (a straight chain)."""
    alphabet.check_word(word)
    transitions = tuple((i, ch, i + 1) for i, ch in enumerate(word))
    return Nfa(alphabet, len(word) + 1, transitions, 0, frozenset({len(word)}))


def nfa_none(alphabet: Alphabet) -> Nfa:
    """The automaton accepting nothing."""
    return Nfa(alphabet, 1, (), 0, frozenset())


def nfa_universal(alphabet: Alphabet) -> Nfa:
    """The automaton accepting every word."""
    transitions = tuple((0, s, 0) for s in alphabet)
    return Nfa(alphabet, 1, transitions, 0, frozenset({0}))


def nfa_membership(nfa: Nfa, word: str) -> bool:
    flat = nfa_eps_eliminate(nfa)
    return not flat.read(frozenset({flat.initial}), word).isdisjoint(flat.finals)


def nfa_eps_eliminate(nfa: Nfa) -> Nfa:
    """A language-equivalent automaton with no epsilon transitions.

    States are preserved; each state inherits the non-epsilon arcs and
    finality of its epsilon-closure.  The copy is built once per machine
    and kept; an epsilon-free machine is its own copy.
    """
    return nfa._eps_free if nfa.has_epsilon else nfa


def trimmed_nfa(
    alphabet: Alphabet,
    n_states: int,
    transitions: Sequence[tuple[int, str, int]],
    initial: int,
    finals: frozenset[int],
) -> Nfa:
    """``nfa_trim(Nfa(alphabet, n_states, transitions, initial, finals))``.

    Built in one construction: the live states are found on the raw
    arcs, repeats included, and only the arcs between them go through
    the :class:`Nfa` constructor.  Products call this on the arcs of an
    :func:`explore` instead of building and then trimming a machine.
    """
    remap = trim_renumbering(
        n_states, [(q, r) for q, _, r in transitions], initial, finals
    )
    return _marked_trimmed(_renumbered(alphabet, remap, transitions, initial, finals))


def _marked_trimmed(nfa: Nfa) -> Nfa:
    object.__setattr__(nfa, "_trimmed", True)
    return nfa


def _renumbered(
    alphabet: Alphabet,
    remap: dict[int, int],
    transitions: Sequence[tuple[int, str, int]],
    initial: int,
    finals: frozenset[int],
) -> Nfa:
    """The machine on the states of ``remap``, renamed by it."""
    return Nfa(
        alphabet,
        len(remap),
        [
            (remap[q], sym, remap[r])
            for q, sym, r in transitions
            if q in remap and r in remap
        ],
        remap[initial],
        frozenset(remap[f] for f in finals if f in remap),
    )


def nfa_trim(nfa: Nfa) -> Nfa:
    """Restrict to states both reachable and co-reachable, renumbered densely.

    A machine that keeps every state is returned as it is: its
    renumbering is the identity, so a rebuilt copy would be equal.
    """
    remap = trim_renumbering(
        nfa.n_states, [(q, r) for q, _, r in nfa.transitions], nfa.initial, nfa.finals
    )
    if len(remap) == nfa.n_states:
        return _marked_trimmed(nfa)
    return _marked_trimmed(
        _renumbered(nfa.alphabet, remap, nfa.transitions, nfa.initial, nfa.finals)
    )


#: Machines up to this many states are refined in full rounds; larger
#: ones re-sign only the states next to a split (see :func:`nfa_reduce`).
_FULL_ROUND_STATES = 32


def nfa_reduce(nfa: Nfa) -> Nfa:
    """Shrink the machine without changing its language.

    Quotients by forward bisimulation: states with the same acceptance
    status and, symbol for symbol, the same set of successor classes are
    merged, repeatedly, until stable.  Chained products (images of
    images, intersections of intersections) leave many states behind
    that differ in history but not in future behaviour; folding them
    keeps the sizes from compounding across a pipeline.

    A state's signature is the set of its ``(symbol, successor class)``
    pairs, each encoded as ``symbol index * (n + 1) + class``; no class
    id exceeds ``n``.  A small machine settles in a few rounds, and
    re-signing every state in each (:func:`_refine_in_rounds`) costs
    least there; a long chain needs about as many rounds as states, so a
    larger machine re-signs only the states whose signature may have
    moved (:func:`_refine_by_splits`).  The coarsest stable partition is
    unique, so both give the same classes; they are numbered by their
    least state.

    The input is trimmed first, unless it is epsilon-free and came out
    of :func:`trimmed_nfa` or :func:`nfa_trim`, which leave nothing to
    trim: every product, every copy of a leaf and every slice.
    """
    nfa = nfa_eps_eliminate(nfa)
    if not nfa._trimmed:
        nfa = nfa_trim(nfa)
    n = nfa.n_states
    if n <= 1:
        return nfa
    idx = nfa.alphabet._index
    succ: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for q, sym, r in nfa.transitions:
        succ[q].append((idx[sym] * (n + 1), r))
    block = [int(q in nfa.finals) for q in range(n)]
    if n <= _FULL_ROUND_STATES:
        block = _refine_in_rounds(succ, block)
    else:
        block = _refine_by_splits(succ, block)
    n_blocks = max(block) + 1
    if n_blocks == n:
        return nfa
    return Nfa(
        nfa.alphabet,
        n_blocks,
        [(block[q], sym, block[r]) for q, sym, r in nfa.transitions],
        block[nfa.initial],
        frozenset(block[f] for f in nfa.finals),
    )


def _refine_in_rounds(
    succ: list[list[tuple[int, int]]], block: list[int]
) -> list[int]:
    """Re-sign every state each round until no class splits; classes are
    numbered by their least state."""
    n_blocks = len(set(block))
    while True:
        sigs: dict[tuple[int, frozenset[int]], int] = {}
        block = [
            sigs.setdefault(
                (block[q], frozenset([s + block[r] for s, r in arcs])), len(sigs)
            )
            for q, arcs in enumerate(succ)
        ]
        if len(sigs) == n_blocks:
            return block
        n_blocks = len(sigs)


def _refine_by_splits(
    succ: list[list[tuple[int, int]]], block: list[int]
) -> list[int]:
    """Re-sign only the predecessors of states whose class just changed.

    Every state of a class that is not re-signed still has the signature
    recorded for that class.  So a round signs the predecessors of the
    states whose class changed in the round before, and splits each
    class they lie in: the part with the recorded signature keeps the
    class, or, when every member was re-signed, the largest part does;
    each other part gets a new class.  Classes are renumbered by their
    least state at the end.
    """
    n = len(succ)
    preds: list[list[int]] = [[] for _ in range(n)]
    for q, arcs in enumerate(succ):
        for _s, r in arcs:
            preds[r].append(q)
    size = [block.count(0), block.count(1)]
    signature: list[Optional[frozenset[int]]] = [None, None]
    dirty: Iterable[int] = range(n)
    while dirty:
        # Sign every dirty state against the classes as the round starts.
        by_block: dict[int, dict[frozenset[int], list[int]]] = {}
        for q in dirty:
            sig = frozenset([s + block[r] for s, r in succ[q]])
            by_block.setdefault(block[q], {}).setdefault(sig, []).append(q)
        changed: list[int] = []
        for b, groups in by_block.items():
            if sum(map(len, groups.values())) < size[b]:
                keep = signature[b]
            else:
                keep = signature[b] = max(groups, key=lambda sig: len(groups[sig]))
            for sig, group in groups.items():
                if sig == keep:
                    continue
                size[b] -= len(group)
                for q in group:
                    block[q] = len(size)
                size.append(len(group))
                signature.append(sig)
                changed += group
        dirty = {p for q in changed for p in preds[q]}
    ids: dict[int, int] = {}
    return [ids.setdefault(b, len(ids)) for b in block]


def nfa_intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton for the intersection, built lazily and trimmed.

    Only pairs reachable from the initial pair are explored, and only the
    co-reachable ones are kept.  Pair ids follow BFS discovery order.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    a, b = nfa_eps_eliminate(a), nfa_eps_eliminate(b)
    a_by_sym, b_by_sym = a.arcs_by_symbol, b.arcs_by_symbol

    def successors(pair: tuple[int, int]) -> list[tuple[str, tuple[int, int]]]:
        # Both tables are in alphabet order, so walking the smaller one
        # and looking letters up in the other yields the same arcs in the
        # same order.
        arcs_a = a_by_sym[pair[0]]
        arcs_b = b_by_sym[pair[1]]
        if len(arcs_a) <= len(arcs_b):
            return [
                (sym, (ra, rb))
                for sym, dests_a in arcs_a.items()
                for ra in dests_a
                for rb in arcs_b.get(sym, ())
            ]
        return [
            (sym, (ra, rb))
            for sym, dests_b in arcs_b.items()
            for ra in arcs_a.get(sym, ())
            for rb in dests_b
        ]

    order, arcs = explore((a.initial, b.initial), successors)
    finals = frozenset(
        i for i, (qa, qb) in enumerate(order) if qa in a.finals and qb in b.finals
    )
    return trimmed_nfa(a.alphabet, len(order), arcs, 0, finals)


def nfa_bfs_copy(nfa: Nfa) -> Nfa:
    """``nfa_intersect(nfa_universal(nfa.alphabet), nfa)``, without the product.

    The product's pair ``(0, q)`` stands for ``q``, so the copy explores
    the epsilon-free machine's own arcs, in the same order, and numbers
    and trims its states as the product does.  A machine already
    numbered breadth-first is its own copy once trimmed.
    """
    nfa = nfa_eps_eliminate(nfa)
    rows = nfa.arcs_by_symbol

    def successors(q: int) -> list[tuple[str, int]]:
        return [(sym, r) for sym, rs in rows[q].items() for r in rs]

    order, arcs = explore(nfa.initial, successors)
    if order == list(range(nfa.n_states)):
        return nfa_trim(nfa)
    finals = frozenset(i for i, q in enumerate(order) if q in nfa.finals)
    return trimmed_nfa(nfa.alphabet, len(order), arcs, 0, finals)


def nfa_concat(parts: Sequence[Nfa]) -> Nfa:
    """Language concatenation, in order; epsilon-free and trimmed.

    An empty sequence denotes the empty word's language, which is not
    expressible without an alphabet, so at least one part is required.
    """
    if not parts:
        raise ValueError("nfa_concat needs at least one part")
    alphabet = parts[0].alphabet
    transitions: list[tuple[int, str, int]] = []
    offset = 0
    offsets = []
    for part in parts:
        if part.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
        offsets.append(offset)
        transitions += [(q + offset, sym, r + offset) for q, sym, r in part.transitions]
        offset += part.n_states
    for prev, part, pstart in zip(parts, parts[1:], offsets[1:]):
        prev_off = pstart - prev.n_states
        for f in prev.finals:
            transitions.append((f + prev_off, EPSILON, pstart + part.initial))
    glued = Nfa(
        alphabet,
        offset,
        transitions,
        parts[0].initial,
        frozenset(f + offsets[-1] for f in parts[-1].finals),
    )
    return nfa_trim(nfa_eps_eliminate(glued))


def nfa_union(a: Nfa, b: Nfa) -> Nfa:
    """Disjoint union under a fresh initial state with epsilon branches."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    off_a, off_b = 1, 1 + a.n_states
    transitions = [(0, EPSILON, off_a + a.initial), (0, EPSILON, off_b + b.initial)]
    transitions += [(q + off_a, sym, r + off_a) for q, sym, r in a.transitions]
    transitions += [(q + off_b, sym, r + off_b) for q, sym, r in b.transitions]
    finals = frozenset(
        {f + off_a for f in a.finals} | {f + off_b for f in b.finals}
    )
    return Nfa(a.alphabet, 1 + a.n_states + b.n_states, transitions, 0, finals)


def nfa_determinize(nfa: Nfa) -> Nfa:
    """Complete subset-construction DFA (includes the sink subset)."""
    nfa = nfa_eps_eliminate(nfa)
    rows = nfa.arcs_by_symbol

    def successors(subset: frozenset[int]) -> Iterator[tuple[str, frozenset[int]]]:
        for sym in nfa.alphabet:
            yield sym, frozenset(r for q in subset for r in rows[q].get(sym, ()))

    order, arcs = explore(frozenset({nfa.initial}), successors)
    finals = frozenset(
        i for i, subset in enumerate(order) if not subset.isdisjoint(nfa.finals)
    )
    return Nfa(nfa.alphabet, len(order), arcs, 0, finals)


def nfa_complement(nfa: Nfa) -> Nfa:
    """Accept exactly the words the input rejects."""
    dfa = nfa_determinize(nfa)
    return replace(
        dfa, finals=frozenset(range(dfa.n_states)) - dfa.finals
    )


def nfa_is_empty(nfa: Nfa) -> bool:
    """Whether ``nfa`` accepts no word.

    Accepts any machine, trimmed or not, with or without epsilon arcs: a
    trim keeps a final state exactly when some final state is reachable.
    """
    return not nfa_trim(nfa).finals


def _distances_to_finals(nfa: Nfa) -> list[int]:
    """Each state's word distance to acceptance; ``n_states + 1`` if none."""
    rev: dict[int, set[int]] = {q: set() for q in range(nfa.n_states)}
    for q, _, r in nfa.transitions:
        rev[r].add(q)
    inf = nfa.n_states + 1
    dist = [inf] * nfa.n_states
    queue = deque()
    for f in sorted(nfa.finals):
        dist[f] = 0
        queue.append(f)
    while queue:
        q = queue.popleft()
        for p in rev[q]:
            if dist[p] == inf:
                dist[p] = dist[q] + 1
                queue.append(p)
    return dist


def nfa_nonempty_shortest(nfa: Nfa) -> Optional[str]:
    """The length-then-lex least accepted word, or None if the language is empty.

    Lexicographic order follows the alphabet's declared symbol order.
    Runs in polynomial time: a reverse BFS computes each state's distance
    to acceptance, then the word is built greedily one symbol at a time.
    """
    nfa = nfa_eps_eliminate(nfa)
    dist = _distances_to_finals(nfa)
    if dist[nfa.initial] > nfa.n_states:
        return None
    by_sym = nfa.arcs_by_symbol
    idx = nfa.alphabet._index
    word = []
    states = {nfa.initial}
    remaining = dist[nfa.initial]
    while remaining > 0:
        chosen = None
        letters = {sym for q in states for sym in by_sym[q]}
        for sym in sorted(letters, key=idx.__getitem__):
            nxt = {
                r
                for q in states
                for r in by_sym[q].get(sym, ())
                if dist[r] == remaining - 1
            }
            if nxt:
                chosen = (sym, nxt)
                break
        assert chosen is not None, "distance bookkeeping broken"
        word.append(chosen[0])
        states = chosen[1]
        remaining -= 1
    return "".join(word)


def nfa_multi_slice(nfa: Nfa, sources: Iterable[int], targets: Iterable[int]) -> Nfa:
    """The trimmed slice of ``nfa`` from any of ``sources`` into ``targets``.

    ``nfa`` must be epsilon-free.  A fresh initial state (id
    ``n_states``) carries a copy of every source's arcs and accepts iff
    some source is a target, which keeps the single-initial invariant
    without epsilon arcs.  The result is built trimmed.
    """
    fresh, sources, finals = nfa.n_states, frozenset(sources), frozenset(targets)
    copies = tuple((fresh, sym, r) for q, sym, r in nfa.transitions if q in sources)
    if not finals.isdisjoint(sources):
        finals |= {fresh}
    return trimmed_nfa(nfa.alphabet, fresh + 1, nfa.transitions + copies, fresh, finals)


def nfa_enumerate(
    nfa: Nfa, max_len: int, limit: Optional[int] = None
) -> list[str]:
    """Accepted words of length at most ``max_len``, shortest-then-lex order.

    Exponential in ``max_len`` by nature; intended for oracles and tests.
    With ``limit`` set, stops as soon as that many words have been found
    (useful as a cheap "is this language too big to enumerate" probe).
    """
    if limit is not None and limit <= 0:
        return []
    nfa = nfa_eps_eliminate(nfa)
    # Prune prefixes that cannot reach acceptance within the length budget.
    dist = _distances_to_finals(nfa)

    out: list[str] = []
    start = frozenset({nfa.initial})
    level: list[tuple[str, frozenset[int]]] = [("", start)]
    if start & nfa.finals:
        out.append("")
    for length in range(max_len):
        if limit is not None and len(out) >= limit:
            break
        budget = max_len - length - 1
        nxt_level: list[tuple[str, frozenset[int]]] = []
        for word, states in level:
            for sym in nfa.alphabet:
                nxt = frozenset(r for r in nfa.step(states, sym) if dist[r] <= budget)
                if not nxt:
                    continue
                nxt_level.append((word + sym, nxt))
                if nxt & nfa.finals:
                    out.append(word + sym)
                    if limit is not None and len(out) >= limit:
                        return out
        level = nxt_level
        if not level:
            break
    return out
