"""Finite-state transducers (rational relations) over a shared alphabet.

Transitions carry a pair of *words* (input, output); authoring-friendly
machines like the HTML escapers write multi-character outputs directly.
:func:`transducer_normalize` rewrites any machine into the one-sided
single-character form the algebra below expects, and every image
operation works on :attr:`Transducer.normalized`, so callers may hand
over either form and each machine is normalized at most once.  As with
:class:`~slsolve.automata.Nfa`, the :class:`Transducer` constructor
fixes the arc order, so callers may pass transitions in any order.

Searches run on the kernels of :mod:`slsolve.automata`: ``explore``
builds the image products, ``reachable`` closes the empty moves of
:func:`transducer_normalize` and decides :func:`transducer_membership`.
The silent closure inside :func:`_image` stays hand-written: it runs for
every (transducer state, bound state) pair of every image, joining two
arc tables at each step, where a ``reachable`` callback would build a
generator for every pair it pops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .automata import (
    EPSILON,
    Alphabet,
    Nfa,
    explore,
    nfa_eps_eliminate,
    nfa_from_word,
    nfa_none,
    reachable,
    trim_renumbering,
    trimmed_nfa,
)


@dataclass(frozen=True)
class Transducer:
    """A finite-state transducer with word-labelled transitions.

    States are ``range(n_states)``; each transition is
    ``(source, input_word, output_word, target)`` where either word may
    be empty.  A machine is *normalized* when every transition has at
    most one non-empty side, that side is a single character, and no
    transition is empty on both sides.

    Callers may pass transitions in any order and with repeats: the
    constructor dedupes them and sorts them by source, then input word
    (shorter first, then codepoint order), then output word (likewise),
    then target.  On a normalized machine each state's emitting arcs thus
    come before its consuming ones, each group in (letter, target) order.
    """

    alphabet: Alphabet
    n_states: int
    transitions: tuple[tuple[int, str, str, int], ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self) -> None:
        n = self.n_states
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        keyed: dict[tuple, tuple[int, str, str, int]] = {}
        for q, ins, outs, r in self.transitions:
            if not (0 <= q < n and 0 <= r < n):
                raise ValueError(f"transition {(q, ins, outs, r)} out of range")
            self.alphabet.check_word(ins)
            self.alphabet.check_word(outs)
            keyed[(q, len(ins), ins, len(outs), outs, r)] = (q, ins, outs, r)
        object.__setattr__(
            self, "transitions", tuple(keyed[key] for key in sorted(keyed))
        )
        for f in self.finals:
            if not (0 <= f < n):
                raise ValueError("final state out of range")

    @cached_property
    def is_normalized(self) -> bool:
        return all(
            (len(ins) == 1 and outs == EPSILON)
            or (ins == EPSILON and len(outs) == 1)
            for _, ins, outs, _ in self.transitions
        )

    @property
    def normalized(self) -> "Transducer":
        """This machine in normalized form (itself when already normalized)."""
        return self if self.is_normalized else self._normal_form

    @cached_property
    def _normal_form(self) -> "Transducer":
        # Not cached on a normalized machine: a machine holding itself is
        # a reference cycle, left for the cyclic collector.
        return transducer_normalize(self)

    @cached_property
    def consuming(self) -> list[dict[str, tuple[int, ...]]]:
        """Per state of a normalized machine: consumed letter -> targets."""
        return self._targets_by_letter(1)

    @cached_property
    def emitting(self) -> list[dict[str, tuple[int, ...]]]:
        """Per state of a normalized machine: emitted letter -> targets."""
        return self._targets_by_letter(2)

    def _targets_by_letter(self, side: int) -> list[dict[str, tuple[int, ...]]]:
        """Targets of the arcs with a letter on ``side``, in (letter, target) order."""
        table: list[dict[str, list[int]]] = [{} for _ in range(self.n_states)]
        for arc in self.transitions:
            if arc[side]:
                table[arc[0]].setdefault(arc[side], []).append(arc[3])
        return [{c: tuple(rs) for c, rs in row.items()} for row in table]


def identity_transducer(alphabet: Alphabet) -> Transducer:
    """Copies its input through unchanged."""
    rules = tuple((0, c, c, 0) for c in alphabet)
    return Transducer(alphabet, 1, rules, 0, frozenset({0}))


def erase_transducer(alphabet: Alphabet, chars: str) -> Transducer:
    """Deletes every occurrence of the given characters, copying the rest."""
    erased = set(chars)
    rules = tuple(
        (0, c, EPSILON if c in erased else c, 0) for c in alphabet
    )
    return Transducer(alphabet, 1, rules, 0, frozenset({0}))


def transducer_normalize(t: Transducer) -> Transducer:
    """Split word labels into single-character one-sided moves.

    Word labels are decomposed through intermediate states, and those
    states are shared aggressively — transitions from one state share a
    trie over their output words, and copy-style transitions (output
    ending in the consumed character) funnel through one state per
    (character, target) pair.  Sharing matters: sanitizer-style machines
    with one word-labeled rule per alphabet letter would otherwise blow
    up by an alphabet factor.  Fully-empty transitions are then removed
    by a closure pass (they act as epsilons), and the result is trimmed.
    The recognized relation is unchanged: within one original
    transition, input and output are unordered, so emitting before
    consuming is a legal decomposition.  Already-normalized machines are
    returned unchanged.
    """
    if t.is_normalized:
        return t
    # A set: trie sharing makes identical arcs common.
    chain: set[tuple[int, str, str, int]] = set()
    empty: list[tuple[int, int]] = []
    n = t.n_states
    fresh: dict[tuple, int] = {}

    def state_for(key: tuple) -> int:
        nonlocal n
        if key not in fresh:
            fresh[key] = n
            n += 1
        return fresh[key]

    def emit_via_trie(q: int, word: str) -> int:
        """Emit ``word`` from ``q`` through the per-state output trie."""
        here = q
        for i, ch in enumerate(word):
            nxt = state_for(("pre", q, word[: i + 1]))
            chain.add((here, EPSILON, ch, nxt))
            here = nxt
        return here

    def emit_to(source: int, word: str, r: int) -> None:
        """Emit ``word`` from ``source``, ending exactly at ``r``."""
        if word == EPSILON:
            if source != r:
                empty.append((source, r))
            return
        here = source
        for i in range(len(word) - 1):
            nxt = state_for(("sfx", word[i + 1 :], r))
            chain.add((here, EPSILON, word[i], nxt))
            here = nxt
        chain.add((here, EPSILON, word[-1], r))

    for q, ins, outs, r in t.transitions:
        if ins == EPSILON and outs == EPSILON:
            empty.append((q, r))
        elif ins == EPSILON:
            emit_to(q, outs, r)
        elif len(ins) == 1:
            if outs != EPSILON and outs[-1] == ins:
                prefix_end = emit_via_trie(q, outs[:-1])
                echo = state_for(("echo", ins, r))
                chain.add((prefix_end, ins, EPSILON, echo))
                chain.add((echo, EPSILON, ins, r))
            else:
                prefix_end = emit_via_trie(q, outs)
                chain.add((prefix_end, ins, EPSILON, r))
        else:
            here = emit_via_trie(q, outs)
            for i in range(len(ins) - 1):
                nxt = state_for(("cons", q, outs, ins, i))
                chain.add((here, ins[i], EPSILON, nxt))
                here = nxt
            chain.add((here, ins[-1], EPSILON, r))

    # Remove the empty-on-both-sides transitions exactly like NFA epsilons.
    fwd: dict[int, set[int]] = {q: set() for q in range(n)}
    for q, r in empty:
        fwd[q].add(r)
    by_state: dict[int, list[tuple[str, str, int]]] = {q: [] for q in range(n)}
    for q, a, b, r in chain:
        by_state[q].append((a, b, r))

    rules: list[tuple[int, str, str, int]] = []
    finals: set[int] = set()
    for q in range(n):
        cl = reachable((q,), fwd.__getitem__)
        if cl & t.finals:
            finals.add(q)
        for p in cl:
            for a, b, r in by_state[p]:
                rules.append((q, a, b, r))

    return trimmed_transducer(t.alphabet, n, rules, t.initial, frozenset(finals))


def trimmed_transducer(
    alphabet: Alphabet,
    n_states: int,
    transitions: Sequence[tuple[int, str, str, int]],
    initial: int,
    finals: frozenset[int],
) -> Transducer:
    """The :class:`Transducer` restricted to its live states, renumbered
    densely, built in one construction as
    :func:`~slsolve.automata.trimmed_nfa` builds a trimmed automaton."""
    remap = trim_renumbering(
        n_states, [(q, r) for q, _, _, r in transitions], initial, finals
    )
    return Transducer(
        alphabet,
        len(remap),
        [
            (remap[q], a, b, remap[r])
            for q, a, b, r in transitions
            if q in remap and r in remap
        ],
        remap[initial],
        frozenset(remap[f] for f in finals if f in remap),
    )


def _image(
    t: Transducer, a: Nfa, forward: bool, within: Optional[Nfa] = None
) -> Nfa:
    """Shared lazy product behind pre/post image.

    ``forward=True`` computes the post-image (outputs compatible with an
    input in ``a``); ``forward=False`` the pre-image.  The free side of
    the transducer becomes the letters of the result, the bound side is
    matched against ``a``.

    Product arcs whose free side is empty would be epsilon transitions
    of the result; instead of materialising them they are folded away
    during the walk with a memoised silent closure per (transducer,
    bound) state pair, so the result is epsilon-free from the start.

    A product state is keyed by the part of its silent closure that can
    still matter — the pairs whose transducer state has a free-labelled
    arc, or that accept — together with its ``within`` state.  Finality
    and outgoing arcs depend on nothing else, so raw states with equal
    keys accept the same words and merging them keeps every language.
    This is what stops copy rules from multiplying a pre-image: the
    normalized ``c/c`` consumes ``c`` into a per-letter echo state whose
    only arc, emitting ``c``, is silent there (the free side is the
    input).  The echo state is thus left out of its own key, which
    equals that of the state it returns to, and no state per (letter,
    target, bound) is built.

    A target whose key is empty has no free arc and does not accept, so
    it is dead; it is never entered, and since it has no successors,
    skipping it leaves the discovery order of the live states as it was.
    Each state yields one arc per (letter, target) pair, and the result
    is built and trimmed in one construction from the explored arcs.

    ``within``, when given, is intersected in on the fly: its states
    ride along on the free side, and moves it cannot follow are never
    expanded.  A small bounding automaton therefore prunes the whole
    exploration rather than filtering a fully built product after the
    fact.
    """
    if t.alphabet != a.alphabet:
        raise ValueError("alphabet mismatch")
    if within is not None and within.alphabet != t.alphabet:
        raise ValueError("alphabet mismatch")
    t = t.normalized
    a = nfa_eps_eliminate(a)
    w = nfa_eps_eliminate(within) if within is not None else None

    a_by_sym = a.arcs_by_symbol
    w_by_sym = w.arcs_by_symbol if w is not None else None
    # Per transducer state, as (letter, targets) tuples: arcs that emit a
    # letter of the result (their bound side is empty, so ``a`` stays
    # put) and silent arcs (which read their bound letter from ``a``).
    if forward:
        emitting, silent = t.emitting, t.consuming
    else:
        emitting, silent = t.consuming, t.emitting
    emit_arcs = [tuple(row.items()) for row in emitting]
    silent_arcs = [tuple(row.items()) for row in silent]
    t_finals, a_finals = t.finals, a.finals
    # Closures are interned: a product state is (closure id, within
    # state), and ``keys[cid]`` is the closure itself.
    keys: list[tuple[tuple[int, int], ...]] = []
    key_ids: dict[tuple[tuple[int, int], ...], int] = {}
    # Memoised per (transducer, bound) pair; -1 for an empty closure.
    closures: dict[tuple[int, int], int] = {}

    def closure_of(start: tuple[int, int]) -> int:
        """Id of the pairs reachable from ``start`` by free-empty arcs that
        can emit or accept; -1 when there are none."""
        seen = {start}
        stack = [start]
        while stack:
            q, s = stack.pop()
            a_row = a_by_sym[s]
            for bound, trs in silent_arcs[q]:
                for s2 in a_row.get(bound, ()):
                    for tr in trs:
                        pair = (tr, s2)
                        if pair not in seen:
                            seen.add(pair)
                            stack.append(pair)
        key = tuple(
            sorted(
                (q, s)
                for q, s in seen
                if emit_arcs[q] or (q in t_finals and s in a_finals)
            )
        )
        if not key:
            cid = -1
        else:
            cid = key_ids.get(key)
            if cid is None:
                cid = key_ids[key] = len(keys)
                keys.append(key)
        closures[start] = cid
        return cid

    def successors(state: tuple[int, int]) -> list[tuple[str, tuple[int, int]]]:
        cid, ws = state
        out: list[tuple[str, tuple[int, int]]] = []
        seen: set[tuple[str, int]] = set()
        for q, s in keys[cid]:
            for free, trs in emit_arcs[q]:
                w_targets = (-1,) if w_by_sym is None else w_by_sym[ws].get(free)
                if not w_targets:
                    continue
                for tr in trs:
                    target = closures.get((tr, s))
                    if target is None:
                        target = closure_of((tr, s))
                    if target < 0 or (free, target) in seen:
                        continue
                    seen.add((free, target))
                    for wt in w_targets:
                        out.append((free, (target, wt)))
        return out

    start = closure_of((t.initial, a.initial))
    if start < 0:
        return nfa_none(t.alphabet)
    order, arcs = explore(
        (start, w.initial if w is not None else -1), successors
    )
    accepting = [
        any(q in t_finals and s in a_finals for q, s in key) for key in keys
    ]
    finals = frozenset(
        i
        for i, (cid, ws) in enumerate(order)
        if accepting[cid] and (w is None or ws in w.finals)
    )
    return trimmed_nfa(t.alphabet, len(order), arcs, 0, finals)


def post_image(t: Transducer, a: Nfa) -> Nfa:
    """NFA for { y : (x, y) in the relation for some x accepted by ``a`` }."""
    return _image(t, a, forward=True)


def pre_image(t: Transducer, a: Nfa) -> Nfa:
    """NFA for { x : (x, y) in the relation for some y accepted by ``a`` }."""
    return _image(t, a, forward=False)


def pre_image_within(t: Transducer, a: Nfa, within: Nfa) -> Nfa:
    """``pre_image(t, a)`` intersected with ``within``, fused into one walk.

    Equivalent to ``nfa_intersect(within, pre_image(t, a))`` but the
    bounding automaton prunes during product construction, which matters
    when the unrestricted pre-image would be large.
    """
    return _image(t, a, forward=False, within=within)


def apply_function(t: Transducer, word: str) -> Nfa:
    """NFA of all outputs the transducer can produce on the given input."""
    return post_image(t, nfa_from_word(word, t.alphabet))


def transducer_membership(t: Transducer, x: str, y: str) -> bool:
    """Does the relation contain the pair ``(x, y)``?

    A search over positions ``(i, j)`` in ``x`` and ``y`` and states;
    every move of a normalized machine advances ``i + j``, so the search
    space is finite.
    """
    t = t.normalized
    t.alphabet.check_word(x)
    t.alphabet.check_word(y)

    def moves(pos: tuple[int, int, int]) -> Iterator[tuple[int, int, int]]:
        i, j, q = pos
        if j < len(y):
            yield from ((i, j + 1, r) for r in t.emitting[q].get(y[j], ()))
        if i < len(x):
            yield from ((i + 1, j, r) for r in t.consuming[q].get(x[i], ()))

    reached = reachable([(0, 0, t.initial)], moves)
    return any((len(x), len(y), f) in reached for f in t.finals)
