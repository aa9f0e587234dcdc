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
generator for every pair it pops.  It reuses the closures it has
already memoised and skips targets that a bit-mask test shows dead;
neither changes an image (see :func:`_image`).

A witness through a transducer needs no image automaton:
:func:`shortest_related` finds the least word related to one given word
by a breadth-first search over word positions and states, and the
solver reads every model through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

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

    @cached_property
    def sources(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Per state of a normalized machine, the sources of the consuming
        arcs into it and of the emitting arcs into it."""
        into: tuple[list[list[int]], list[list[int]]] = (
            [[] for _ in range(self.n_states)],
            [[] for _ in range(self.n_states)],
        )
        for q, ins, _outs, r in self.transitions:
            into[0 if ins else 1][r].append(q)
        return tuple([tuple(qs) for qs in side] for side in into)

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

    Two shortcuts save walking, and neither changes a key, so every
    result is the machine it was without them:

    - The closure walk does not enter a pair whose closure is already
      memoised; it takes that closure's key whole, which is exactly the
      part of the pair's closure that would have entered the key.
    - Most dead targets are seen before their closure is looked up: a
      target ``(tr, s)`` whose ``tr`` neither emits nor accepts, and
      whose silent arcs read none of the letters ``a`` has at ``s``,
      is its own whole closure, with an empty key.  The test is one
      bit mask per transducer state against one per ``a`` state.  This
      catches the echo states of the copy rules above, which would
      otherwise be probed once per (letter, bound state).

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
    # Bit masks over letter indices, for the dead-target test: the
    # letters each ``a`` state reads, and the bound letters of the silent
    # arcs of each transducer state that neither emits nor accepts.  The
    # top bit is set in every ``a`` mask and stands for every other
    # transducer state, which is never skipped.
    idx = t.alphabet._index
    top = 1 << len(t.alphabet)
    a_letters = [
        top | sum(1 << idx[c] for c in a_by_sym[s]) for s in range(a.n_states)
    ]
    probe = [
        top
        if emit_arcs[q] or q in t_finals
        else sum(1 << idx[c] for c, _ in silent_arcs[q])
        for q in range(t.n_states)
    ]
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
        reused: set[tuple[int, int]] = set()
        while stack:
            q, s = stack.pop()
            a_row = a_by_sym[s]
            for bound, trs in silent_arcs[q]:
                for s2 in a_row.get(bound, ()):
                    for tr in trs:
                        pair = (tr, s2)
                        if pair not in seen:
                            seen.add(pair)
                            sub = closures.get(pair)
                            if sub is None:
                                stack.append(pair)
                            elif sub >= 0:
                                reused.update(keys[sub])
        reused.update(
            (q, s)
            for q, s in seen
            if emit_arcs[q] or (q in t_finals and s in a_finals)
        )
        key = tuple(sorted(reused))
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
                    if not probe[tr] & a_letters[s]:
                        continue
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


def shortest_related(
    t: Transducer,
    word: str,
    within: Nfa,
    forward: bool,
    charge: Optional[Callable[[int], None]] = None,
) -> Optional[str]:
    """The length-then-lex least word of ``within`` that ``t`` relates to
    ``word``, or None when there is none.

    ``forward=True`` reads ``word`` as the input and returns an output:
    the shortest word of ``nfa_intersect(apply_function(t, word),
    within)``.  ``forward=False`` reads it as the output and returns an
    input: the shortest word of ``pre_image_within(t, nfa_from_word(word),
    within)``.  Both are found without building either automaton.

    The search is breadth-first over product states (position in
    ``word``, state of ``t.normalized``, state of ``within``).  Arcs on
    the bound side read ``word`` and cost nothing; arcs on the free side
    read a letter of the result, which ``within`` must follow.  States
    are entered in *groups*: a group holds the states first reached by
    one word, closed under bound arcs, and it is expanded letter by
    letter in alphabet order into the groups of its one-letter
    extensions.  Groups are thus made in length-then-lex order of their
    words, and the first that holds an accepting state (the whole of
    ``word`` read, ``t`` and ``within`` final) gives the least related
    word.  A state already in a group is never entered again, so the
    search visits each product state at most once.

    One backward pass over ``word`` first finds, per position, the
    states of ``t`` from which ``t`` can still read the rest of
    ``word`` and stop in a final state; no other pair is entered.  Every
    state on an accepting path is such a pair, so the answer is the
    same.  ``charge``, when given, is called with the size of each group
    as it is made: one unit per product state visited.
    """
    if within.alphabet != t.alphabet:
        raise ValueError("alphabet mismatch")
    t.alphabet.check_word(word)
    t = t.normalized
    w = nfa_eps_eliminate(within)
    if forward:
        free, bound, free_sources = t.emitting, t.consuming, t.sources[1]
    else:
        free, bound, free_sources = t.consuming, t.emitting, t.sources[0]
    live = _finishing(word, t.finals, bound, free_sources)
    if t.initial not in live[0]:
        return None
    n = len(word)
    w_rows = w.arcs_by_symbol
    idx = t.alphabet._index
    t_finals, w_finals = t.finals, w.finals
    seen: set[tuple[int, int, int]] = set()

    def enter(states: list[tuple[int, int, int]]) -> bool:
        """Close the new ``states`` (already in ``seen``) under bound arcs,
        in place; whether one of them accepts."""
        accepts = False
        stack = list(states)
        while stack:
            i, q, s = stack.pop()
            if i == n:
                accepts = accepts or (q in t_finals and s in w_finals)
                continue
            rs = bound[q].get(word[i])
            if not rs:
                continue
            ahead = live[i + 1]
            for r in rs:
                state = (i + 1, r, s)
                if r in ahead and state not in seen:
                    seen.add(state)
                    states.append(state)
                    stack.append(state)
        if charge is not None:
            charge(len(states))
        return accepts

    def spelled(g: int) -> str:
        letters = []
        while g:
            g, c = parents[g]
            letters.append(c)
        return "".join(reversed(letters))

    start = (0, t.initial, w.initial)
    seen.add(start)
    groups = [[start]]
    parents: list[tuple[int, str]] = [(0, EPSILON)]
    if enter(groups[0]):
        return EPSILON
    for g, states in enumerate(groups):
        by_letter: dict[str, list[tuple[int, int, int]]] = {}
        for i, q, s in states:
            w_row = w_rows[s]
            here = live[i]
            for c, rs in free[q].items():
                ss = w_row.get(c)
                if not ss:
                    continue
                targets = by_letter.setdefault(c, [])
                for r in rs:
                    if r in here:
                        targets.extend((i, r, s2) for s2 in ss)
        for c in sorted(by_letter, key=idx.__getitem__):
            new = []
            for state in by_letter[c]:
                if state not in seen:
                    seen.add(state)
                    new.append(state)
            if not new:
                continue
            groups.append(new)
            parents.append((g, c))
            if enter(new):
                return spelled(len(groups) - 1)
    return None


def _finishing(
    word: str,
    finals: frozenset[int],
    bound: list[dict[str, tuple[int, ...]]],
    free_sources: list[tuple[int, ...]],
) -> list[frozenset[int]]:
    """Per position ``i`` of ``word``, the states of a normalized machine
    from which its ``bound`` arcs can read ``word[i:]`` and stop in one
    of ``finals``, taking free arcs (reversed in ``free_sources``)
    anywhere on the way.  Each position's set follows from its letter
    and the next position's set alone, so repeats are looked up."""
    live = [frozenset()] * (len(word) + 1)
    cur = live[len(word)] = frozenset(reachable(finals, free_sources.__getitem__))
    known: dict[tuple[str, frozenset[int]], frozenset[int]] = {}
    for i in range(len(word) - 1, -1, -1):
        key = (word[i], cur)
        cur = known.get(key)
        if cur is None:
            c, ahead = key
            seeds = [
                q for q, row in enumerate(bound) if not ahead.isdisjoint(row.get(c, ()))
            ]
            cur = known[key] = frozenset(reachable(seeds, free_sources.__getitem__))
        if not cur:
            break
        live[i] = cur
    return live


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
