"""Checks for the NFA algebra: products, complements, slicing, witnesses.

The heavier properties run exhaustively at small scale: every boolean
operation is compared against set algebra on all words up to length 6,
and slicing is validated through the full run-decomposition equivalence.
"""

import itertools
import random
from dataclasses import replace

import pytest

from slsolve.automata import (
    EPSILON,
    Alphabet,
    Nfa,
    explore,
    live_states,
    nfa_complement,
    nfa_concat,
    nfa_determinize,
    nfa_enumerate,
    nfa_eps_eliminate,
    nfa_from_word,
    nfa_intersect,
    nfa_is_empty,
    nfa_membership,
    nfa_multi_slice,
    nfa_none,
    nfa_nonempty_shortest,
    nfa_reduce,
    nfa_trim,
    nfa_union,
    nfa_universal,
    reachable,
)
from slsolve.oracle import _random_pattern
from slsolve.regex import regex_parse

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def words_up_to(alphabet: Alphabet, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet.symbols, repeat=n))
    return out


def language(nfa: Nfa, max_len: int) -> frozenset[str]:
    return frozenset(nfa_enumerate(nfa, max_len))


def random_nfa(rng: random.Random, alphabet: Alphabet, max_states: int = 4) -> Nfa:
    """A small random machine, sometimes with epsilon arcs."""
    n = rng.randint(1, max_states)
    labels = list(alphabet.symbols) + [EPSILON]
    transitions = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        transitions.append(
            (rng.randrange(n), rng.choice(labels), rng.randrange(n))
        )
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Nfa(alphabet, n, tuple(set(transitions)), 0, finals)


def gallery(alphabet: Alphabet) -> list[Nfa]:
    """A fixed mix of hand-built and seeded machines for differential runs."""
    sym = alphabet.symbols
    machines = [
        nfa_none(alphabet),
        nfa_universal(alphabet),
        nfa_from_word("", alphabet),
        nfa_from_word(sym[0] * 2, alphabet),
        nfa_from_word(sym[0] + sym[1], alphabet),
        regex_parse(f"{sym[0]}*", alphabet),
        regex_parse(f"({sym[0]}|{sym[1]}{sym[1]})*", alphabet),
    ]
    rng = random.Random(20240917)
    machines.extend(random_nfa(rng, alphabet) for _ in range(5))
    return machines


def epsilon_machines(seed: int, alphabet: Alphabet = ABC) -> list[Nfa]:
    """Seeded Thompson machines and unions of two, all with epsilon arcs."""
    rng = random.Random(seed)
    parsed = [
        regex_parse(_random_pattern(rng, alphabet, depth=3), alphabet)
        for _ in range(12)
    ]
    unions = [nfa_union(rng.choice(parsed), rng.choice(parsed)) for _ in range(6)]
    return [m for m in parsed + unions if m.has_epsilon]


# ---------------------------------------------------------------------------
# Construction and validation


def test_alphabet_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Alphabet.of("")
    with pytest.raises(ValueError):
        Alphabet.of(["ab"])
    with pytest.raises(ValueError):
        Alphabet.of("aa")


def test_alphabet_order_is_declaration_order():
    alphabet = Alphabet.of("ba")
    assert list(alphabet) == ["b", "a"]
    assert alphabet.index("b") == 0


def test_nfa_validation():
    with pytest.raises(ValueError):
        Nfa(AB, 1, (), 1, frozenset())
    with pytest.raises(ValueError):
        Nfa(AB, 1, ((0, "a", 5),), 0, frozenset())
    with pytest.raises(ValueError):
        Nfa(AB, 1, ((0, "z", 0),), 0, frozenset())
    with pytest.raises(ValueError):
        Nfa(AB, 1, (), 0, frozenset({3}))


def test_from_word_accepts_exactly_that_word():
    nfa = nfa_from_word("ab", AB)
    assert nfa_membership(nfa, "ab")
    for w in words_up_to(AB, 3):
        assert nfa_membership(nfa, w) == (w == "ab")


def test_from_word_empty():
    nfa = nfa_from_word("", AB)
    assert language(nfa, 2) == {""}


def test_none_and_universal():
    assert language(nfa_none(AB), 3) == frozenset()
    assert language(nfa_universal(AB), 2) == set(words_up_to(AB, 2))


# ---------------------------------------------------------------------------
# Search kernels


@pytest.mark.parametrize("cap", [None, 1, 6, 7, 8])
def test_explore_numbers_breadth_first_and_stops_past_the_cap(cap):
    # A binary heap of seven nodes: breadth-first discovery is 0..6, where
    # a depth-first walk would give 0, 1, 3, 4, 2, 5, 6.
    def children(q):
        return [(c, 2 * q + c) for c in (1, 2) if 2 * q + c < 7]

    explored = explore(0, children, cap=cap)
    if cap is not None and cap < 7:
        assert explored is None
        return
    order, arcs = explored
    assert order == list(range(7))
    assert arcs == [(q, c, 2 * q + c) for q in range(3) for c in (1, 2)]


def test_live_states_are_reachable_and_coreachable():
    # 0 -> 1 -> 3 is live; 2 is a dead end, 4 is unreachable.
    edges = [(0, 1), (1, 3), (0, 2), (4, 3), (3, 3)]
    succ = {0: [1, 2], 1: [3], 2: [], 3: [3], 4: [3]}
    assert reachable([0], succ.__getitem__) == {0, 1, 2, 3}
    assert reachable([4, 2], succ.__getitem__) == {2, 3, 4}
    assert live_states(5, edges, 0, {3}) == {0, 1, 3}
    assert live_states(5, edges, 0, set()) == set()


def test_live_states_and_emptiness_on_random_graphs():
    """Both against their definitions: plain forward and backward searches."""
    rng = random.Random(13)
    empty = 0
    for _ in range(1500):
        n = rng.randint(1, 9)
        arcs = [
            (rng.randrange(n), rng.choice((EPSILON, "a", "b")), rng.randrange(n))
            for _ in range(rng.randint(0, 3 * n))
        ]
        initial = rng.randrange(n)
        finals = frozenset(q for q in range(n) if rng.random() < 0.25)
        fwd: dict[int, list[int]] = {q: [] for q in range(n)}
        rev: dict[int, list[int]] = {q: [] for q in range(n)}
        for q, _, r in arcs:
            fwd[q].append(r)
            rev[r].append(q)
        forward = reachable([initial], fwd.__getitem__)
        backward = reachable(finals, rev.__getitem__)
        edges = [(q, r) for q, _, r in arcs]
        assert live_states(n, edges, initial, finals) == forward & backward
        is_empty = nfa_is_empty(Nfa(AB, n, arcs, initial, finals))
        assert is_empty == forward.isdisjoint(finals)
        empty += is_empty
    assert 0 < empty < 1500


# ---------------------------------------------------------------------------
# Language-preserving rewrites


def test_eps_eliminate_removes_epsilons_and_preserves_language():
    """The copy is built once per machine and is its own copy."""
    rng = random.Random(7)
    machines = [random_nfa(rng, AB) for _ in range(40)] + epsilon_machines(18)
    for nfa in machines:
        flat = nfa_eps_eliminate(nfa)
        assert not flat.has_epsilon
        assert language(flat, 6) == language(nfa, 6)
        assert nfa_eps_eliminate(nfa) is flat
        assert nfa_eps_eliminate(flat) is flat
        for word in words_up_to(nfa.alphabet, 5):
            assert nfa_membership(nfa, word) == nfa_membership(flat, word)


def test_eps_free_input_passes_through():
    nfa = nfa_from_word("ab", AB)
    assert nfa_eps_eliminate(nfa) is nfa


def test_trim_preserves_language():
    rng = random.Random(8)
    for _ in range(40):
        nfa = random_nfa(rng, ABC)
        trimmed = nfa_trim(nfa)
        assert language(trimmed, 5) == language(nfa, 5)
        assert trimmed.n_states <= max(nfa.n_states, 1)


def test_reduce_preserves_language_and_never_grows():
    rng = random.Random(9)
    for _ in range(60):
        nfa = random_nfa(rng, AB, max_states=5)
        reduced = nfa_reduce(nfa)
        assert language(reduced, 6) == language(nfa, 6)
        assert reduced.n_states <= max(nfa.n_states, 1)


def test_reduce_merges_duplicate_tails():
    # Two parallel branches with identical futures collapse to one.
    nfa = Nfa(
        AB,
        4,
        ((0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 3)),
        0,
        frozenset({3}),
    )
    assert nfa_reduce(nfa).n_states == 3


# ---------------------------------------------------------------------------
# Boolean operations, exhaustively at small scale


def test_intersection_matches_set_intersection():
    machines = gallery(ABC)
    for a, b in itertools.product(machines, repeat=2):
        assert language(nfa_intersect(a, b), 6) == language(a, 6) & language(b, 6)


def test_union_matches_set_union():
    machines = gallery(ABC)
    for a, b in itertools.product(machines, repeat=2):
        assert language(nfa_union(a, b), 6) == language(a, 6) | language(b, 6)


def test_complement_matches_set_complement():
    all_words = frozenset(words_up_to(ABC, 6))
    for a in gallery(ABC):
        assert language(nfa_complement(a), 6) == all_words - language(a, 6)


def test_complement_is_involutive_on_language():
    for a in gallery(AB):
        assert language(nfa_complement(nfa_complement(a)), 6) == language(a, 6)


def test_complement_of_universal_is_empty():
    assert nfa_is_empty(nfa_complement(nfa_universal(AB)))


def test_intersect_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        nfa_intersect(nfa_universal(AB), nfa_universal(ABC))


def test_searches_on_epsilon_machines_equal_their_eliminated_runs():
    """Searches on a machine with epsilon arcs equal those on its copy."""
    machines = epsilon_machines(18)
    assert len(machines) >= 12
    plain = machines[:4] + [nfa_from_word("ab", ABC), nfa_universal(ABC)]
    for a in machines:
        flat = nfa_eps_eliminate(a)
        assert nfa_determinize(a) == nfa_determinize(flat)
        assert nfa_complement(a) == nfa_complement(flat)
        for b in plain:
            flat_b = nfa_eps_eliminate(b)
            assert nfa_intersect(a, b) == nfa_intersect(flat, flat_b)
            assert nfa_intersect(b, a) == nfa_intersect(flat_b, flat)


def test_determinize_is_deterministic_and_equivalent():
    for a in gallery(AB):
        det = nfa_determinize(a)
        assert language(det, 6) == language(a, 6)
        assert not det.has_epsilon
        seen = set()
        for q, sym, _r in det.transitions:
            assert (q, sym) not in seen
            seen.add((q, sym))


def test_concat_matches_pairwise_concatenation():
    a = regex_parse("a*", AB)
    b = nfa_from_word("b", AB)
    c = regex_parse("a|b", AB)
    out = language(nfa_concat([a, b, c]), 5)
    expected = {
        x + y + z
        for x in language(a, 3)
        for y in language(b, 1)
        for z in language(c, 1)
        if len(x + y + z) <= 5
    }
    assert out == expected


def test_is_empty():
    assert nfa_is_empty(nfa_none(AB))
    assert not nfa_is_empty(nfa_from_word("", AB))
    # Final state unreachable from the initial state.
    dead = Nfa(AB, 2, (), 0, frozenset({1}))
    assert nfa_is_empty(dead)


# ---------------------------------------------------------------------------
# Witness extraction


def test_shortest_picks_minimum_length():
    nfa = nfa_union(nfa_from_word("ab", AB), nfa_from_word("b", AB))
    assert nfa_nonempty_shortest(nfa) == "b"


def test_shortest_of_empty_language_is_none():
    dead = Nfa(AB, 2, (), 0, frozenset({1}))
    assert nfa_nonempty_shortest(dead) is None


def test_shortest_loops_through_cycles():
    assert nfa_nonempty_shortest(regex_parse("(aa)*b", AB)) == "b"


def test_shortest_breaks_ties_by_alphabet_order():
    # Same language, opposite declared orders: the tie flips with them.
    one = regex_parse("a|b", Alphabet.of("ab"))
    other = regex_parse("a|b", Alphabet.of("ba"))
    assert nfa_nonempty_shortest(one) == "a"
    assert nfa_nonempty_shortest(other) == "b"


def test_shortest_is_reproducible():
    rng = random.Random(10)
    for _ in range(30):
        nfa = random_nfa(rng, ABC)
        assert nfa_nonempty_shortest(nfa) == nfa_nonempty_shortest(nfa)


def test_shortest_agrees_with_enumeration():
    rng = random.Random(11)
    machines = [random_nfa(rng, AB, max_states=5) for _ in range(30)]
    # Nonempty words over an alphabet declared out of codepoint order.
    cab = Alphabet.of("cab")
    nonempty = regex_parse("(c|a|b)+", cab)
    machines += [nfa_intersect(m, nonempty) for m in epsilon_machines(11, cab)]
    for nfa in machines:
        first = nfa_enumerate(nfa, 6, limit=1)
        witness = nfa_nonempty_shortest(nfa)
        if first and len(first[0]) <= 6:
            assert witness == first[0]
        elif witness is not None:
            assert len(witness) > 6


# ---------------------------------------------------------------------------
# Slicing


def test_slice_of_single_final_machine_is_identity():
    nfa = nfa_from_word("ab", AB)
    (final,) = nfa.finals
    sliced = replace(nfa, finals=frozenset({final}))
    assert language(sliced, 4) == language(nfa, 4)


def test_slice_to_self_accepts_epsilon():
    nfa = nfa_from_word("ab", AB)
    for q in range(nfa.n_states):
        assert nfa_membership(replace(nfa, initial=q, finals=frozenset({q})), "")


def test_slice_run_decomposition_exhaustive():
    """w is accepted iff some cut w=uv passes through some mid state."""
    for nfa in gallery(AB):
        flat = nfa_eps_eliminate(nfa)
        slice_from_start = [
            language(replace(flat, finals=frozenset({q})), 5)
            for q in range(flat.n_states)
        ]
        slice_to_final = [
            language(nfa_multi_slice(flat, [q], flat.finals), 5)
            for q in range(flat.n_states)
        ]
        full = language(flat, 5)
        for w in words_up_to(AB, 5):
            decomposed = any(
                w[:i] in slice_from_start[q] and w[i:] in slice_to_final[q]
                for i in range(len(w) + 1)
                for q in range(flat.n_states)
            )
            assert decomposed == (w in full)


def test_multi_slice_is_union_of_slices():
    nfa = nfa_eps_eliminate(regex_parse("(a|bb)*", AB))
    sources = [0]
    targets = list(range(nfa.n_states))
    combined = language(nfa_multi_slice(nfa, sources, targets), 4)
    separate = frozenset().union(
        *(language(replace(nfa, initial=0, finals=frozenset({t})), 4) for t in targets)
    )
    assert combined == separate


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_order_is_shortest_then_lex():
    nfa = regex_parse("a*|b*", AB)
    assert nfa_enumerate(nfa, 2) == ["", "a", "b", "aa", "bb"]


def test_enumerate_respects_limit():
    nfa = nfa_universal(ABC)
    assert nfa_enumerate(nfa, 4, limit=5) == ["", "a", "b", "c", "aa"]


def test_enumerate_with_zero_limit_finds_nothing():
    nfa = nfa_universal(ABC)
    assert nfa_enumerate(nfa, 4, limit=1) == [""]
    assert nfa_enumerate(nfa, 4, limit=0) == []


def test_enumerate_agrees_with_membership():
    rng = random.Random(12)
    for _ in range(20):
        nfa = random_nfa(rng, AB)
        found = set(nfa_enumerate(nfa, 5))
        for w in words_up_to(AB, 5):
            assert (w in found) == nfa_membership(nfa, w)


def test_constructor_fixes_the_arc_order():
    # Epsilon first, then letters in alphabet order (here b before a).
    ba = Alphabet.of("ba")
    nfa = Nfa(
        ba,
        2,
        ((1, "b", 0), (0, "a", 1), (0, "b", 1), (0, EPSILON, 1), (0, "a", 1)),
        0,
        frozenset({1}),
    )
    assert nfa.transitions == ((0, EPSILON, 1), (0, "b", 1), (0, "a", 1), (1, "b", 0))


def test_permuted_duplicated_transitions_give_the_same_machine():
    def key(arc):
        q, sym, r = arc
        return (q, -1 if sym == EPSILON else ABC.index(sym), r)

    rng = random.Random(41)
    for _ in range(60):
        nfa = random_nfa(rng, ABC, max_states=5)
        canonical = tuple(sorted(set(nfa.transitions), key=key))
        shuffled = list(canonical) * 2
        rng.shuffle(shuffled)
        sorted_machine = Nfa(ABC, nfa.n_states, canonical, nfa.initial, nfa.finals)
        shuffled_machine = Nfa(ABC, nfa.n_states, shuffled, nfa.initial, nfa.finals)
        assert shuffled_machine == sorted_machine
        assert hash(shuffled_machine) == hash(sorted_machine)
        assert shuffled_machine.transitions == canonical
