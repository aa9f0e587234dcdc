"""Transducer semantics checked against a pair-membership oracle.

``transducer_membership`` (dynamic programming over positions and
states) serves as the ground truth; images, normalization, trimming,
and slicing are all validated against it on exhaustively enumerated
small pairs.
"""

import itertools
import random
from dataclasses import replace

import pytest

from slsolve.automata import (
    EPSILON,
    Alphabet,
    Nfa,
    nfa_enumerate,
    nfa_from_word,
    nfa_intersect,
    nfa_is_empty,
    nfa_membership,
    nfa_none,
    nfa_union,
    nfa_universal,
)
from slsolve.transducer import (
    Transducer,
    apply_function,
    erase_transducer,
    identity_transducer,
    post_image,
    pre_image,
    pre_image_within,
    transducer_membership,
    transducer_normalize,
    trimmed_transducer,
)
from slsolve.websec import (
    WEB_ALPHABET,
    escape_string_transducer,
    html_escape_transducer,
    innerhtml_decode_transducer,
)

AB = Alphabet.of("ab")
ANGLE = Alphabet.of("a b <".replace(" ", ""))


def words_up_to(alphabet: Alphabet, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet.symbols, repeat=n))
    return out


def random_transducer(
    rng: random.Random, alphabet: Alphabet, with_output_rules: bool = True
) -> Transducer:
    """A small random machine with letter-consuming rules.

    With ``with_output_rules`` False every rule consumes one input
    letter, so outputs are at most twice as long as inputs and image
    languages can be compared exactly on bounded enumerations.
    """
    n = rng.randint(1, 3)
    rules = []
    for _ in range(rng.randint(n, 2 * n + 2)):
        q, r = rng.randrange(n), rng.randrange(n)
        if with_output_rules and rng.random() < 0.25:
            rules.append((q, EPSILON, rng.choice(alphabet.symbols), r))
        else:
            out_len = rng.randint(0, 2)
            out = "".join(rng.choice(alphabet.symbols) for _ in range(out_len))
            rules.append((q, rng.choice(alphabet.symbols), out, r))
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Transducer(alphabet, n, tuple(set(rules)), 0, finals)


def pair_language(
    t: Transducer, max_x: int, max_y: int
) -> frozenset[tuple[str, str]]:
    return frozenset(
        (x, y)
        for x in words_up_to(t.alphabet, max_x)
        for y in words_up_to(t.alphabet, max_y)
        if transducer_membership(t, x, y)
    )


# ---------------------------------------------------------------------------
# Construction and builtin machines


def test_transducer_validation():
    with pytest.raises(ValueError):
        Transducer(AB, 1, (), 2, frozenset())
    with pytest.raises(ValueError):
        Transducer(AB, 1, ((0, "z", "a", 0),), 0, frozenset())
    with pytest.raises(ValueError):
        Transducer(AB, 1, ((0, "a", "a", 4),), 0, frozenset())


def test_identity_relates_every_word_to_itself():
    t = identity_transducer(AB)
    for w in words_up_to(AB, 3):
        assert transducer_membership(t, w, w)
    assert not transducer_membership(t, "a", "b")
    assert not transducer_membership(t, "a", "aa")


def test_erase_drops_the_listed_letters():
    t = erase_transducer(ANGLE, "<")
    assert transducer_membership(t, "<a<b", "ab")
    assert transducer_membership(t, "<", "")
    assert not transducer_membership(t, "a", "b")
    assert not transducer_membership(t, "ab", "a")


def test_apply_function_on_identity_and_erase():
    assert nfa_enumerate(apply_function(identity_transducer(AB), "ab"), 4) == ["ab"]
    erased = apply_function(erase_transducer(ANGLE, "<"), "<a<")
    assert nfa_enumerate(erased, 4) == ["a"]


# ---------------------------------------------------------------------------
# Normalization, trimming, slicing


def test_normalize_one_sided_rules():
    rng = random.Random(21)
    for _ in range(25):
        t = random_transducer(rng, AB)
        norm = transducer_normalize(t)
        assert norm.is_normalized
        assert pair_language(norm, 4, 4) == pair_language(t, 4, 4)


def test_normalize_is_identity_on_normalized_input():
    t = transducer_normalize(random_transducer(random.Random(3), AB))
    assert transducer_normalize(t) is t


def test_trim_preserves_relation():
    rng = random.Random(22)
    for _ in range(25):
        t = random_transducer(rng, AB)
        trimmed = trimmed_transducer(
            t.alphabet, t.n_states, t.transitions, t.initial, t.finals
        )
        assert pair_language(trimmed, 4, 4) == pair_language(t, 4, 4)


def test_slice_full_span_is_identity_for_single_final():
    t = transducer_normalize(identity_transducer(AB))
    finals = sorted(t.finals)
    if len(finals) == 1:
        sliced = replace(t, finals=frozenset({finals[0]}))
        assert pair_language(sliced, 3, 3) == pair_language(t, 3, 3)


def test_slice_to_self_contains_empty_pair():
    t = transducer_normalize(erase_transducer(AB, "a"))
    for p in range(t.n_states):
        sliced = replace(t, initial=p, finals=frozenset({p}))
        assert transducer_membership(sliced, "", "")


def test_slice_pair_decomposition_exhaustive():
    """(x,y) is related iff some cut of both runs through some mid state."""
    rng = random.Random(23)
    for _ in range(5):
        t = transducer_normalize(random_transducer(rng, AB))
        full = pair_language(t, 4, 4)
        first_half = [
            pair_language(replace(t, finals=frozenset({p})), 4, 4)
            for p in range(t.n_states)
        ]
        second_half = []
        for p in range(t.n_states):
            merged: set[tuple[str, str]] = set()
            for f in sorted(t.finals):
                sliced = replace(t, initial=p, finals=frozenset({f}))
                merged |= pair_language(sliced, 4, 4)
            second_half.append(frozenset(merged))
        for x in words_up_to(AB, 4):
            for y in words_up_to(AB, 4):
                decomposed = any(
                    (x[:i], y[:j]) in first_half[p]
                    and (x[i:], y[j:]) in second_half[p]
                    for p in range(t.n_states)
                    for i in range(len(x) + 1)
                    for j in range(len(y) + 1)
                )
                assert decomposed == ((x, y) in full)


# ---------------------------------------------------------------------------
# Images


def test_pre_image_of_identity_is_the_language():
    a = nfa_union(nfa_from_word("ab", AB), nfa_from_word("b", AB))
    pre = pre_image(identity_transducer(AB), a)
    assert set(nfa_enumerate(pre, 4)) == set(nfa_enumerate(a, 4))


def test_post_image_of_identity_is_the_language():
    a = nfa_union(nfa_from_word("ab", AB), nfa_from_word("b", AB))
    post = post_image(identity_transducer(AB), a)
    assert set(nfa_enumerate(post, 4)) == set(nfa_enumerate(a, 4))


def test_images_of_empty_language_are_empty():
    t = erase_transducer(AB, "a")
    assert nfa_is_empty(pre_image(t, nfa_none(AB)))
    assert nfa_is_empty(post_image(t, nfa_none(AB)))


def test_erase_pre_image_members():
    pre = pre_image(erase_transducer(ANGLE, "<"), nfa_from_word("aa", ANGLE))
    assert nfa_membership(pre, "<a<a<")
    assert nfa_membership(pre, "aa")
    assert not nfa_membership(pre, "ab")


def test_pre_image_agrees_with_membership_oracle():
    rng = random.Random(24)
    targets = [nfa_from_word("ab", AB), nfa_from_word("", AB),
               nfa_union(nfa_from_word("a", AB), nfa_from_word("bb", AB))]
    for _ in range(20):
        t = random_transducer(rng, AB)
        for a in targets:
            pre = pre_image(t, a)
            outputs = nfa_enumerate(a, 4)
            for x in words_up_to(AB, 4):
                expected = any(transducer_membership(t, x, y) for y in outputs)
                assert nfa_membership(pre, x) == expected


def test_post_image_agrees_with_membership_oracle():
    rng = random.Random(25)
    sources = [nfa_from_word("ab", AB), nfa_from_word("ba", AB),
               nfa_union(nfa_from_word("a", AB), nfa_from_word("", AB))]
    for _ in range(20):
        # Letter-consuming rules only: outputs of bounded inputs are bounded.
        t = random_transducer(rng, AB, with_output_rules=False)
        for a in sources:
            post = post_image(t, a)
            inputs = nfa_enumerate(a, 4)
            for y in words_up_to(AB, 5):
                expected = any(transducer_membership(t, x, y) for x in inputs)
                assert nfa_membership(post, y) == expected


def test_pre_image_within_is_intersection_with_pre_image():
    rng = random.Random(26)
    for _ in range(25):
        t = random_transducer(rng, AB)
        target = nfa_union(nfa_from_word("ab", AB), nfa_from_word("b", AB))
        within = nfa_union(
            nfa_universal(AB) if rng.random() < 0.3 else nfa_from_word("a", AB),
            nfa_from_word("ab", AB),
        )
        fused = pre_image_within(t, target, within)
        separate = nfa_intersect(within, pre_image(t, target))
        assert set(nfa_enumerate(fused, 5)) == set(nfa_enumerate(separate, 5))


def test_images_reject_alphabet_mismatch():
    with pytest.raises(ValueError):
        pre_image(identity_transducer(AB), nfa_universal(ANGLE))


def test_constructor_fixes_the_arc_order():
    # By source, then input word (shorter first), then output word, then target.
    t = Transducer(
        AB,
        2,
        [(1, "b", "", 0), (0, "ab", "b", 1), (0, "b", "", 1), (0, "", "a", 1),
         (0, "b", "", 1), (0, "b", "ab", 0)],
        0,
        frozenset({1}),
    )
    assert t.transitions == (
        (0, "", "a", 1),
        (0, "b", "", 1),
        (0, "b", "ab", 0),
        (0, "ab", "b", 1),
        (1, "b", "", 0),
    )


def test_permuted_duplicated_rules_give_the_same_machine():
    def key(arc):
        q, ins, outs, r = arc
        return (q, len(ins), ins, len(outs), outs, r)

    rng = random.Random(43)
    for _ in range(60):
        t = random_transducer(rng, ANGLE)
        canonical = tuple(sorted(set(t.transitions), key=key))
        shuffled = list(canonical) * 2
        rng.shuffle(shuffled)
        sorted_machine = Transducer(ANGLE, t.n_states, canonical, t.initial, t.finals)
        shuffled_machine = Transducer(ANGLE, t.n_states, shuffled, t.initial, t.finals)
        assert shuffled_machine == sorted_machine
        assert hash(shuffled_machine) == hash(sorted_machine)
        assert shuffled_machine.transitions == canonical


def scanned_targets(t: Transducer, q: int, side: int) -> dict[str, tuple[int, ...]]:
    """Letter -> sorted targets of ``q``'s arcs with a letter on ``side``."""
    arcs = [arc for arc in t.transitions if arc[0] == q and arc[side]]
    return {
        c: tuple(sorted(arc[3] for arc in arcs if arc[side] == c))
        for c in sorted({arc[side] for arc in arcs})
    }


def test_consume_and_emit_tables_match_a_scan_of_the_arcs():
    machines = [
        identity_transducer(WEB_ALPHABET),
        escape_string_transducer(WEB_ALPHABET),
        html_escape_transducer(WEB_ALPHABET),
        innerhtml_decode_transducer(WEB_ALPHABET),
    ]
    rng = random.Random(44)
    machines += [random_transducer(rng, ANGLE) for _ in range(40)]
    for raw in machines:
        t = raw.normalized
        assert t.is_normalized
        assert len(t.consuming) == len(t.emitting) == t.n_states
        for q in range(t.n_states):
            # Same letters, targets and (letter, target) order as the scan.
            for table, side in ((t.consuming, 1), (t.emitting, 2)):
                assert list(table[q].items()) == list(scanned_targets(t, q, side).items())
