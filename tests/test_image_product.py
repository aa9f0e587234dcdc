"""The closure-keyed transducer image product.

``transducer._image`` names each product state by the part of its
silent closure that can still emit or accept, plus the bounding state.
Its pre-, post- and bounded pre-images on random transducers and on the
bundled sanitizers are pinned per case in two digests:

- a semantic pin of the words each image accepts up to length 5
  (sanitizer images: only the words over the letters they act on);
- a shape pin of each image's state count, which a change to the
  construction may re-record, saying why.

Sizes are also checked by state counts, not wall clocks, and the
bundled sanitizer answers are pinned.  The pins were recorded while a
copy of the construction ``_image`` replaced (one product state per raw
(transducer, bound, bounding) triple) still checked every image: the
same words, and no more states than it.  To re-record, print
``image_pins`` on the same cases and paste the pair into the test's
constant.
"""

import random
from typing import Optional

import pytest
from cut_path import cut_solve
from outcome_digest import digest

from slsolve import solver
from slsolve.automata import (
    EPSILON,
    Alphabet,
    Nfa,
    nfa_determinize,
    nfa_enumerate,
    nfa_intersect,
    nfa_reduce,
)
from slsolve.regex import regex_parse
from slsolve.solver import solve
from slsolve.transducer import (
    Transducer,
    identity_transducer,
    post_image,
    pre_image,
    pre_image_within,
)
from slsolve.websec import (
    WEB_ALPHABET,
    benchmark_names,
    escape_string_transducer,
    html_escape_transducer,
    innerhtml_decode_transducer,
    load_benchmark,
)

AB = Alphabet.of("ab")


def words(nfa: Nfa, probe: Optional[Nfa] = None) -> set[str]:
    """Accepted words up to length 5, optionally only those in ``probe``."""
    if probe is not None:
        nfa = nfa_intersect(nfa, probe)
    return set(nfa_enumerate(nfa, 5))


def images(t: Transducer, a: Nfa, within: Nfa) -> list[Nfa]:
    return [pre_image(t, a), post_image(t, a), pre_image_within(t, a, within)]


def image_pins(cases, probe: Optional[Nfa] = None) -> tuple[str, str]:
    """Digests of the images' words (semantic) and state counts (shape)."""
    out = [image for case in cases for image in images(*case)]
    return (
        digest([words(image, probe) for image in out]),
        digest([image.n_states for image in out]),
    )


# ---------------------------------------------------------------------------
# Pinned images


def random_word_transducer(rng: random.Random, alphabet: Alphabet) -> Transducer:
    """A small random machine mixing word-labelled, copy and silent rules."""
    letters = alphabet.symbols

    def word(max_len: int) -> str:
        return "".join(rng.choice(letters) for _ in range(rng.randint(0, max_len)))

    n = rng.randint(1, 3)
    rules = []
    for _ in range(rng.randint(n, 2 * n + 3)):
        q, r = rng.randrange(n), rng.randrange(n)
        kind = rng.random()
        if kind < 0.35:
            c = rng.choice(letters)
            rules.append((q, c, word(2) + c, r))  # copy rule, maybe prefixed
        elif kind < 0.55:
            rules.append((q, word(2), word(2), r))  # word-labelled, maybe empty
        elif kind < 0.65:
            rules.append((q, EPSILON, word(2), r))  # output only
        else:
            rules.append((q, rng.choice(letters), word(3), r))
    finals = frozenset(q for q in range(n) if rng.random() < 0.6)
    return Transducer(alphabet, n, tuple(set(rules)), 0, finals)


#: Words and state counts of the random cases' images.
RANDOM_IMAGES = ("47e2c9cc5155c4d9", "2a4ed8f4975d9456")


def test_random_transducers_match_the_reference_product():
    rng = random.Random(31)
    targets = [
        regex_parse(p, AB) for p in ("ab", "", "a*b", "(ab|b)*", "(a|b)*bb(a|b)*")
    ]
    withins = [regex_parse(p, AB) for p in ("(a|b)*", "a*ba*", "(ab)*|b")]
    cases = []
    for _ in range(60):
        t = random_word_transducer(rng, AB)
        cases += [(t, a, rng.choice(withins)) for a in targets]
    words_pin, sizes_pin = image_pins(cases)
    assert words_pin == RANDOM_IMAGES[0]
    assert sizes_pin == RANDOM_IMAGES[1]


WEB_TARGETS = ('[^"]*"[^"]*', "a&quot;b?", "(\\\\'|\\\\\")*", "&[^;]*;", "a*")
#: Bounded enumeration over 44 letters is out of reach, so web images are
#: compared on the words over the letters the sanitizers act on.
WEB_PROBE = regex_parse("[a&#3;\"'\\\\]*", WEB_ALPHABET)


#: Words and state counts of each sanitizer's images.
SANITIZER_IMAGES = {
    "identity_transducer": ("f2f3b4165ee9bba2", "77742cb4cbed70ff"),
    "escape_string_transducer": ("02a4897fcb6515fb", "92b9675092491174"),
    "html_escape_transducer": ("fa3bb2bc9fbaed5b", "2b1871ab7be7b0b4"),
    "innerhtml_decode_transducer": ("52e9533f3e171a74", "dbfbee31b68e5b6b"),
}


@pytest.mark.parametrize(
    "machine",
    [
        identity_transducer,
        escape_string_transducer,
        html_escape_transducer,
        innerhtml_decode_transducer,
    ],
)
def test_sanitizers_match_the_reference_product(machine):
    t = machine(WEB_ALPHABET)
    within = regex_parse("[^<]*", WEB_ALPHABET)
    cases = [(t, regex_parse(p, WEB_ALPHABET), within) for p in WEB_TARGETS]
    words_pin, sizes_pin = image_pins(cases, WEB_PROBE)
    assert words_pin == SANITIZER_IMAGES[machine.__name__][0]
    assert sizes_pin == SANITIZER_IMAGES[machine.__name__][1]


# ---------------------------------------------------------------------------
# Sizes


def test_identity_pre_image_keeps_a_deterministic_target_size():
    a = nfa_reduce(nfa_determinize(regex_parse('[^"]*"[^"]*', WEB_ALPHABET)))
    assert a.n_states == 2
    assert pre_image(identity_transducer(WEB_ALPHABET), a).n_states == a.n_states


def test_sanitizer_pre_images_stay_small(monkeypatch):
    """Propagation's pre-images, on the cut path of every benchmark."""
    peak = 0
    inner = solver.pre_image_within

    def measured(t, a, within):
        nonlocal peak
        out = inner(t, a, within)
        peak = max(peak, out.n_states)
        return out

    monkeypatch.setattr(solver, "pre_image_within", measured)
    for name in benchmark_names():
        cut_solve(load_benchmark(name).problem)
    assert 0 < peak <= 100


# ---------------------------------------------------------------------------
# The bundled sanitizer answers

#: Verdict, model and ``stats`` of each benchmark.  ``ex_iframe`` is
#: sharing-free, so ``solve`` decides it by forward ranges: it builds no
#: forest and places no cut.
GOLDEN: dict = {
    "ex_cacm": (
        "sat",
        {
            "cat": "'); ",
            "ci": "<button onclick=\"createCatList(''); ')\">'); </button>",
            "x": "&#39;); ",
            "y": "&#39;); ",
            "z": "<button onclick=\"createCatList('&#39;); ')\">&#39;); </button>",
        },
        {
            "cut-placements": 2,
            "feasible-forests": 1,
            "forests": 1,
            "membership-branches": 1,
        },
    ),
    "ex_corrected": (
        "unsat",
        None,
        {
            "cut-placements": 0,
            "feasible-forests": 0,
            "forests": 0,
            "membership-branches": 1,
        },
    ),
    "ex_iframe": (
        "sat",
        {
            "code": "<iframe id=\"\" a=\"\"",
            "code1": "<iframe id=\"\" a=\"\" name=\"blah\"",
            "code2": "<iframe id=\"\" a=\"\" name=\"blah\"src=\"http://www.w3schools.com\"></iframe>",
            "name": "blah",
            "newz": "&#34; a=&#34;",
            "t": "\" a=\"",
            "xi": "<iframe id=\"\" a=\"\" name=\"blah\"src=\"http://www.w3schools.com\"></iframe>",
            "z": "&#34; a=&#34;",
        },
        {
            "cut-placements": 0,
            "feasible-forests": 0,
            "forests": 0,
            "membership-branches": 1,
            "ranges": 4,
        },
    ),
    "ex_mxss1": (
        "sat",
        {
            "cat": "&#39;); ",
            "ci": "<button onclick=\"createCatList(''); ')\">'); </button>",
            "t": "'); ",
            "x": "&#39;); ",
            "y": "&#39;); ",
            "z": "<button onclick=\"createCatList('&#39;); ')\">&#39;); </button>",
        },
        {
            "cut-placements": 2,
            "feasible-forests": 1,
            "forests": 1,
            "membership-branches": 1,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sanitizer_answers_are_pinned(name):
    stats: dict = {}
    verdict = solve(load_benchmark(name).problem, stats=stats)
    status, model, expected_stats = GOLDEN[name]
    assert verdict.status == status
    assert verdict.model == model
    assert verdict.int_bound is None
    assert stats == expected_stats
