"""The closure-keyed transducer image product.

``transducer._image`` names each product state by the part of its
silent closure that can still emit or accept, plus the bounding state.
A copy of the construction it replaced — one product state per raw
(transducer, bound, bounding) triple — is kept here as the reference:
both must recognise the same languages.  Sizes are checked by state
counts, not wall clocks, and the bundled sanitizer answers are pinned.
"""

import random
from collections import deque
from typing import Optional

import pytest

from slsolve import solver
from slsolve.automata import (
    EPSILON,
    Alphabet,
    Nfa,
    nfa_determinize,
    nfa_eps_eliminate,
    nfa_enumerate,
    nfa_intersect,
    nfa_reduce,
    nfa_trim,
)
from slsolve.regex import regex_parse
from slsolve.solver import solve
from slsolve.transducer import (
    Transducer,
    identity_transducer,
    post_image,
    pre_image,
    pre_image_within,
    transducer_normalize,
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

# ---------------------------------------------------------------------------
# The reference: one product state per raw triple


def reference_image(
    t: Transducer, a: Nfa, forward: bool, within: Optional[Nfa] = None
) -> Nfa:
    """The image product keyed by (transducer, bound, bounding) state."""
    t = t if t.is_normalized else transducer_normalize(t)
    a = nfa_eps_eliminate(a)
    w = nfa_eps_eliminate(within) if within is not None else None
    t_arcs: list[list[tuple[str, str, int]]] = [[] for _ in range(t.n_states)]
    for q, ins, outs, r in t.transitions:
        t_arcs[q].append((ins, outs, r))
    a_by_sym = a.arcs_by_symbol
    closures: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def closure_of(ts: int, as_: int) -> tuple[tuple[int, int], ...]:
        got = closures.get((ts, as_))
        if got is not None:
            return got
        seen = {(ts, as_)}
        stack = [(ts, as_)]
        while stack:
            q, s = stack.pop()
            for ins, outs, tr in t_arcs[q]:
                bound, free = (ins, outs) if forward else (outs, ins)
                if free != EPSILON:
                    continue
                if bound == EPSILON:
                    targets = ((tr, s),)
                else:
                    targets = tuple(
                        (tr, s2) for s2 in a_by_sym[s].get(bound, ())
                    )
                for nxt in targets:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        got = tuple(sorted(seen))
        closures[(ts, as_)] = got
        return got

    start = (t.initial, a.initial, w.initial if w is not None else -1)
    ids = {start: 0}
    order = [start]
    queue = deque([start])
    transitions: list[tuple[int, str, int]] = []
    finals = set()
    while queue:
        state = queue.popleft()
        ts, as_, ws = state
        sid = ids[state]
        cl = closure_of(ts, as_)
        if any(q in t.finals and s in a.finals for q, s in cl):
            if w is None or ws in w.finals:
                finals.add(sid)
        for q, s in cl:
            for ins, outs, tr in t_arcs[q]:
                bound, free = (ins, outs) if forward else (outs, ins)
                if free == EPSILON:
                    continue
                if w is None:
                    w_targets: tuple[int, ...] = (-1,)
                else:
                    w_targets = w.arcs_by_symbol[ws].get(free, ())
                    if not w_targets:
                        continue
                if bound == EPSILON:
                    ta_targets = ((tr, s),)
                else:
                    ta_targets = tuple(
                        (tr, s2) for s2 in a_by_sym[s].get(bound, ())
                    )
                for pair in ta_targets:
                    for wt in w_targets:
                        nxt = (pair[0], pair[1], wt)
                        nid = ids.get(nxt)
                        if nid is None:
                            nid = ids[nxt] = len(order)
                            order.append(nxt)
                            queue.append(nxt)
                        transitions.append((sid, free, nid))
    product = Nfa(
        t.alphabet, len(order), tuple(set(transitions)), 0, frozenset(finals)
    )
    return nfa_trim(product)


def words(nfa: Nfa, probe: Optional[Nfa] = None) -> set[str]:
    """Accepted words up to length 5, optionally only those in ``probe``."""
    if probe is not None:
        nfa = nfa_intersect(nfa, probe)
    return set(nfa_enumerate(nfa, 5))


def assert_same_images(
    t: Transducer, a: Nfa, within: Nfa, probe: Optional[Nfa] = None
) -> None:
    cases = (
        (pre_image(t, a), reference_image(t, a, forward=False)),
        (post_image(t, a), reference_image(t, a, forward=True)),
        (
            pre_image_within(t, a, within),
            reference_image(t, a, forward=False, within=within),
        ),
    )
    for new, ref in cases:
        assert new.n_states <= ref.n_states
        assert words(new, probe) == words(ref, probe)


# ---------------------------------------------------------------------------
# Language equality against the reference


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


def test_random_transducers_match_the_reference_product():
    rng = random.Random(31)
    targets = [
        regex_parse(p, AB) for p in ("ab", "", "a*b", "(ab|b)*", "(a|b)*bb(a|b)*")
    ]
    withins = [regex_parse(p, AB) for p in ("(a|b)*", "a*ba*", "(ab)*|b")]
    for _ in range(60):
        t = random_word_transducer(rng, AB)
        for a in targets:
            assert_same_images(t, a, rng.choice(withins))


WEB_TARGETS = ('[^"]*"[^"]*', "a&quot;b?", "(\\\\'|\\\\\")*", "&[^;]*;", "a*")
#: Bounded enumeration over 44 letters is out of reach, so web images are
#: compared on the words over the letters the sanitizers act on.
WEB_PROBE = regex_parse("[a&#3;\"'\\\\]*", WEB_ALPHABET)


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
    for pattern in WEB_TARGETS:
        a = regex_parse(pattern, WEB_ALPHABET)
        assert_same_images(t, a, within, WEB_PROBE)


# ---------------------------------------------------------------------------
# Sizes


def test_identity_pre_image_keeps_a_deterministic_target_size():
    a = nfa_reduce(nfa_determinize(regex_parse('[^"]*"[^"]*', WEB_ALPHABET)))
    assert a.n_states == 2
    assert pre_image(identity_transducer(WEB_ALPHABET), a).n_states == a.n_states


def test_sanitizer_pre_images_stay_small(monkeypatch):
    peak = 0
    inner = solver.pre_image_within

    def measured(t, a, within):
        nonlocal peak
        out = inner(t, a, within)
        peak = max(peak, out.n_states)
        return out

    monkeypatch.setattr(solver, "pre_image_within", measured)
    for name in benchmark_names():
        solve(load_benchmark(name).problem)
    assert 0 < peak <= 100


# ---------------------------------------------------------------------------
# The bundled sanitizer answers

#: Verdict, model and ``stats`` of each benchmark.
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
            "cut-placements": 2,
            "feasible-forests": 1,
            "forests": 1,
            "membership-branches": 1,
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
