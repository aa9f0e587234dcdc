"""Byte-identity of the product kernels: segments, images, filters, slices, trims.

``solver._segment_machine``, ``transducer._image``,
``solver._boundary_filter`` and ``automata.nfa_intersect`` are tuned for
speed, but their results must not move: the numbering of every state
feeds later products, and the filter's boundary pairs decide which cuts
are tried, so both reach the models the solver reports.  Rather than
keep a second copy of the old code, the outputs of the old kernels on
seeded inputs were digested once and are pinned here.  Each digest is
the first 16 hex digits of the sha256 of the outputs' canonical ``repr``
lines, in call order (``outcome_digest.canonical``: a machine as its
states, arcs, initial and sorted final states; a filter result as its
sorted pairs per boundary).  A change meant to alter these outputs
re-records the digests with the same helpers, and says so.
"""

import random

from outcome_digest import digest

from slsolve import solver
from slsolve.automata import (
    EPSILON,
    Alphabet,
    Nfa,
    nfa_eps_eliminate,
    nfa_intersect,
    nfa_multi_slice,
    nfa_trim,
    nfa_universal,
    trimmed_nfa,
)
from slsolve.regex import regex_parse
from slsolve.solver import Shape, _boundary_filter, _segment_machine, solve
from slsolve.transducer import (
    Transducer,
    post_image,
    pre_image,
    pre_image_within,
    transducer_normalize,
)
from slsolve.websec import benchmark_names, load_benchmark

ABC = Alphabet.of("abc")


def random_word(rng: random.Random, letters: str, max_len: int) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def random_normalized(rng: random.Random, alphabet: Alphabet) -> Transducer:
    """A random machine in normalized form.

    Half are drawn directly as one-sided single-letter arcs; the other
    half are word-labelled machines put through ``transducer_normalize``,
    which adds the trie and echo states the sanitizers have.
    """
    letters = alphabet.symbols
    n = rng.randint(1, 5)
    rules = []
    if rng.random() < 0.5:
        for _ in range(rng.randint(2 * n, 4 * n + 2)):
            q, r, c = rng.randrange(n), rng.randrange(n), rng.choice(letters)
            rules.append((q, c, EPSILON, r) if rng.random() < 0.6 else (q, EPSILON, c, r))
        finals = frozenset(q for q in range(n) if rng.random() < 0.5)
        return Transducer(alphabet, n, rules, 0, finals)
    for _ in range(rng.randint(n, 2 * n + 3)):
        q, r, c = rng.randrange(n), rng.randrange(n), rng.choice(letters)
        if rng.random() < 0.4:
            rules.append((q, c, random_word(rng, letters, 2) + c, r))
        else:
            rules.append((q, random_word(rng, letters, 2), random_word(rng, letters, 2), r))
    finals = frozenset(q for q in range(n) if rng.random() < 0.6)
    return transducer_normalize(Transducer(alphabet, n, rules, 0, finals))


def random_segments(seed: int, count: int) -> list[Transducer]:
    """Segments of random machines under random literals and boundaries.

    Covers the two shapes the solver builds (an inner segment ending at
    one state with no literal after it; a last segment ending in the
    finals past a literal) and arbitrary end sets with literals.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = random_normalized(rng, ABC)
        n = t.n_states
        lit_in = random_word(rng, "abc", 2)
        from_state = rng.randrange(n)
        kind = rng.random()
        if kind < 0.35:
            to_states, post_lit = frozenset({rng.randrange(n)}), ""
        elif kind < 0.7:
            to_states, post_lit = t.finals, random_word(rng, "abc", 2)
        else:
            to_states = frozenset(q for q in range(n) if rng.random() < 0.6)
            post_lit = random_word(rng, "abc", 2)
        out.append(_segment_machine(t, lit_in, from_state, to_states, post_lit))
    return out


def random_images(seed: int, count: int) -> list[Nfa]:
    """Post-, pre- and bounded pre-images of random machines and targets."""
    rng = random.Random(seed)
    targets = [
        regex_parse(p, ABC)
        for p in ("ab", "", "a*b", "(ab|c)*", "(a|b|c)*b(a|c)*", "[^c]*c[^c]*")
    ]
    withins = [regex_parse(p, ABC) for p in ("(a|b|c)*", "[^b]*b[^b]*", "(ab|c)*", "(a|b)*")]
    out = []
    for _ in range(count):
        t = random_normalized(rng, ABC)
        a = rng.choice(targets)
        out.append(post_image(t, a))
        out.append(pre_image(t, a))
        out.append(pre_image_within(t, a, rng.choice(withins)))
    return out


def random_nfa(rng: random.Random, alphabet: Alphabet) -> Nfa:
    """A small machine with epsilon arcs, repeats and unreachable states."""
    n = rng.randint(1, 6)
    arcs = [
        (rng.randrange(n), rng.choice(("",) + alphabet.symbols), rng.randrange(n))
        for _ in range(rng.randint(n, 3 * n + 2))
    ]
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Nfa(alphabet, n, arcs, rng.randrange(n), finals)


def random_filters(seed: int, count: int) -> list:
    """Boundary filters of random machines over two- and three-piece layouts.

    About a third of the results keep a pair at every boundary; the rest
    refute the application, most of them because no accepting run exists.
    """
    return [_boundary_filter(*args) for args in random_filter_args(seed, count)]


def random_filter_args(seed: int, count: int) -> list[tuple]:
    """The arguments of :func:`random_filters`, one tuple per call."""
    rng = random.Random(seed)
    images = [
        regex_parse(p, ABC)
        for p in ("(a|b|c)*", "(a|b|c)*b(a|b|c)*", "[^c]*", "(ab|c)*", "a*b*c*")
    ]
    langs = [
        regex_parse(p, ABC)
        for p in ("(a|b|c)*", "(a|b)*", "[^b]*b[^b]*", "(ab|c)*", "a(a|b|c)*")
    ]
    out = []
    for _ in range(count):
        t = random_normalized(rng, ABC)
        a_img = rng.choice(images) if rng.random() < 0.8 else random_nfa(rng, ABC)
        m = rng.choice((2, 3))
        literals = tuple(
            random_word(rng, "abc", 1) if rng.random() < 0.4 else "" for _ in range(m + 1)
        )
        shape = Shape(literals, tuple(("x", j) for j in range(m)))
        zones = [
            rng.choice(langs) if rng.random() < 0.85 else random_nfa(rng, ABC)
            for _ in range(m)
        ]
        out.append((t, a_img, shape, zones))
    return out


def random_intersections(seed: int, count: int) -> list[Nfa]:
    """Products of random pairs, each taken in both argument orders.

    Sides are random epsilon machines, regexes, or the one-state
    universal machine, over three letters or over ten (where a random
    machine's states read only a few of the letters the universal one
    reads).
    """
    rng = random.Random(seed)
    wide = Alphabet.of("abcdefghij")
    out = []
    for _ in range(count):
        alphabet = rng.choice((ABC, wide))
        sides = []
        for _ in range(2):
            roll = rng.random()
            if roll < 0.25:
                sides.append(nfa_universal(alphabet))
            elif roll < 0.45:
                sides.append(
                    regex_parse(rng.choice(("(ab|c)*", "a*b*c*", "[^b]*b[^b]*")), alphabet)
                )
            else:
                sides.append(random_nfa(rng, alphabet))
        a, b = sides
        out.append(nfa_intersect(a, b))
        out.append(nfa_intersect(b, a))
    return out


def sanitizer_filter_args(monkeypatch, name: str) -> list[tuple]:
    """The arguments of each boundary filter while solving one benchmark."""
    calls: list[tuple] = []

    def recording(*args, real=solver._boundary_filter):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_boundary_filter", recording)
        solve(load_benchmark(name).problem)
    return calls


def filter_searches(monkeypatch, calls: list[tuple]) -> list:
    """Per filter call, its product search as ``(states found, cap)``.

    The states found are None when the search stopped at its cap; the
    whole entry is None when the filter decided without a search.
    """
    searches: list = []

    def counting(start, successors, cap=None, real=solver.explore):
        result = real(start, successors, cap)
        searches[-1] = (None if result is None else len(result[0]), cap)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(solver, "explore", counting)
        for args in calls:
            searches.append(None)
            _boundary_filter(*args)
    return searches


def sanitizer_calls(monkeypatch, name: str, *funcs: str) -> list[list]:
    """The results of each named ``solver`` function while solving one benchmark."""
    calls = []
    for func in funcs:
        results: list = []

        def recording(*args, real=getattr(solver, func), results=results):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(solver, func, recording)
        calls.append(results)
    solve(load_benchmark(name).problem)
    monkeypatch.undo()
    return calls


#: Digests of the outputs of the construction the kernels replaced.
RANDOM_SEGMENTS = "02cfc61c6a8dd96e"
RANDOM_IMAGES = "4b9d19ad15a1cab4"
SANITIZER = {
    "ex_cacm": (4, "b5bdd0ac75c96b13", 4, "7097004236c254a5"),
    "ex_corrected": (0, "e3b0c44298fc1c14", 0, "e3b0c44298fc1c14"),
    "ex_iframe": (4, "91a6a1fa19a2e6a1", 4, "dde74e610670c069"),
    "ex_mxss1": (5, "95c08d9321692178", 5, "577d2ebd0ac666ff"),
}

#: Digests of the boundary filter's results before it skipped dead pairs.
RANDOM_FILTERS = "112477bfc87530c9"
SANITIZER_FILTERS = {
    "ex_cacm": (1, "1965a109f7465dce"),
    "ex_corrected": (1, "cf1cbb66a638b486"),
    "ex_iframe": (1, "58fa299594280d90"),
    "ex_mxss1": (1, "1965a109f7465dce"),
}

#: Product states each boundary filter explored before it walked one layout.
RANDOM_FILTER_STATES = "b5ac53c4921dda42"
SANITIZER_FILTER_STATES = {
    "ex_cacm": 1008,
    "ex_corrected": 383,
    "ex_iframe": 3591,
    "ex_mxss1": 1329,
}

#: Digest of the products before ``nfa_intersect`` walked the smaller table.
RANDOM_INTERSECTIONS = "c02c3b83b59e53c4"


def test_random_segments_are_pinned():
    assert digest(random_segments(11, 800)) == RANDOM_SEGMENTS


def test_random_images_are_pinned():
    assert digest(random_images(12, 300)) == RANDOM_IMAGES


def test_sanitizer_segments_and_pre_images_are_pinned(monkeypatch):
    for name in benchmark_names():
        segments, images = sanitizer_calls(
            monkeypatch, name, "_segment_machine", "pre_image_within"
        )
        got = (len(segments), digest(segments), len(images), digest(images))
        assert got == SANITIZER[name], name


def test_random_filters_are_pinned():
    assert digest(random_filters(13, 500)) == RANDOM_FILTERS


def test_sanitizer_filters_are_pinned(monkeypatch):
    for name in benchmark_names():
        (results,) = sanitizer_calls(monkeypatch, name, "_boundary_filter")
        got = (len(results), digest(results))
        assert got == SANITIZER_FILTERS[name], name


def test_random_filter_product_sizes_are_pinned(monkeypatch):
    searches = filter_searches(monkeypatch, random_filter_args(13, 500))
    states = [None if found is None else found[0] for found in searches]
    assert digest(states) == RANDOM_FILTER_STATES


def test_filter_state_cap_is_exact(monkeypatch):
    """The filter gives up one state below what its search needs, not at it.

    The filter hands ``explore`` the cap left after its live pairs, so a
    search of ``n`` states under cap ``c`` needs a state cap of
    ``n + _FILTER_STATE_CAP - c``.  One below that, the search itself
    stops (not the live-pair check), and the filter returns None.
    """
    for name in benchmark_names():
        (args,) = sanitizer_filter_args(monkeypatch, name)
        ((states, cap),) = filter_searches(monkeypatch, [args])
        assert states == SANITIZER_FILTER_STATES[name], name
        need = states + solver._FILTER_STATE_CAP - cap
        monkeypatch.setattr(solver, "_FILTER_STATE_CAP", need - 1)
        assert filter_searches(monkeypatch, [args]) == [(None, states - 1)], name
        assert _boundary_filter(*args) is None
        monkeypatch.setattr(solver, "_FILTER_STATE_CAP", need)
        pairs = _boundary_filter(*args)
        monkeypatch.undo()
        assert digest([pairs]) == SANITIZER_FILTERS[name][1], name


def test_random_intersections_are_pinned():
    assert digest(random_intersections(14, 600)) == RANDOM_INTERSECTIONS


def test_trimmed_nfa_is_nfa_trim_of_the_raw_machine():
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(1, 8)
        arcs = [
            (rng.randrange(n), rng.choice(("", "a", "b", "c")), rng.randrange(n))
            for _ in range(rng.randint(0, 3 * n))
        ]
        arcs += rng.sample(arcs, min(len(arcs), rng.randint(0, 3)))  # repeats
        initial = rng.randrange(n)
        finals = frozenset(q for q in range(n) if rng.random() < 0.3)
        expected = nfa_trim(Nfa(ABC, n, arcs, initial, finals))
        assert trimmed_nfa(ABC, n, arcs, initial, finals) == expected


def test_nfa_trim_returns_a_trimmed_machine_itself():
    rng = random.Random(6)
    kept = 0
    for _ in range(600):
        nfa = random_nfa(rng, ABC)
        trimmed = nfa_trim(nfa)
        assert trimmed == trimmed_nfa(
            ABC, nfa.n_states, nfa.transitions, nfa.initial, nfa.finals
        )
        assert nfa_trim(trimmed) is trimmed
        kept += trimmed is nfa
    assert kept  # some random machines are already trimmed


def test_multi_slice_is_the_trimmed_epsilon_slice():
    """The one-construction slice equals the three-step one it replaced.

    That one added a fresh initial state with an epsilon arc to every
    source, then eliminated epsilons and trimmed.
    """
    rng = random.Random(7)
    seen = {"no sources": 0, "no targets": 0, "overlap": 0}
    for _ in range(800):
        nfa = nfa_eps_eliminate(random_nfa(rng, ABC))
        states = range(nfa.n_states)
        sources = [q for q in states if rng.random() < 0.35]
        targets = [q for q in states if rng.random() < 0.35]
        seen["no sources"] += not sources
        seen["no targets"] += not targets
        seen["overlap"] += bool(set(sources) & set(targets))
        fresh = nfa.n_states
        arcs = nfa.transitions + tuple((fresh, EPSILON, q) for q in sources)
        old = Nfa(ABC, fresh + 1, arcs, fresh, frozenset(targets))
        assert nfa_multi_slice(nfa, sources, targets) == nfa_trim(nfa_eps_eliminate(old))
    assert all(seen.values()), seen
