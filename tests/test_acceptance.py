"""Acceptance gate: every headline behavior, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion.  Each test is self-contained and asserts its own time
budget, so this module doubles as the performance contract.
"""

import functools
import itertools
import random
import time
from dataclasses import replace

from slsolve.automata import (
    Alphabet,
    nfa_complement,
    nfa_enumerate,
    nfa_from_word,
    nfa_intersect,
    nfa_membership,
    nfa_nonempty_shortest,
    nfa_union,
    nfa_universal,
)
from slsolve.constraints import (
    And,
    ConcatEq,
    Leaf,
    Lit,
    Problem,
    RegAtom,
    TransducerEq,
    Var,
    evaluate,
    tree_leaves,
)
from slsolve.oracle import OracleConfig, brute_force_solve
from slsolve.regex import regex_parse
from slsolve.solver import solve
from slsolve.straightline import (
    CyclicDefinition,
    check_straightline,
    dimension,
)
from slsolve.transducer import (
    Transducer,
    apply_function,
    erase_transducer,
    identity_transducer,
    post_image,
    pre_image,
    transducer_membership,
    transducer_normalize,
)
from slsolve.websec import (
    WEB_ALPHABET,
    benchmark_names,
    html_escape_transducer,
    innerhtml_decode_transducer,
    escape_string_transducer,
    load_benchmark,
)

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def words_up_to(alphabet: Alphabet, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet.symbols, repeat=n))
    return out


def reg(var: str, pattern: str, alphabet: Alphabet = AB) -> Leaf:
    return Leaf(RegAtom(var, regex_parse(pattern, alphabet), pattern))


def test_acceptance_mismatched_square_refuted_under_a_second():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Var("y"))),),
        regular=And((reg("y", "a*|b*"), reg("x", "ab"))),
    )
    start = time.monotonic()
    verdict = solve(problem)
    elapsed = time.monotonic() - start
    assert verdict.status == "unsat"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_sanitizer_benchmarks_decide_and_replay():
    for name in benchmark_names():
        case = load_benchmark(name)
        start = time.monotonic()
        verdict = solve(case.problem)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        assert verdict.status == case.expected, (name, verdict.status)
        if not verdict.is_sat:
            continue
        model = verdict.model
        assert evaluate(case.problem, model)
        # Replay the pipeline: recompute every derived value from the
        # model's sources through the actual transducers and templates.
        graph = check_straightline(case.problem)
        value = {v: model[v] for v in graph.sources}
        for var in graph.order:
            rel = graph.defining.get(var)
            if rel is None:
                continue
            if isinstance(rel, TransducerEq):
                image = apply_function(rel.transducer, value[rel.arg])
                words = nfa_enumerate(image, 8 * max(len(value[rel.arg]), 1))
                assert len(words) == 1, (name, var)
                value[var] = words[0]
            else:
                value[var] = "".join(
                    item.text if isinstance(item, Lit) else value[item.name]
                    for item in rel.items
                )
        assert value == model, f"{name}: replay diverged from the model"
        sink_nfa = next(
            leaf.atom.nfa
            for leaf in tree_leaves(case.problem.regular)
            if isinstance(leaf.atom, RegAtom) and leaf.atom.var == case.sink_var
        )
        assert nfa_membership(sink_nfa, value[case.sink_var]), name


def test_acceptance_benchmarks_have_dimension_two():
    for name in benchmark_names():
        assert dimension(load_benchmark(name).problem) == 2, name


def test_acceptance_string_differential_five_hundred_seeds(string_problems):
    config = OracleConfig(max_len=12)
    start = time.monotonic()
    for seed, problem in enumerate(string_problems):
        verdict = solve(problem)
        witness = brute_force_solve(problem, config)
        if verdict.is_sat:
            assert evaluate(problem, verdict.model), f"seed {seed}"
            assert witness is not None, f"seed {seed}: solver sat, oracle exhausted"
        else:
            assert verdict.status == "unsat", f"seed {seed}: {verdict.status}"
            assert witness is None, f"seed {seed}: oracle found {witness}"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_acceptance_extension_differential_three_hundred_seeds(extension_problems):
    config = OracleConfig(max_len=8, max_int=8)
    start = time.monotonic()
    for seed, problem in enumerate(extension_problems):
        verdict = solve(problem, int_bound=8)
        witness = brute_force_solve(problem, config)
        if verdict.is_sat:
            assert evaluate(problem, verdict.model), f"seed {seed}"
        elif verdict.status in ("unsat", "unsat-within-bounds"):
            # A bounded refutation must cover the oracle's entire
            # search space: the oracle may never find what we refuted.
            assert witness is None, (
                f"seed {seed}: solver {verdict.status}, oracle found {witness}"
            )
        if witness is not None:
            assert verdict.is_sat, f"seed {seed}: oracle sat, solver {verdict.status}"
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"took {elapsed:.0f}s"


def test_acceptance_straightline_gate_and_scaling():
    copy = identity_transducer(AB)
    cyclic = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(
            ConcatEq("x", (Var("y"),)),
            TransducerEq("y", "copy", copy, "x"),
        ),
    )
    try:
        check_straightline(cyclic)
    except CyclicDefinition as exc:
        assert exc.cycle == ("x", "y", "x")
    else:
        raise AssertionError("cycle not detected")

    shared = Problem(
        alphabet=AB,
        str_vars=("x", "zp", "y", "z"),
        relations=(
            TransducerEq("y", "copy", copy, "x"),
            ConcatEq("z", (Var("y"), Var("y"), Var("zp"))),
        ),
    )
    assert check_straightline(shared).order == ("x", "zp", "y", "z")

    names = tuple(f"x{i}" for i in range(100_001))
    relations = tuple(
        ConcatEq(names[i + 1], (Var(names[i]), Lit("a"))) for i in range(100_000)
    )
    chain = Problem(alphabet=AB, str_vars=names, relations=relations)
    start = time.monotonic()
    check_straightline(chain)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_acceptance_automata_and_transducer_invariants():
    rng = random.Random(20240920)

    def random_nfa(alphabet: Alphabet):
        from slsolve.automata import EPSILON, Nfa

        n = rng.randint(1, 4)
        labels = alphabet.symbols + (EPSILON,)
        transitions = []
        for _ in range(rng.randint(n, 3 * n)):
            transitions.append(
                (rng.randrange(n), rng.choice(labels), rng.randrange(n))
            )
        finals = frozenset(q for q in range(n) if rng.random() < 0.4)
        return Nfa(alphabet, n, tuple(set(transitions)), 0, finals)

    gallery = [
        regex_parse("a*", ABC),
        regex_parse("(a|bc)*", ABC),
        nfa_from_word("ab", ABC),
        nfa_universal(ABC),
    ] + [random_nfa(ABC) for _ in range(4)]
    words6 = words_up_to(ABC, 6)

    # Boolean operations agree with set algebra, exhaustively to length 6.
    for a in gallery:
        lang_a = {w for w in words6 if nfa_membership(a, w)}
        comp = nfa_complement(a)
        for w in words6:
            assert nfa_membership(comp, w) == (w not in lang_a)
        for b in gallery:
            lang_b = {w for w in words6 if nfa_membership(b, w)}
            inter = nfa_intersect(a, b)
            union = nfa_union(a, b)
            for w in words6:
                assert nfa_membership(inter, w) == (w in lang_a and w in lang_b)
                assert nfa_membership(union, w) == (w in lang_a or w in lang_b)

    # Runs decompose through slices: w = uv is accepted iff some state
    # splits it.
    words5 = words_up_to(ABC, 5)
    for a in gallery[:6]:
        slices = [replace(a, finals=frozenset({q})) for q in range(a.n_states)]
        tails = [
            functools.reduce(
                nfa_union,
                (
                    replace(a, initial=q, finals=frozenset({f}))
                    for f in sorted(a.finals)
                ),
            ) if a.finals else None
            for q in range(a.n_states)
        ]
        for w in words5:
            direct = nfa_membership(a, w)
            split = any(
                tails[q] is not None
                and nfa_membership(slices[q], w[:i])
                and nfa_membership(tails[q], w[i:])
                for q in range(a.n_states)
                for i in range(len(w) + 1)
            )
            assert split == direct, (w,)

    # Transducer pairs decompose through transducer slices, and
    # normalization preserves the relation, exhaustively to length 4.
    def rand_transducer():
        n = rng.randint(1, 3)
        rules = []
        for _ in range(rng.randint(n, 2 * n + 2)):
            ins = rng.choice(AB.symbols + ("",))
            outs = "".join(
                rng.choice(AB.symbols) for _ in range(rng.randint(0, 2))
            )
            if not ins and not outs:
                outs = rng.choice(AB.symbols)
            rules.append((rng.randrange(n), ins, outs, rng.randrange(n)))
        finals = frozenset(q for q in range(n) if rng.random() < 0.5)
        return Transducer(AB, n, tuple(set(rules)), 0, finals)

    words4 = words_up_to(AB, 4)
    for _ in range(4):
        t = rand_transducer()
        norm = transducer_normalize(t)
        pairs = {
            (x, y)
            for x in words4
            for y in words4
            if transducer_membership(t, x, y)
        }
        for x in words4:
            for y in words4:
                assert transducer_membership(norm, x, y) == ((x, y) in pairs)
        halves = [
            (
                replace(norm, finals=frozenset({p})),
                [
                    replace(norm, initial=p, finals=frozenset({f}))
                    for f in sorted(norm.finals)
                ],
            )
            for p in range(norm.n_states)
        ]
        for x in words4:
            for y in words4:
                split = any(
                    transducer_membership(first, x[:i], y[:j])
                    and any(
                        transducer_membership(second, x[i:], y[j:])
                        for second in seconds
                    )
                    for first, seconds in halves
                    for i in range(len(x) + 1)
                    for j in range(len(y) + 1)
                )
                assert split == ((x, y) in pairs), (x, y)

    # Images against brute force, to length 5 on finite sources.
    words5ab = words_up_to(AB, 5)
    targets = [
        nfa_from_word("ab", AB),
        nfa_union(nfa_from_word("a", AB), nfa_from_word("bb", AB)),
    ]
    for _ in range(4):
        t = rand_transducer()
        for a in targets:
            outputs = nfa_enumerate(a, 5)
            pre = pre_image(t, a)
            for x in words5ab:
                expected = any(transducer_membership(t, x, y) for y in outputs)
                assert nfa_membership(pre, x) == expected
    erase = erase_transducer(AB, "a")
    for a in targets:
        inputs = nfa_enumerate(a, 5)
        post = post_image(erase, a)
        for y in words5ab:
            expected = any(transducer_membership(erase, x, y) for x in inputs)
            assert nfa_membership(post, y) == expected

    # Shortest witnesses are deterministic and minimal.
    for a in gallery:
        first = nfa_nonempty_shortest(a)
        assert first == nfa_nonempty_shortest(a)
        enumerated = nfa_enumerate(a, 8, limit=1)
        if enumerated:
            assert first == enumerated[0]
        members = [w for w in words6 if nfa_membership(a, w)]
        if members and first is not None:
            assert len(first) == len(members[0])


def test_acceptance_sanitizer_fixtures_are_byte_exact():
    def the_word(t, text):
        words = nfa_enumerate(apply_function(t, text), 6 * max(len(text), 1))
        assert len(words) == 1
        return words[0]

    html = html_escape_transducer(WEB_ALPHABET)
    js = escape_string_transducer(WEB_ALPHABET)
    decode = innerhtml_decode_transducer(WEB_ALPHABET)
    assert the_word(html, "Flora & Fauna") == "Flora &amp; Fauna"
    assert the_word(js, "&#39;);alert(1);//") == "&#39;);alert(1);//"
    assert the_word(decode, "&#39;);alert(1);//") == "');alert(1);//"
