"""The bounded-exhaustive reference solver and the seeded instance mill.

The oracle's contract: decide by ``evaluate`` alone, enumerate in a
fixed shortest-then-lex order, and return the first in-bounds model —
so results are deterministic and stable as length bounds grow.  The
generator's contract: same seed, same instance; every instance passes
the straight-line gate and stays cheap to brute-force.
"""

import hashlib
import random

import pytest

from slsolve import oracle
from slsolve.automata import (
    EPSILON,
    Alphabet,
    Nfa,
    nfa_enumerate,
    nfa_none,
    nfa_universal,
)
from slsolve.constraints import (
    And,
    ConcatEq,
    IntTerm,
    Leaf,
    LenTerm,
    LinearAtom,
    Lit,
    Not,
    Problem,
    RegAtom,
    TransducerEq,
    Var,
    evaluate,
    problem_wellformed,
)
from slsolve.oracle import (
    OracleConfig,
    _count_words,
    _feasible,
    _gen_once,
    brute_force_solve,
    gen_random_problem,
    source_candidates,
)
from slsolve.regex import regex_parse
from slsolve.solver import (
    _checked_fold,
    _lower_bound,
    max_model_bound,
    model_bound_exceeds,
    split_concat,
)
from slsolve.straightline import check_straightline
from slsolve.transducer import erase_transducer

AB = Alphabet.of("ab")


def reg(var: str, pattern: str) -> Leaf:
    return Leaf(RegAtom(var, regex_parse(pattern, AB), pattern))


def test_source_candidates_are_shortest_then_lex():
    problem = Problem(alphabet=AB, str_vars=("x",), regular=reg("x", "(bb|b|a)"))
    assert source_candidates(problem, "x", 4) == ["a", "b", "bb"]


def test_source_candidates_respect_length_bound():
    problem = Problem(alphabet=AB, str_vars=("x",), regular=reg("x", "aaaaa"))
    assert source_candidates(problem, "x", 4) == []
    assert source_candidates(problem, "x", 5) == ["aaaaa"]


def test_word_counts_match_enumeration():
    rng = random.Random(1511)
    abc = Alphabet.of("abc")
    nfas = [nfa_none(AB), nfa_universal(AB), nfa_universal(abc)]
    for _ in range(60):
        alphabet = rng.choice([AB, abc])
        labels = [*alphabet.symbols, EPSILON]
        n = rng.randint(1, 5)
        arcs = {
            (rng.randrange(n), rng.choice(labels), rng.randrange(n))
            for _ in range(rng.randint(0, 3 * n))
        }
        finals = frozenset(q for q in range(n) if rng.random() < 0.4)
        nfas.append(Nfa(alphabet, n, tuple(arcs), 0, finals))
    assert any(EPSILON in {sym for _q, sym, _r in nfa.transitions} for nfa in nfas)
    for nfa in nfas:
        for max_len in (0, 1, 4, 7):
            assert _count_words(nfa, max_len) == len(nfa_enumerate(nfa, max_len))


def test_oracle_returns_the_minimal_model():
    problem = Problem(alphabet=AB, str_vars=("x",), regular=reg("x", "(bb|b|a)"))
    assert brute_force_solve(problem) == {"x": "a"}
    negated = Problem(
        alphabet=AB,
        str_vars=("x",),
        regular=And((reg("x", "(bb|b|a)"), Not(reg("x", "a")))),
    )
    assert brute_force_solve(negated) == {"x": "b"}


def test_oracle_solves_through_concatenation():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Var("y"))),),
        regular=And((reg("y", "(a|b)*"), reg("x", "abab"))),
    )
    model = brute_force_solve(problem)
    assert model == {"y": "ab", "x": "abab"}
    assert evaluate(problem, model)


def test_oracle_solves_through_transducer_image():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(TransducerEq("y", "dropA", erase_transducer(AB, "a"), "x"),),
        regular=And((reg("x", "(a|b)*"), reg("y", "bb"))),
    )
    model = brute_force_solve(problem)
    assert model == {"x": "bb", "y": "bb"}


def test_oracle_reports_none_when_out_of_bounds():
    problem = Problem(alphabet=AB, str_vars=("x",), regular=reg("x", "aaaaa"))
    assert brute_force_solve(problem, OracleConfig(max_len=4)) is None
    assert brute_force_solve(problem, OracleConfig(max_len=5)) == {"x": "aaaaa"}


@pytest.mark.parametrize(
    "bounds", [{"max_len": -1}, {"max_int": -1}], ids=["max-len", "max-int"]
)
def test_negative_oracle_bounds_are_refused(bounds):
    with pytest.raises(ValueError, match="must be at least 0"):
        OracleConfig(**bounds)
    assert OracleConfig(max_len=0, max_int=0) == OracleConfig(0, 0)


def test_oracle_reports_none_on_truly_unsat_input():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        regular=And((reg("x", "a"), reg("x", "b"))),
    )
    assert brute_force_solve(problem) is None


def test_oracle_assigns_integers_from_zero_upward():
    low = Problem(
        alphabet=AB,
        str_vars=(),
        int_vars=("u",),
        integers=Leaf(LinearAtom(((1, IntTerm("u")),), 5)),
    )
    assert brute_force_solve(low) == {"u": 0}
    # -u <= -2, i.e. u >= 2: the first admissible value is taken.
    high = Problem(
        alphabet=AB,
        str_vars=(),
        int_vars=("u",),
        integers=Leaf(LinearAtom(((-1, IntTerm("u")),), -2)),
    )
    assert brute_force_solve(high) == {"u": 2}
    assert brute_force_solve(high, OracleConfig(max_int=1)) is None


def test_oracle_couples_string_and_integer_bounds():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        int_vars=("u",),
        regular=reg("x", "a*"),
        # u - len(x) <= 0 and -u <= -3: needs len(x) >= u >= 3.
        integers=And(
            (
                Leaf(LinearAtom(((1, IntTerm("u")), (-1, LenTerm("x"))), 0)),
                Leaf(LinearAtom(((-1, IntTerm("u")),), -3)),
            )
        ),
    )
    assert brute_force_solve(problem) == {"x": "aaa", "u": 3}


def test_oracle_is_deterministic():
    problem = gen_random_problem(5)
    config = OracleConfig(max_len=6, max_int=3)
    assert brute_force_solve(problem, config) == brute_force_solve(problem, config)


def test_first_model_is_stable_as_length_bound_grows(string_problems):
    hits = 0
    for problem in string_problems[:20]:
        small = brute_force_solve(problem, OracleConfig(max_len=4, max_int=2))
        if small is None:
            continue
        hits += 1
        big = brute_force_solve(problem, OracleConfig(max_len=7, max_int=2))
        assert big == small
    assert hits > 5  # the sweep must actually exercise the property


# ---------------------------------------------------------------------------
# Seeded instances


def test_generator_is_deterministic():
    assert gen_random_problem(1) == gen_random_problem(1)
    assert gen_random_problem(2, with_extensions=True) == gen_random_problem(
        2, with_extensions=True
    )


def test_generator_varies_with_the_seed():
    assert gen_random_problem(1) != gen_random_problem(2)


def test_seeded_corpora_are_pinned(workloads, string_problems, extension_problems):
    """The fingerprint digests of both corpora stay put.

    A change to the generator or to its resampling filter moves them.
    The fingerprint is the benchmark's own (``perfbench/workloads.py``),
    loaded by path.
    """

    def digest(problems: list[Problem]) -> str:
        joined = "".join(workloads.fingerprint(p) for p in problems)
        return hashlib.sha256(joined.encode()).hexdigest()[:12]

    assert digest(string_problems) == "1c951986cefd"
    assert digest(extension_problems) == "6872488de6c7"


def generator_attempts(seed: int, with_extensions: bool) -> list[Problem]:
    """Every attempt the generator makes for a seed, the accepted one last.

    The seeding of each attempt is the one ``gen_random_problem`` uses.
    """
    attempts = []
    for attempt in range(oracle._ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + attempt * 7_919 + int(with_extensions))
        attempts.append(_gen_once(rng, with_extensions))
        if _feasible(attempts[-1], with_extensions):
            break
    return attempts


#: The number of attempts the generator makes for extension seeds 0..94
#: (the ext-walk benchmark's) and string seeds 0..99, and the first 16 hex
#: digits of the sha256 of the ``repr`` of their ``max_model_bound``
#: values, recorded before the generator priced attempts by a lower bound.
REPLAYED_ATTEMPTS = 7045
REPLAYED_BOUNDS = "003a2e7bf8a5c24b"


def test_lower_bound_is_sound_on_every_generator_attempt(
    string_problems, extension_problems
):
    """The generator's cheap filter never rejects what the exact bound keeps.

    Every attempt is replayed, the rejected ones included: its lower
    bound is at most its exact bound, ``model_bound_exceeds`` agrees
    with the exact bound at several caps, and the exact bounds are the
    ones recorded before the lower bound existed.
    """
    bounds = []
    for corpus, with_extensions, seeds in (
        (extension_problems, True, range(95)),
        (string_problems, False, range(100)),
    ):
        for seed in seeds:
            attempts = generator_attempts(seed, with_extensions)
            assert attempts[-1] == corpus[seed]
            for problem in attempts:
                exact = max_model_bound(problem)
                folded, graph = _checked_fold(problem)
                assert _lower_bound(folded, graph, split_concat(graph)) <= exact
                for cap in (0, 8, 12, 100):
                    assert model_bound_exceeds(problem, cap) == (exact > cap)
                bounds.append(exact)
    assert len(bounds) == REPLAYED_ATTEMPTS
    assert hashlib.sha256(repr(bounds).encode()).hexdigest()[:16] == REPLAYED_BOUNDS


def test_generator_gives_up_after_its_attempt_limit(monkeypatch):
    assert oracle._ATTEMPTS == 1_024
    monkeypatch.setattr(oracle, "_feasible", lambda problem, with_extensions: False)
    with pytest.raises(
        RuntimeError, match="no feasible instance for seed 3 after 1024 attempts"
    ):
        gen_random_problem(3, with_extensions=True)


@pytest.mark.parametrize(
    "seed, with_extensions, tries", [(622, False, 332), (895, True, 361)]
)
def test_seeds_that_need_over_256_attempts_generate(seed, with_extensions, tries):
    """The only seeds in 0..1,499 of either kind that need over 256 attempts."""
    problem = gen_random_problem(seed, with_extensions)
    attempts = generator_attempts(seed, with_extensions)
    assert len(attempts) == tries and attempts[-1] == problem
    assert problem_wellformed(problem) == []
    check_straightline(problem)  # must not raise
    assert problem.has_extensions == with_extensions


def test_generated_instances_are_wellformed_and_straightline(string_problems):
    for problem in string_problems[:100]:
        assert problem_wellformed(problem) == []
        check_straightline(problem)  # must not raise


def test_generated_extension_instances_use_the_extensions(extension_problems):
    for problem in extension_problems[:20]:
        assert problem.has_extensions
        assert problem.int_vars
        check_straightline(problem)


def test_oracle_models_satisfy_evaluate_on_seeded_instances(extension_problems):
    config = OracleConfig(max_len=6, max_int=4)
    solved = 0
    for problem in extension_problems[:25]:
        model = brute_force_solve(problem, config)
        if model is not None:
            solved += 1
            assert evaluate(problem, model)
    assert solved > 5
