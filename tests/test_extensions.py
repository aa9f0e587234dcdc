"""The bounded decision layer for integer, character, index-of, and
disequality constraints.

Four angles: frozen verdicts on small hand problems (including the
sharpness of plain ``unsat`` versus ``unsat-within-bounds``), the
static refutation of scenarios (one hand problem per check, each with
a near miss, and every refuted scenario of the seeded corpus walked
anyway), unit checks of the match-automaton and multi-track product
against brute force, and a seeded differential sweep against the
exhaustive oracle.
"""

import itertools
from collections import Counter
from typing import Iterator

import pytest

from slsolve import extensions
from slsolve.automata import Alphabet, explore, nfa_enumerate
from slsolve.constraints import (
    And,
    CharAtom,
    CharConst,
    CharPos,
    ConcatEq,
    CountTerm,
    Disequality,
    IndexOfAtom,
    IntTerm,
    Leaf,
    LenTerm,
    LinearAtom,
    Lit,
    Not,
    Problem,
    RegAtom,
    Var,
    evaluate,
)
from slsolve.extensions import (
    Budget,
    MultiTrackAutomaton,
    _kmp_delta,
    default_int_bound,
)
from slsolve.oracle import OracleConfig, brute_force_solve, gen_random_problem
from slsolve.parser import parse_problem
from slsolve.regex import regex_parse
from slsolve.solver import AcForest, BudgetExhausted, _checked_fold, solve
from slsolve.transducer import (
    erase_transducer,
    identity_transducer,
    transducer_membership,
)
from slsolve.websec import load_benchmark

AB = Alphabet.of("ab")


def reg(var: str, pattern: str) -> Leaf:
    return Leaf(RegAtom(var, regex_parse(pattern, AB), pattern))


def le(terms: tuple, bound: int) -> Leaf:
    return Leaf(LinearAtom(terms, bound))


# ---------------------------------------------------------------------------
# Hand problems: integer layer


def test_count_constraint_forces_the_empty_word():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        regular=reg("x", "a*"),
        integers=le(((1, CountTerm("x", "a")),), 0),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model == {"x": ""}


def test_length_window_on_a_square():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Var("y"))),),
        integers=And((le(((-1, LenTerm("x")),), -2), le(((1, LenTerm("x")),), 3))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert len(verdict.model["x"]) == 2  # the only even length in [2, 3]
    assert evaluate(problem, verdict.model)


def test_odd_length_square_is_plainly_unsat():
    """The refutation is definitive, not bound-limited: lengths are capped."""
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Var("y"))),),
        integers=And((le(((-1, LenTerm("x")),), -3), le(((1, LenTerm("x")),), 3))),
    )
    assert solve(problem).status == "unsat"


def test_unbounded_integer_demand_weakens_to_within_bounds():
    problem = Problem(
        alphabet=AB,
        str_vars=(),
        int_vars=("u",),
        integers=le(((-1, IntTerm("u")),), -9),  # u >= 9
    )
    verdict = solve(problem, int_bound=8)
    assert verdict.status == "unsat-within-bounds"
    assert verdict.int_bound == 8
    raised = solve(problem, int_bound=12)
    assert raised.is_sat
    assert raised.model == {"u": 9}


def test_default_int_bound_is_reported_on_the_verdict():
    problem = Problem(
        alphabet=AB,
        str_vars=(),
        int_vars=("u",),
        integers=le(((-1, IntTerm("u")),), -100),
    )
    assert default_int_bound(problem) == 64
    verdict = solve(problem)
    assert verdict.status == "unsat-within-bounds"
    assert verdict.int_bound == 64


# ---------------------------------------------------------------------------
# Hand problems: character layer


def test_char_constraint_picks_the_position():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        int_vars=("u",),
        regular=reg("x", "ab"),
        chars=Leaf(CharAtom(CharPos("x", "u"), CharConst("b"))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model == {"x": "ab", "u": 2}


def test_char_constraint_lands_past_a_literal_prefix():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Lit("a"), Var("y"))),),
        chars=Leaf(CharAtom(CharPos("x", 2), CharConst("b"))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model["x"] == "a" + verdict.model["y"]
    assert verdict.model["y"].startswith("b")


def test_negated_char_constraint_allows_out_of_range():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        int_vars=("u",),
        regular=reg("x", "a"),
        chars=Not(Leaf(CharAtom(CharPos("x", "u"), CharConst("a")))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert evaluate(problem, verdict.model)


def test_char_equality_between_two_variables():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        regular=And((reg("x", "ab"), reg("y", "(a|b)"))),
        chars=Leaf(CharAtom(CharPos("x", 2), CharPos("y", 1))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model["y"] == "b"


# ---------------------------------------------------------------------------
# Hand problems: index-of layer


def test_indexof_in_a_literal_haystack():
    problem = Problem(
        alphabet=AB,
        str_vars=(),
        int_vars=("u",),
        indexofs=(IndexOfAtom("u", "ba", Lit("abab"), first=True),),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model == {"u": 2}


def test_indexof_anywhere_with_a_lower_bound():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        int_vars=("u",),
        regular=reg("x", "(a|b)*"),
        indexofs=(IndexOfAtom("u", "ab", Var("x"), first=False),),
        integers=le(((-1, IntTerm("u")),), -2),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model["u"] >= 2
    assert evaluate(problem, verdict.model)


def test_indexof_occurrence_inside_a_concatenation_literal():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "z", "x"),
        relations=(ConcatEq("x", (Var("y"), Lit("ab"), Var("z"))),),
        int_vars=("u",),
        indexofs=(IndexOfAtom("u", "ab", Var("x"), first=False),),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert evaluate(problem, verdict.model)


def test_first_occurrence_is_pinned_down():
    # Any nonempty (ab)^k has its first "ab" at position 1; empty has
    # none, so demanding u >= 2 is unsatisfiable.  Without a length cap
    # the word can grow past every counter, so the refutation is honest
    # only up to the integer bound; adding a cap makes it definitive.
    def first_at_least_two(cap: bool) -> Problem:
        parts = [le(((-1, IntTerm("u")),), -2)]
        if cap:
            parts.append(le(((1, LenTerm("x")),), 6))
        return Problem(
            alphabet=AB,
            str_vars=("x",),
            int_vars=("u",),
            regular=reg("x", "(ab)*"),
            indexofs=(IndexOfAtom("u", "ab", Var("x"), first=True),),
            integers=parts[0] if len(parts) == 1 else And(tuple(parts)),
        )

    open_ended = solve(first_at_least_two(cap=False), int_bound=8)
    assert open_ended.status == "unsat-within-bounds"
    assert open_ended.int_bound == 8
    assert solve(first_at_least_two(cap=True), int_bound=8).status == "unsat"


def test_first_occurrence_through_a_square_stays_sharp():
    def square_first_b(y_cap: int) -> Problem:
        return Problem(
            alphabet=AB,
            str_vars=("y", "x"),
            relations=(ConcatEq("x", (Var("y"), Var("y"))),),
            int_vars=("u",),
            indexofs=(IndexOfAtom("u", "b", Var("x"), first=True),),
            integers=And(
                (
                    le(((-1, IntTerm("u")),), -3),  # u >= 3
                    le(((1, LenTerm("y")),), y_cap),
                )
            ),
        )

    # |y| <= 2 cannot push the first b to position 3 — and the solver
    # can see the length cap, so the answer is a definitive unsat.
    assert solve(square_first_b(2)).status == "unsat"
    verdict = solve(square_first_b(3))
    assert verdict.is_sat
    assert verdict.model["y"] == "aab"
    assert verdict.model["u"] == 3


# ---------------------------------------------------------------------------
# Hand problems: disequalities


def test_disequality_finds_distinct_values():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        regular=And((reg("x", "(a|b)"), reg("y", "(a|b)"))),
        disequalities=(Disequality("x", "y"),),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model["x"] != verdict.model["y"]


def test_disequality_differs_by_length_alone():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        regular=And((reg("x", "a*"), reg("y", "a*"))),
        disequalities=(Disequality("x", "y"),),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model["x"] != verdict.model["y"]


def test_disequality_on_singleton_languages_is_unsat():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        regular=And((reg("x", "aa"), reg("y", "aa"))),
        disequalities=(Disequality("x", "y"),),
    )
    assert solve(problem).status == "unsat"


# ---------------------------------------------------------------------------
# Verdict plumbing


def test_resource_limit_is_reported():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Var("y"))),),
        int_vars=("u",),
        indexofs=(IndexOfAtom("u", "b", Var("x"), first=True),),
        integers=le(((-1, IntTerm("u")),), -3),
    )
    assert solve(problem, resource_limit=20).status == "resource-limit"


def test_extension_solves_are_deterministic():
    problem = gen_random_problem(7, with_extensions=True)
    first = solve(problem, int_bound=6)
    second = solve(problem, int_bound=6)
    assert first == second


def test_extension_stats_counters_are_reported():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        int_vars=("u",),
        regular=reg("x", "ab"),
        chars=Leaf(CharAtom(CharPos("x", "u"), CharConst("b"))),
    )
    stats: dict = {}
    solve(problem, stats=stats)
    keys = (
        "membership-branches",
        "forests",
        "scenarios",
        "walks",
        "scenarios-refuted",
        "budget-left",
    )
    for key in keys:
        assert key in stats
        assert isinstance(stats[key], int)


def test_scenarios_are_merged_only_as_they_are_walked(monkeypatch):
    """Two character leaves over a padded ``y`` hold 58,564 scenarios,
    and the first one walked is sat: merging every scenario before the
    search took 59,048 ``_merge_scenarios`` calls; walking as they are
    merged takes the 484 that lower the in-range units, plus one.  (With
    a third leaf, 14,172,488 scenarios, the eager merge was still going
    after 20 s and held them all in memory; it is not run here.)"""
    merge = extensions._merge_scenarios
    calls = 0

    def counted(parts):
        nonlocal calls
        calls += 1
        return merge(parts)

    monkeypatch.setattr(extensions, "_merge_scenarios", counted)
    text = (
        'alphabet "ab"\nstr x y\nint u0 v0 u1 v1\n'
        'y = "aaaaaaaaaa" . x . "bbbbbbbbbb"\n'
        "charc (and (= y[u0] y[v0]) (= y[u1] y[v1]))\n"
    )
    stats: dict = {}
    verdict = solve(parse_problem(text), resource_limit=100, stats=stats)
    assert verdict.status == "sat"
    assert verdict.model == {
        "x": "",
        "y": "aaaaaaaaaabbbbbbbbbb",
        "u0": 1,
        "v0": 1,
        "u1": 1,
        "v1": 1,
    }
    assert (stats["scenarios"], stats["walks"], stats["budget-left"]) == (58564, 1, 99)
    assert calls <= 485


# ---------------------------------------------------------------------------
# Static refutation: scenarios no walk can accept are skipped

HEADER = 'alphabet "ab"\nstr s d\nint u\n'


@pytest.mark.parametrize(
    "text, status, model",
    [
        # A disequality between two values of one shape: its length
        # alternative is the constant ``0 <= -1``, and each position
        # alternative pins two letters to one position of the piece.
        (HEADER + "d = s\ns != d\n", "unsat", None),
        (HEADER + 'd = s . "a"\ns != d\n', "sat", {"s": "", "d": "a", "u": 0}),
        # Two index-of bindings of ``u`` on one piece, ``a`` and ``b``.
        (
            HEADER + 'd = s\nu = indexof("a", d, first)\nu = indexof("b", s, anywhere)\n',
            "unsat",
            None,
        ),
        (
            HEADER + 'd = s\nu = indexof("a", d, first)\nu = indexof("a", s, anywhere)\n',
            "sat",
            {"s": "a", "d": "a", "u": 1},
        ),
        # The ``b`` of ``ab`` sits one place after the ``a``: no clash.
        (
            HEADER + 'd = s\nu = indexof("a", d, first)\nu = indexof("ab", s, anywhere)\n',
            "sat",
            {"s": "ab", "d": "ab", "u": 1},
        ),
        # One index on two pieces: their letters may differ.
        (
            HEADER
            + "regc (and (in s /a|b/) (in d /a|b/))\ncharc (not (= s[u] d[u]))\n"
            + "intc (and (<= u 1) (<= (* -1 u) -1))\n",
            "sat",
            {"s": "a", "d": "b", "u": 1},
        ),
        # A needle letter that no word of ``s`` holds.
        (HEADER + 'regc (in s /a*/)\nu = indexof("b", s, anywhere)\n', "unsat", None),
        (
            HEADER + 'regc (in s /a*b/)\nu = indexof("b", s, anywhere)\n',
            "sat",
            {"s": "b", "d": "", "u": 1},
        ),
    ],
    ids=[
        "identical-shapes",
        "identical-shapes-control",
        "conflicting-indexof",
        "conflicting-indexof-same-letter",
        "conflicting-indexof-shifted-letter",
        "one-index-two-pieces",
        "missing-letter",
        "missing-letter-control",
    ],
)
def test_refuted_scenarios_are_not_walked(text, status, model):
    """A refuted case answers ``unsat`` without a single walk (walking
    its scenarios instead ends in ``resource-limit`` at a resource limit
    of 10,000 on the first two); its near miss still walks."""
    stats: dict = {}
    verdict = solve(parse_problem(text), stats=stats)
    assert (verdict.status, verdict.model) == (status, model)
    if status == "unsat":
        assert stats["walks"] == 0
        assert stats["scenarios-refuted"] > 0
    else:
        assert stats["walks"] > 0


def test_refuted_scenarios_have_no_accepting_walk(monkeypatch, extension_problems):
    """Every scenario refuted on the seeded corpus at a resource limit of
    10,000 is walked anyway, on a budget of its own: none accepts."""
    refuted = extensions.refuted
    skipped = []

    def recorded(lowered):
        if refuted(lowered):
            skipped.append(lowered)
            return True
        return False

    monkeypatch.setattr(extensions, "refuted", recorded)
    statuses: Counter = Counter()
    for problem in extension_problems:
        skipped.clear()
        solve(problem, resource_limit=10_000)
        int_bound = default_int_bound(_checked_fold(problem)[0])
        for lowered in skipped:
            budget = Budget(10_000)
            try:
                result = extensions.counter_walk_solve(lowered, int_bound, budget)
            except BudgetExhausted:
                statuses["resource"] += 1
            else:
                statuses[result.status] += 1
    assert statuses["sat"] == 0
    # Some of these walks finish, so the check has teeth.
    assert statuses["unsat"] + statuses["within"] > 0


# ---------------------------------------------------------------------------
# Unit: the match automaton


def test_match_automaton_tracks_first_completion():
    """Walking the automaton finds needle completions exactly where
    Python's ``find`` says they are."""
    for needle in ["a", "ab", "aab", "abab", "bb"]:
        delta = _kmp_delta(needle, AB)
        p = len(needle)
        for n in range(7):
            for letters in itertools.product("ab", repeat=n):
                text = "".join(letters)
                q = 0
                first = None
                for i, ch in enumerate(text):
                    q = delta[q][ch]
                    if q == p and first is None:
                        first = i + 1 - p  # 0-based start of the match
                expected = text.find(needle)
                assert first == (expected if expected >= 0 else None)


def test_match_automaton_state_is_the_matched_prefix_length():
    delta = _kmp_delta("abab", AB)
    q = 0
    for ch, expect in [("a", 1), ("b", 2), ("a", 3), ("a", 1), ("b", 2)]:
        q = delta[q][ch]
        assert q == expect


# ---------------------------------------------------------------------------
# Unit: the multi-track product


class ResourceLimit(RuntimeError):
    """Raised when the tuple enumeration outgrows its state cap."""


def accepted_tuples(
    mta: MultiTrackAutomaton, max_len: int, state_cap: int = 100_000
) -> set[tuple[str, ...]]:
    """All solution tuples with every component at most ``max_len`` long.

    Exhaustive search over the product's memoised moves; raises
    :class:`ResourceLimit` when the walk outgrows ``state_cap``.
    """

    def successors(item: tuple) -> Iterator[tuple[str, tuple]]:
        state, words = item
        for track, ch, nxt in mta.moves(state):
            if len(words[track]) < max_len:
                grown = words[:track] + (words[track] + ch,) + words[track + 1 :]
                yield ch, (nxt, grown)

    start = (mta.initial(), ("",) * len(mta.tracks))
    explored = explore(start, successors, cap=state_cap)
    if explored is None:
        raise ResourceLimit(f"tuple enumeration exceeded {state_cap} states")
    return {words for state, words in explored[0] if mta.is_final(state)}


def mk_forest(nodes, edges):
    order = tuple(name for name, _nfa in nodes)
    nfas = {name: nfa for name, nfa in nodes}
    children = {name: [] for name in order}
    parent = {}
    for pn, cn, machine in edges:
        children[pn].append((cn, machine))
        parent[cn] = (pn, machine)
    return AcForest(order=order, nfas=nfas, children=children, parent=parent)


def test_single_track_tuples_are_the_language():
    nfa = regex_parse("(a|bb)*", AB)
    forest = mk_forest([(("x", 0), nfa)], [])
    mta = MultiTrackAutomaton(forest)
    assert accepted_tuples(mta, 3) == {(w,) for w in nfa_enumerate(nfa, 3)}
    with pytest.raises(ResourceLimit):
        accepted_tuples(mta, 3, state_cap=4)


def test_two_track_tuples_match_brute_force():
    root_lang = regex_parse("(a|b)*", AB)
    child_lang = regex_parse("b*", AB)
    machine = erase_transducer(AB, "a")
    forest = mk_forest(
        [(("x", 0), root_lang), (("y", 0), child_lang)],
        [(("x", 0), ("y", 0), machine)],
    )
    tuples = accepted_tuples(MultiTrackAutomaton(forest), 3)
    expected = {
        (x, y)
        for x in nfa_enumerate(root_lang, 3)
        for y in nfa_enumerate(child_lang, 3)
        if transducer_membership(machine, x, y)
    }
    assert tuples == expected
    assert ("ab", "b") in tuples and ("ab", "ab") not in tuples


def test_branching_forest_tuples_match_brute_force():
    root_lang = regex_parse("(a|b)*", AB)
    copy_lang = regex_parse("(a|b)*", AB)
    drop_lang = regex_parse("(a|b)*", AB)
    copy = identity_transducer(AB)
    drop = erase_transducer(AB, "b")
    forest = mk_forest(
        [(("x", 0), root_lang), (("y", 0), copy_lang), (("z", 0), drop_lang)],
        [(("x", 0), ("y", 0), copy), (("x", 0), ("z", 0), drop)],
    )
    tuples = accepted_tuples(MultiTrackAutomaton(forest), 2)
    expected = {
        (x, y, z)
        for x in nfa_enumerate(root_lang, 2)
        for y in nfa_enumerate(copy_lang, 2)
        for z in nfa_enumerate(drop_lang, 2)
        if transducer_membership(copy, x, y) and transducer_membership(drop, x, z)
    }
    assert tuples == expected


@pytest.mark.parametrize(
    "name, extra, ids",
    [
        ("ex_cacm", "intc (<= (len cat) 12)\n", 2016),
        ("ex_mxss1", 'int k\nk = indexof("<", ci, first)\n', 1155),
    ],
)
def test_walk_product_grows_only_as_the_walk_does(monkeypatch, name, extra, ids):
    """The product numbers only the states a walk reaches, so a spent
    budget stops it too; the reachable product of the ``ex_cacm`` case
    built whole is far larger (ROADMAP, the north star's hand-written
    searches)."""
    built = []

    class Recorded(MultiTrackAutomaton):
        def __init__(self, forest):
            super().__init__(forest)
            built.append(self)

    monkeypatch.setattr(extensions, "MultiTrackAutomaton", Recorded)
    problem = parse_problem(load_benchmark(name).source + extra)
    stats: dict = {}
    assert solve(problem, resource_limit=2_000, stats=stats).status == "resource-limit"
    assert stats["walks"] == 1
    assert [mta.size for mta in built] == [ids]


# ---------------------------------------------------------------------------
# Seeded differential against the oracle


def test_extended_solver_agrees_with_oracle_within_bounds(extension_problems):
    """Where both sides are decisive they must agree, and a bounded
    refutation must at least cover everything the bounded oracle sees."""
    config = OracleConfig(max_len=6, max_int=6)
    statuses = {"sat": 0, "unsat": 0, "unsat-within-bounds": 0}
    for seed, problem in enumerate(extension_problems[:40]):
        verdict = solve(problem, int_bound=6)
        assert verdict.status != "resource-limit"
        statuses[verdict.status] += 1
        witness = brute_force_solve(problem, config)
        if verdict.is_sat:
            assert evaluate(problem, verdict.model)
        else:
            # Plain unsat refutes everything; within-bounds refutes at
            # least the oracle's search space.  Either way: no witness.
            assert witness is None, f"seed {seed}: oracle found {witness}"
        if witness is not None:
            assert verdict.is_sat, f"seed {seed}: oracle sat, solver {verdict.status}"
    assert statuses["sat"] > 10 and statuses["unsat"] > 3
