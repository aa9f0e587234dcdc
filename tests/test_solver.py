"""End-to-end checks of the core decision procedure.

Hand-built cases pin down sat/unsat answers and model validity; a
seeded differential sweep compares the solver's verdicts with the
bounded-exhaustive reference on string-only instances, where both are
complete.
"""

import sys
import time

import pytest
from cut_path import cut_solve

import slsolve.solver
from slsolve.automata import (
    Alphabet,
    nfa_bfs_copy,
    nfa_complement,
    nfa_intersect,
    nfa_membership,
    nfa_reduce,
    nfa_universal,
)
from slsolve.constraints import (
    And,
    ConcatEq,
    Leaf,
    Lit,
    Not,
    Or,
    Problem,
    RegAtom,
    TransducerEq,
    Var,
    evaluate,
    tree_leaves,
)
from slsolve.oracle import OracleConfig, brute_force_solve, gen_random_problem
from slsolve.parser import parse_problem
from slsolve.regex import regex_parse
from slsolve.solver import (
    Verdict,
    fold_constant_relations,
    max_model_bound,
    normalize_regular,
    solve,
)
from slsolve.straightline import CyclicDefinition, MultiplyDefined
from slsolve.transducer import erase_transducer, identity_transducer
from slsolve.websec import load_benchmark

AB = Alphabet.of("ab")


def reg(var: str, pattern: str, alphabet: Alphabet = AB) -> Leaf:
    return Leaf(RegAtom(var, regex_parse(pattern, alphabet), pattern))


def test_square_never_matches_an_odd_word():
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
    assert verdict.model is None
    assert elapsed < 1.0


def test_square_matching_an_even_word_is_found():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Var("y"))),),
        regular=And((reg("y", "(a|b)*"), reg("x", "abab"))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model == {"y": "ab", "x": "abab"}
    assert evaluate(problem, verdict.model)


def test_solving_through_a_transducer_image():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(TransducerEq("y", "dropA", erase_transducer(AB, "a"), "x"),),
        regular=And((reg("x", "(ab)*"), reg("y", "bbb"))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model["x"] == "ababab"
    assert verdict.model["y"] == "bbb"


def test_negated_membership_forces_the_other_branch():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        regular=And((reg("x", "(a|b)*"), Not(reg("x", "a*")))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert "b" in verdict.model["x"]


def test_disjunctive_membership_tree():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        regular=Or((And((reg("x", "a"), reg("x", "b"))), reg("x", "bb"))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model == {"x": "bb"}


def test_contradictory_memberships_are_unsat():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        regular=And((reg("x", "a"), reg("x", "b"))),
    )
    assert solve(problem).status == "unsat"


def test_literals_inside_concatenations():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Lit("a"), Var("y"), Lit("b"))),),
        regular=And((reg("x", "a*b"), reg("y", "(a|b)*"))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model["x"] == "a" + verdict.model["y"] + "b"
    assert nfa_membership(regex_parse("a*b", AB), verdict.model["x"])


def test_constant_equation_is_folded_to_membership():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        relations=(ConcatEq("x", (Lit("a"), Lit("b"))),),
    )
    folded = fold_constant_relations(problem)
    assert folded.relations == ()
    assert solve(problem).model == {"x": "ab"}

    conflicted = Problem(
        alphabet=AB,
        str_vars=("x",),
        relations=(ConcatEq("x", (Lit("ab"),)),),
        regular=reg("x", "a*"),
    )
    assert solve(conflicted).status == "unsat"


def test_shared_argument_forest_with_two_images():
    # Two transducer applications hanging off one source: a genuine
    # forest, not a chain.
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y", "z"),
        relations=(
            TransducerEq("y", "copy", identity_transducer(AB), "x"),
            TransducerEq("z", "dropA", erase_transducer(AB, "a"), "x"),
        ),
        regular=And((reg("y", "ab*"), reg("z", "b"))),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert verdict.model["y"] == verdict.model["x"]
    assert verdict.model["z"] == verdict.model["x"].replace("a", "")


def test_image_feeding_a_concatenation_is_in_the_fragment():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "zp", "y", "z"),
        relations=(
            TransducerEq("y", "copy", identity_transducer(AB), "x"),
            ConcatEq("z", (Var("y"), Var("y"), Var("zp"))),
        ),
        regular=reg("z", "abab"),
    )
    verdict = solve(problem)
    assert verdict.is_sat
    assert evaluate(problem, verdict.model)


def test_solve_refuses_problems_outside_the_fragment():
    cyclic = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(
            ConcatEq("x", (Var("y"),)),
            TransducerEq("y", "copy", identity_transducer(AB), "x"),
        ),
    )
    # Folding turns the second definition of ``x`` into a membership, so
    # the original problem has to be checked, not just the folded one.
    doubled = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        relations=(ConcatEq("x", (Var("y"),)), ConcatEq("x", (Lit("a"),))),
    )
    for entry in (solve, max_model_bound):
        with pytest.raises(CyclicDefinition):
            entry(cyclic)
        with pytest.raises(MultiplyDefined):
            entry(doubled)


@pytest.mark.parametrize(
    "kwargs", [{"int_bound": -1}, {"resource_limit": -1}], ids=["bound", "limit"]
)
def test_negative_bounds_are_refused(kwargs):
    problem = Problem(alphabet=AB, str_vars=("x",), regular=reg("x", "ab"))
    with pytest.raises(ValueError, match="must be at least 0, not -1"):
        solve(problem, **kwargs)
    assert solve(problem, int_bound=0, resource_limit=0).is_sat


def test_straightline_check_runs_once_unless_folding_changes_the_problem(
    monkeypatch,
):
    checked = []
    real = slsolve.solver.check_straightline

    def counting(problem):
        checked.append(problem)
        return real(problem)

    monkeypatch.setattr(slsolve.solver, "check_straightline", counting)
    relational = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Lit("a"))),),
        regular=reg("x", "ba"),
    )
    assert solve(relational).model == {"y": "b", "x": "ba"}
    assert checked == [relational]

    checked.clear()
    constant = Problem(
        alphabet=AB,
        str_vars=("x",),
        relations=(ConcatEq("x", (Lit("ab"),)),),
    )
    assert solve(constant).model == {"x": "ab"}
    assert checked == [constant, fold_constant_relations(constant)]


@pytest.mark.parametrize(
    "pattern, machine",
    [
        ("(ab)*aaaaaaaab", erase_transducer(AB, "b")),
        ("ab" * 10, identity_transducer(AB)),
    ],
    ids=["unsat", "sat"],
)
def test_capped_boundary_filter_falls_back_to_blind_placement(
    monkeypatch, pattern, machine
):
    # y = T(x) with x cut into three pieces, so the boundary filter runs.
    # The problem is sharing-free, so ``solve`` would take forward ranges;
    # the cut path runs directly.
    problem = Problem(
        alphabet=AB,
        str_vars=("u", "v", "w", "x", "y"),
        relations=(
            ConcatEq("x", (Var("u"), Lit("b"), Var("v"), Var("w"))),
            TransducerEq("y", "t", machine, "x"),
        ),
        regular=And((reg("y", pattern), reg("u", "a*b*"))),
    )
    filtered_stats: dict = {}
    filtered = cut_solve(problem, stats=filtered_stats)
    assert solve(problem).status == filtered.status

    results = []
    real = slsolve.solver._boundary_filter

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(slsolve.solver, "_boundary_filter", recording)
    monkeypatch.setattr(slsolve.solver, "_FILTER_STATE_CAP", 0)
    blind_stats: dict = {}
    blind = cut_solve(problem, stats=blind_stats)
    assert results and all(r is None for r in results)
    assert blind == filtered
    assert blind_stats["cut-placements"] > filtered_stats["cut-placements"]


SWAP = """\
alphabet "ab"
transducer sw {
  states 2
  initial 0
  final 0 1
  t 0 a/b 1
  t 0 b/a 0
  t 1 a/a 1
  t 1 b/b 0
}
str u v x y
x = u . "a" . v
y = sw(x)
"""


@pytest.mark.parametrize(
    "pattern, expected",
    [("(a|b)*bb(a|b)*", "sat"), ("a*", "unsat")],
    ids=["sat", "unsat"],
)
def test_small_split_application_is_filtered(monkeypatch, pattern, expected):
    # Two pieces under a two-state transducer: few enough raw boundary
    # combinations that placing them blind would be cheap, yet the filter
    # runs, and it only ever drops placements.  The problem is
    # sharing-free, so the cut path runs directly.
    problem = parse_problem(
        SWAP + f"regc (and (in u /a+/) (in y /{pattern}/))\n"
    )
    calls = []
    real = slsolve.solver._boundary_filter

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(slsolve.solver, "_boundary_filter", recording)
    filtered_stats: dict = {}
    filtered = cut_solve(problem, stats=filtered_stats)
    assert calls
    assert filtered.status == expected
    assert solve(problem).status == expected

    monkeypatch.setattr(slsolve.solver, "_boundary_filter", lambda *args: None)
    blind_stats: dict = {}
    blind = cut_solve(problem, stats=blind_stats)
    assert blind == filtered
    assert filtered_stats["cut-placements"] <= blind_stats["cut-placements"]


SQUARE_D4 = 'alphabet "ab"\nstr x0 x1 x2\nx1 = x0 . x0\nx2 = x1 . x1\n'


@pytest.mark.parametrize(
    "xn_constraint",
    [
        "(or (in x2 /(aa)*a/) (in x2 /a(ba)*b/))",
        "(or (in x2 /a(ba)*/) (not (in x2 /(a|b)*/)))",
    ],
    ids=["tree-or", "tree-odd-or-none"],
)
def test_normalization_builds_each_automaton_once(monkeypatch, xn_constraint):
    # Vectors that agree on a variable's leaves share its products and
    # their reduction; every yielded automaton is still the one a
    # branch-by-branch rebuild gives.  A product of one leaf is built as
    # a copy of the leaf (``nfa_bfs_copy``), longer ones as products.
    problem = parse_problem(
        SQUARE_D4 + f"regc (and (in x0 /(a|b)+/) {xn_constraint})\n"
    )
    calls = {"copy": 0, "intersect": 0, "reduce": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(
        slsolve.solver, "nfa_intersect", counting("intersect", nfa_intersect)
    )
    monkeypatch.setattr(slsolve.solver, "nfa_reduce", counting("reduce", nfa_reduce))
    monkeypatch.setattr(slsolve.solver, "nfa_bfs_copy", counting("copy", nfa_bfs_copy))
    branches = list(normalize_regular(problem))

    leaves = tree_leaves(problem.regular)
    prefixes, final_keys = set(), set()
    for values, var_nfas in branches:
        for var in problem.str_vars:
            mine = [(i, v) for i, v in enumerate(values) if leaves[i].atom.var == var]
            prefixes.update((var, tuple(mine[: k + 1])) for k in range(len(mine)))
            expected = nfa_universal(problem.alphabet)
            for i, v in mine:
                atom = leaves[i].atom
                factor = atom.nfa if v else nfa_complement(atom.nfa)
                expected = nfa_intersect(expected, factor)
            if mine:
                final_keys.add((var, tuple(mine)))
                expected = nfa_reduce(expected)
            assert var_nfas[var] == expected
    assert len(branches) > 1
    firsts = sum(len(prefix) == 1 for _var, prefix in prefixes)
    assert calls == {
        "copy": firsts,
        "intersect": len(prefixes) - firsts,
        "reduce": len(final_keys),
    }


def test_each_solve_builds_one_universal_automaton(monkeypatch):
    """Normalization, the ranges, cut placement and the forward path all
    share the solve's one universal automaton: ``ex_cacm`` takes the cut
    path, ``ex_iframe`` the forward path, and extension seed 0 the cut
    path with a counter walk."""
    cases = [
        (load_benchmark("ex_cacm").problem, {}, "forests"),
        (load_benchmark("ex_iframe").problem, {}, "ranges"),
        (
            gen_random_problem(0, with_extensions=True),
            {"resource_limit": 10_000},
            "forests",
        ),
    ]
    # Load the lazily imported paths first, so that every binding is counted.
    import slsolve.extensions  # noqa: F401
    import slsolve.forward  # noqa: F401

    built = []

    def counting(alphabet):
        built.append(alphabet)
        return nfa_universal(alphabet)

    for name, module in list(sys.modules.items()):
        if name.startswith("slsolve") and vars(module).get("nfa_universal"):
            monkeypatch.setattr(module, "nfa_universal", counting)
    for problem, kwargs, path_key in cases:
        built.clear()
        stats: dict = {}
        solve(problem, stats=stats, **kwargs)
        assert stats[path_key] > 0
        assert len(built) == 1


def test_stats_are_filled_when_the_search_raises(monkeypatch):
    def broken(forest):
        raise RuntimeError("propagation failed")

    monkeypatch.setattr(slsolve.solver, "_propagate", broken)
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Var("y"))),),
        regular=reg("x", "abab"),
    )
    stats: dict = {}
    with pytest.raises(RuntimeError, match="propagation failed"):
        solve(problem, stats=stats)
    assert stats.pop("cut-placements") > 0
    assert stats == {"membership-branches": 1, "forests": 1, "feasible-forests": 0}


def test_empty_problem_is_trivially_sat():
    verdict = solve(Problem(alphabet=AB, str_vars=()))
    assert verdict.is_sat
    assert verdict.model == {}


def test_verdict_exposes_sat_flag():
    assert Verdict("sat", model={}).is_sat
    assert not Verdict("unsat").is_sat


def test_stats_counters_are_reported():
    problem = Problem(
        alphabet=AB,
        str_vars=("y", "x"),
        relations=(ConcatEq("x", (Var("y"), Var("y"))),),
        regular=And((reg("y", "a*|b*"), reg("x", "ab"))),
    )
    stats: dict = {}
    solve(problem, stats=stats)
    assert stats["membership-branches"] >= 1
    assert stats["forests"] >= 0
    assert stats["feasible-forests"] == 0
    assert all(isinstance(v, int) for v in stats.values())


# ---------------------------------------------------------------------------
# Model-size bound and seeded differential


def test_reported_models_fit_the_static_bound(string_problems):
    checked = 0
    for problem in string_problems[:40]:
        verdict = solve(problem)
        if verdict.is_sat:
            checked += 1
            bound = max_model_bound(problem)
            assert all(len(v) <= bound for v in verdict.model.values())
    assert checked > 10


def test_solver_agrees_with_oracle_on_seeded_string_problems(string_problems):
    """String-only instances: both sides are complete, so verdicts must match."""
    config = OracleConfig(max_len=12)
    sat = unsat = 0
    for seed, problem in enumerate(string_problems[:80]):
        verdict = solve(problem)
        witness = brute_force_solve(problem, config)
        if verdict.is_sat:
            sat += 1
            assert evaluate(problem, verdict.model)
            assert witness is not None, f"seed {seed}: solver sat, oracle found nothing"
        else:
            unsat += 1
            assert witness is None, f"seed {seed}: oracle found {witness}"
    assert sat > 10 and unsat > 5
