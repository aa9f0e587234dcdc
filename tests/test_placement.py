"""Cut placement in the splitting stage.

``_branch_forests`` places piece boundaries one at a time and prunes
dead prefixes.  The forests it yields on every membership branch of the
instances below are pinned, in order, as a semantic pin: the node order,
each node's automaton by its language, and the transducer segments
between nodes (built by ``_segment_machine``, whose output
``test_product_kernels.py`` pins by structure).  A language is keyed by
its canonical minimal DFA, so a change that shrinks or renumbers node
automata keeps the pins.  Scaling is checked with the solver's
deterministic work budget instead of wall clocks.

The pins were recorded while a copy of the blind enumerator that cut
placement replaced (every cut tuple of a choice point from
``itertools.product``, each sliced in full before any intersection)
still yielded the same forests in the same order, node automata equal by
structure.  To re-record, print ``forests_pin`` on the same inputs and
paste it into the table of the test.
"""

import pytest
from outcome_digest import digest

from slsolve.automata import (
    Nfa,
    explore,
    nfa_determinize,
    nfa_intersect,
    nfa_reduce,
    nfa_universal,
)
from slsolve.constraints import Problem, TransducerEq, evaluate
from slsolve.parser import parse_problem
from slsolve.solver import (
    Budget,
    _branch_forests,
    fold_constant_relations,
    normalize_regular,
    solve,
    split_concat,
)
from slsolve.straightline import check_straightline
from slsolve.transducer import transducer_normalize
from slsolve.websec import benchmark_names, load_benchmark

# ---------------------------------------------------------------------------
# Instances

#: Square-chain families: constraint on ``x0`` (or None) and on ``x_n``.
#: ``x_n`` is ``x0`` repeated ``2^n`` times.
SQUARE_FAMILIES = {
    "odd-length": (None, "(in {xn} /a(ba)*/)"),
    "odd-length-aa": (None, "(in {xn} /(aa)*a/)"),
    "odd-length-b": (None, "(in {xn} /b(ab)*/)"),
    "odd-length-mid": ("(in {x0} /(a|b)+/)", "(in {xn} /(ab)*a(ab)*/)"),
    "odd-a-count": ("(in {x0} /(a|b)+/)", "(in {xn} /b*a(b*ab*a)*b*/)"),
    "no-b": ("(in {x0} /a+/)", "(in {xn} /(a|b)*b(a|b)*/)"),
    "tree-odd-or-none": (
        "(in {x0} /(a|b)+/)",
        "(or (in {xn} /a(ba)*/) (not (in {xn} /(a|b)*/)))",
    ),
    "alternating": ("(in {x0} /(a|b)+/)", "(in {xn} /a(ba)*b/)"),
    "ab-plus": ("(in {x0} /(a|b)+/)", "(in {xn} /(ab)+/)"),
    "tree-only-b": (
        "(in {x0} /(a|b)+/)",
        "(and (in {xn} /(a|b)*b/) (not (in {xn} /(a|b)*a(a|b)*/)))",
    ),
    "tree-no-repeat": ("(in {x0} /(a|b)+/)", "(not (in {xn} /(a|b)*(aa|bb)(a|b)*/))"),
    "tree-or": ("(in {x0} /(a|b)+/)", "(or (in {xn} /(aa)*a/) (in {xn} /a(ba)*b/))"),
    "a-blocks": ("(in {x0} /ab*/)", "(in {xn} /(ab*)*/)"),
    "ab-or-ba": ("(in {x0} /(a|b)(a|b)+/)", "(in {xn} /(ab|ba)*/)"),
}


def square_chain(family: str, dim: int) -> Problem:
    """``x_{i+1} = x_i . x_i`` up to ``x_n`` of dimension ``dim = 2^n``."""
    n = dim.bit_length() - 1
    names = [f"x{i}" for i in range(n + 1)]
    lines = ['alphabet "ab"', "str " + " ".join(names)]
    lines += [f"x{i + 1} = x{i} . x{i}" for i in range(n)]
    for constraint in SQUARE_FAMILIES[family]:
        if constraint is not None:
            lines.append("regc " + constraint.format(x0="x0", xn=names[n]))
    return parse_problem("\n".join(lines) + "\n")


def language(nfa: Nfa) -> str:
    """A digest of the machine's language: of its canonical minimal DFA.

    ``nfa_reduce`` of the subset construction is the trimmed minimal
    DFA; numbering its states in breadth-first order, letters in
    alphabet order, makes it the same for every machine of the language.
    """
    dfa = nfa_reduce(nfa_determinize(nfa))
    by_sym = dfa.arcs_by_symbol

    def successors(q):
        return [(sym, r) for sym, targets in by_sym[q].items() for r in targets]

    order, arcs = explore(dfa.initial, successors)
    finals = [i for i, q in enumerate(order) if q in dfa.finals]
    return digest([(len(order), arcs, finals)])


def forests_pin(problem: Problem) -> tuple[int, str]:
    """The forest count and one digest of every forest, branch by branch.

    A forest is its node order, each node's language and each edge's
    segment machine.  Forests share machines, so each machine's digest
    is memoised by object.
    """
    folded = fold_constant_relations(problem)
    graph = check_straightline(folded)
    shapes = split_concat(folded, graph)
    norm_ts = {
        idx: transducer_normalize(rel.transducer)
        for idx, rel in enumerate(folded.relations)
        if isinstance(rel, TransducerEq)
    }
    memo: dict[int, tuple[object, str]] = {}

    def key(machine, make=lambda segment: digest([segment])) -> str:
        hit = memo.get(id(machine))
        if hit is None:
            hit = memo[id(machine)] = (machine, make(machine))
        return hit[1]

    keys = []
    for branch, (_values, var_nfas) in enumerate(normalize_regular(folded)):
        budget = Budget(10**9)
        for f in _branch_forests(folded, graph, shapes, var_nfas, norm_ts, {}, budget):
            nfas = {node: key(nfa, language) for node, nfa in f.nfas.items()}
            children = {
                node: [(child, key(seg)) for child, seg in edges]
                for node, edges in f.children.items()
            }
            parent = {
                child: (node, key(seg)) for child, (node, seg) in f.parent.items()
            }
            keys.append((branch, f.order, nfas, children, parent))
        assert budget.remaining >= 0
    return len(keys), digest(keys)


def pins_of(problems) -> tuple[int, str]:
    """Forests of several problems under one pin."""
    pins = [forests_pin(problem) for problem in problems]
    return sum(n for n, _d in pins), digest(pins, repr)


# ---------------------------------------------------------------------------
# Pinned forests


#: Families pinned at d8 too: the ones the blind enumerator finished
#: there, from 4 s (``odd-length-aa``) to minutes (``odd-a-count``).
BLIND_D8 = ("a-blocks", "ab-plus", "odd-length", "tree-no-repeat", "tree-only-b")

#: Per instance or group: forests yielded, and their digest.
SQUARE_FORESTS = {
    "a-blocks": (3, "15447aab6b3b2472"),
    "ab-or-ba": (2, "bd731e2511af3f61"),
    "ab-plus": (3, "81b0fb979896d316"),
    "alternating": (2, "4692db2736ef2572"),
    "no-b": (0, "88e979c41f5846b6"),
    "odd-a-count": (0, "88e979c41f5846b6"),
    "odd-length": (0, "f612dc981aa22303"),
    "odd-length-aa": (0, "88e979c41f5846b6"),
    "odd-length-b": (0, "88e979c41f5846b6"),
    "odd-length-mid": (0, "88e979c41f5846b6"),
    "tree-no-repeat": (6, "708297be7ee91957"),
    "tree-odd-or-none": (0, "88e979c41f5846b6"),
    "tree-only-b": (3, "c09546c911d08c33"),
    "tree-or": (2, "700ed0dfb2011b7a"),
}
SANITIZER_FORESTS = {
    "ex_cacm": (79, "6fd006d5676cc26c"),
    "ex_corrected": (0, "e3b0c44298fc1c14"),
    "ex_iframe": (135, "1ffcdeb9785cf381"),
    "ex_mxss1": (79, "e294bef610823dec"),
}
GAPPED_FORESTS = {
    "gaps": (1, "0f2264f0bb39d8dd"),
    "two-sources": (2, "d6be42632b2dd180"),
    "transducer": (158, "b1f8d86d6b42a702"),
}
RANDOM_FORESTS = (181, "85bff8200309dc61")


@pytest.mark.parametrize("family", sorted(SQUARE_FAMILIES))
def test_square_chain_forests_match_blind_enumeration(family):
    dims = (2, 4, 8) if family in BLIND_D8 else (2, 4)
    got = pins_of(square_chain(family, dim) for dim in dims)
    assert got == SQUARE_FORESTS[family]


@pytest.mark.parametrize("name", benchmark_names())
def test_sanitizer_forests_match_blind_enumeration(name):
    assert forests_pin(load_benchmark(name).problem) == SANITIZER_FORESTS[name]


ALT = """\
transducer alt {
  states 2
  initial 0
  final 0
  t 0 a/b 1
  t 1 b/a 0
  t 0 b/b 0
  t 1 a/a 1
}
"""

#: Split variables with literal gaps between their pieces, bare and
#: under a two-state transducer.
GAPPED = (
    'str y x\nx = y . "a" . y . "b" . y\nregc (in x /(ab)*a(ab)*b(ab)*/)\n',
    'str y z x\nx = y . "ab" . z . "b" . y\n'
    "regc (and (in x /a*(ba)*b*/) (in z /a+/))\n",
    ALT + 'str y x w\nx = y . "a" . y . "b" . y\nw = alt(x)\n'
    "regc (in w /(ab)*b(a|b)*/)\n",
)


@pytest.mark.parametrize("text", GAPPED, ids=["gaps", "two-sources", "transducer"])
def test_gapped_forests_match_blind_enumeration(request, text):
    count, pin = forests_pin(parse_problem('alphabet "ab"\n' + text))
    assert count > 0
    assert (count, pin) == GAPPED_FORESTS[request.node.callspec.id]


def test_random_string_forests_match_blind_enumeration(string_problems):
    count, pin = pins_of(string_problems[:200])
    assert count > 0
    assert (count, pin) == RANDOM_FORESTS


# ---------------------------------------------------------------------------
# Scaling and the work budget


@pytest.mark.parametrize(
    "family, expected",
    [("odd-length", "unsat"), ("odd-a-count", "unsat"), ("alternating", "sat")],
)
@pytest.mark.parametrize("dim", [32, 64])
def test_square_chain_solves_within_a_placement_budget(family, expected, dim):
    problem = square_chain(family, dim)
    stats: dict = {}
    verdict = solve(problem, resource_limit=20_000, stats=stats)
    assert verdict.status == expected
    assert 0 < stats["cut-placements"] <= 20_000
    if expected == "sat":
        assert evaluate(problem, verdict.model)


def test_string_only_solve_stops_at_the_resource_limit():
    stats: dict = {}
    verdict = solve(square_chain("odd-length", 8), resource_limit=5, stats=stats)
    assert verdict.status == "resource-limit"
    assert verdict.model is None
    assert stats["cut-placements"] == 6
    assert stats["forests"] == 0


# ---------------------------------------------------------------------------
# Cuts on reduced automata


def test_branch_automata_are_reduced_except_images():
    """``normalize_regular`` reduces every automaton but an image's.

    At ``odd-a-count`` d4 the product for ``x_n`` has 8 states and its
    reduction 4.  ``ci`` in ``ex_mxss1`` is a transducer image, so it
    keeps its 55-state product although the reduction has 52.
    """
    problem = square_chain("odd-a-count", 4)
    (_values, var_nfas), = normalize_regular(problem)
    universal = nfa_universal(problem.alphabet)
    assert var_nfas["x1"] == universal
    for var, leaf in zip(("x0", "x2"), problem.regular.children):
        product = nfa_intersect(universal, leaf.atom.nfa)
        assert var_nfas[var] == nfa_reduce(product)
    assert nfa_intersect(universal, problem.regular.children[1].atom.nfa).n_states == 8
    assert var_nfas["x2"].n_states == 4

    mxss = fold_constant_relations(load_benchmark("ex_mxss1").problem)
    (_values, var_nfas), = normalize_regular(mxss)
    product = nfa_intersect(nfa_universal(mxss.alphabet), mxss.regular.atom.nfa)
    assert var_nfas["ci"] == product
    assert (product.n_states, nfa_reduce(product).n_states) == (55, 52)


def test_square_chain_benchmark_places_at_most_270_cuts(workloads):
    """The benchmark's 33 square-chain instances, at its arguments.

    Cut placements on the branch automata as built (before reduction)
    totalled 607.  The instances are the benchmark's own
    (``perfbench/workloads.py``), loaded by path.
    """
    instances = list(workloads.build("square-chain"))
    assert len(instances) == 33
    total = 0
    for inst in instances:
        stats: dict = {}
        verdict = solve(inst.problem, stats=stats, **inst.solve_kwargs)
        assert workloads.check(inst, verdict) is None
        total += stats["cut-placements"]
    assert total <= 270
