"""Cut placement in the splitting stage.

``_branch_forests`` places piece boundaries one at a time and prunes
dead prefixes.  A copy of the blind enumerator it replaced — every cut
tuple of a choice point from ``itertools.product``, each sliced in full
before any intersection — is kept here as the reference: both must
yield the same forests in the same order.  Scaling is checked with the
solver's deterministic work budget instead of wall clocks.
"""

from itertools import product as iter_product
from typing import Iterator, Optional

import pytest

from slsolve.automata import (
    Nfa,
    nfa_eps_eliminate,
    nfa_intersect,
    nfa_is_empty,
    nfa_multi_slice,
    nfa_reduce,
    nfa_trim,
    nfa_universal,
)
from slsolve.constraints import Problem, TransducerEq, evaluate
from slsolve.parser import parse_problem
from slsolve.solver import (
    AcForest,
    Budget,
    NodeId,
    Shape,
    _boundary_filter,
    _branch_forests,
    _segment_machine,
    _var_ranges,
    fold_constant_relations,
    normalize_regular,
    primary_nodes,
    solve,
    split_concat,
)
from slsolve.straightline import check_straightline
from slsolve.transducer import Transducer, transducer_normalize
from slsolve.websec import benchmark_names, load_benchmark

# ---------------------------------------------------------------------------
# The reference: blind tuple enumeration

#: The reference filters a split transducer application only above this
#: many raw boundary combinations, as the solver once did; the solver now
#: filters every one.  Below it the checks compare the solver's filtered
#: placement with blind placement.
_FILTER_THRESHOLD = 256


def reference_pieces(
    nfa: Nfa, shape: Shape, cuts: tuple[int, ...]
) -> Optional[list[Nfa]]:
    """Every piece automaton of one cut tuple, sliced from scratch."""
    if nfa.has_epsilon:
        nfa = nfa_eps_eliminate(nfa)
    m = len(shape.slots)
    pieces: list[Nfa] = []
    for j in range(m):
        if j == 0:
            starts = nfa.read(frozenset({nfa.initial}), shape.literals[0])
        else:
            starts = nfa.read(frozenset({cuts[j - 1]}), shape.literals[j])
        if not starts:
            return None
        if j < m - 1:
            finals: frozenset[int] = frozenset({cuts[j]})
        else:
            finals = frozenset(
                q
                for q in range(nfa.n_states)
                if nfa.read(frozenset({q}), shape.literals[m]) & nfa.finals
            )
        if not finals:
            return None
        piece = nfa_trim(nfa_eps_eliminate(nfa_multi_slice(nfa, starts, finals)))
        if nfa_is_empty(piece):
            return None
        pieces.append(piece)
    return pieces


def reference_forests(
    problem: Problem,
    graph,
    shapes: dict[str, Shape],
    var_nfas: dict[str, Nfa],
    norm_ts: dict[int, Transducer],
    seg_cache: dict,
) -> Iterator[AcForest]:
    """The forests of one membership branch, one whole cut tuple at a time."""
    primary = primary_nodes(problem, graph, shapes)
    universal = nfa_universal(problem.alphabet)
    nodes: dict[NodeId, Nfa] = {}
    edges: list[tuple[NodeId, NodeId, Transducer]] = []

    def add_pieces(shape, pieces):
        saved = []
        for j, piece in enumerate(pieces):
            node = shape.slots[j]
            old = nodes.get(node)
            saved.append((node, old))
            new = piece if old is None else nfa_intersect(old, piece)
            if nfa_is_empty(new):
                undo(saved)
                return None
            nodes[node] = new
        return saved

    def undo(saved):
        for node, old in reversed(saved):
            if old is None:
                nodes.pop(node, None)
            else:
                nodes[node] = old

    def rel_segments(idx, rel, d):
        t = norm_ts[idx]
        arg_shape = shapes[rel.arg]
        m = len(arg_shape.slots)
        out = []
        for k in range(m):
            from_state = t.initial if k == 0 else d[k - 1]
            to_key = d[k] if k < m - 1 else None
            key = (idx, k, from_state, to_key)
            seg = seg_cache.get(key)
            if seg is None:
                to_states = frozenset({d[k]}) if k < m - 1 else t.finals
                post_lit = arg_shape.literals[m] if k == m - 1 else ""
                seg = _segment_machine(
                    t, arg_shape.literals[k], from_state, to_states, post_lit
                )
                seg_cache[key] = seg
            if not seg.finals:
                return None
            out.append((arg_shape.slots[k], (rel.lhs, k), seg))
        return out

    image_rel_idx = {
        rel.lhs: idx
        for idx, rel in enumerate(problem.relations)
        if isinstance(rel, TransducerEq)
    }
    norm_by_var = {
        rel.lhs: norm_ts[idx]
        for idx, rel in enumerate(problem.relations)
        if isinstance(rel, TransducerEq)
    }

    ranges = _var_ranges(problem, graph, shapes, var_nfas, norm_by_var)
    for var in graph.order:
        rel = graph.defining.get(var)
        if isinstance(rel, TransducerEq) and len(shapes[var].slots) == 1:
            rng = ranges.get(var)
            if rng is not None and rng is not var_nfas[var]:
                if nfa_is_empty(rng):
                    return
                nodes[(var, 0)] = rng

    chosen: dict[str, tuple[int, ...]] = {}
    levels: list[tuple[str, object]] = []
    for var in graph.order:
        shape = shapes[var]
        nfa = var_nfas[var]
        if len(shape.slots) >= 2 and nfa.n_states > 1:
            levels.append(("var", var))
        else:
            chosen[var] = (0,) * (len(shape.slots) - 1)
            pieces = reference_pieces(nfa, shape, chosen[var])
            if pieces is None or add_pieces(shape, pieces) is None:
                return

    filters = {}
    for idx, rel in enumerate(problem.relations):
        if not isinstance(rel, TransducerEq):
            continue
        arg_shape = shapes[rel.arg]
        m = len(arg_shape.slots)
        if m < 2:
            continue
        t = norm_ts[idx]
        a_img = var_nfas[rel.lhs]
        if (t.n_states * a_img.n_states) ** (m - 1) <= _FILTER_THRESHOLD:
            continue
        zone_langs = [nodes.get(arg_shape.slots[j], universal) for j in range(m)]
        pairs = _boundary_filter(t, a_img, arg_shape, zone_langs)
        if pairs is None:
            continue
        if any(not v for v in pairs):
            return
        filters[idx] = pairs

    for idx, rel in enumerate(problem.relations):
        if not isinstance(rel, TransducerEq):
            continue
        m = len(shapes[rel.arg].slots)
        if m >= 2 and norm_ts[idx].n_states > 1:
            levels.append(("rel", idx))
        else:
            segs = rel_segments(idx, rel, (0,) * (m - 1))
            if segs is None:
                return
            edges.extend(segs)

    def assemble():
        children = {n: [] for n in primary}
        parent = {}
        for pn, cn, machine in edges:
            children[pn].append((cn, machine))
            parent[cn] = (pn, machine)
        nfas = {n: nodes.get(n, universal) for n in primary}
        return AcForest(order=primary, nfas=nfas, children=children, parent=parent)

    def rec(i):
        if i == len(levels):
            yield assemble()
            return
        kind, payload = levels[i]
        if kind == "var":
            var = payload
            shape = shapes[var]
            nfa = var_nfas[var]
            n_cuts = len(shape.slots) - 1
            pairs = filters.get(image_rel_idx.get(var, -1))
            if pairs is None:
                cut_iter = iter_product(range(nfa.n_states), repeat=n_cuts)
            else:
                cut_iter = iter_product(
                    *(sorted({c for _d, c in pairs[j]}) for j in range(n_cuts))
                )
            for cuts in cut_iter:
                pieces = reference_pieces(nfa, shape, cuts)
                if pieces is None:
                    continue
                saved = add_pieces(shape, pieces)
                if saved is None:
                    continue
                chosen[var] = cuts
                yield from rec(i + 1)
                del chosen[var]
                undo(saved)
        else:
            idx = payload
            rel = problem.relations[idx]
            m = len(shapes[rel.arg].slots)
            pairs = filters.get(idx)
            if pairs is None:
                d_iter = iter_product(range(norm_ts[idx].n_states), repeat=m - 1)
            else:
                cuts = chosen[rel.lhs]
                d_iter = iter_product(
                    *(
                        sorted({d for d, c in pairs[j] if c == cuts[j]})
                        for j in range(m - 1)
                    )
                )
            for d in d_iter:
                segs = rel_segments(idx, rel, d)
                if segs is None:
                    continue
                edges.extend(segs)
                yield from rec(i + 1)
                del edges[-len(segs):]

    yield from rec(0)


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


def forest_key(forest: AcForest) -> tuple:
    return forest.order, forest.nfas, forest.children, forest.parent


def assert_same_forests(problem: Problem) -> int:
    """Both enumerators agree on every branch; returns the forest count."""
    folded = fold_constant_relations(problem)
    graph = check_straightline(folded)
    shapes = split_concat(folded, graph)
    norm_ts = {
        idx: transducer_normalize(rel.transducer)
        for idx, rel in enumerate(folded.relations)
        if isinstance(rel, TransducerEq)
    }
    total = 0
    for _values, var_nfas in normalize_regular(folded):
        args = (folded, graph, shapes, var_nfas, norm_ts)
        budget = Budget(10**9)
        placed = [forest_key(f) for f in _branch_forests(*args, {}, budget)]
        blind = [forest_key(f) for f in reference_forests(*args, {})]
        assert placed == blind
        assert budget.remaining >= 0
        total += len(placed)
    return total


# ---------------------------------------------------------------------------
# Differential checks


#: Families checked at d8 too.  Blind enumeration of the others at d8
#: takes from 4 s (``odd-length-aa``) to minutes (``odd-a-count``).
BLIND_D8 = ("a-blocks", "ab-plus", "odd-length", "tree-no-repeat", "tree-only-b")


@pytest.mark.parametrize("family", sorted(SQUARE_FAMILIES))
def test_square_chain_forests_match_blind_enumeration(family):
    for dim in (2, 4, 8) if family in BLIND_D8 else (2, 4):
        assert_same_forests(square_chain(family, dim))


@pytest.mark.parametrize("name", benchmark_names())
def test_sanitizer_forests_match_blind_enumeration(name):
    assert_same_forests(load_benchmark(name).problem)


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
def test_gapped_forests_match_blind_enumeration(text):
    problem = parse_problem('alphabet "ab"\n' + text)
    assert assert_same_forests(problem) > 0


def test_random_string_forests_match_blind_enumeration(string_problems):
    total = sum(assert_same_forests(problem) for problem in string_problems[:200])
    assert total > 0


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
