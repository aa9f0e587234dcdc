"""Lowering the extension constraints onto a problem's pieces.

``lower_integer_terms`` and ``enumerate_scenarios`` lay every position
out once, zone by zone (``extensions._layout``), for character sides and
index-of placements alike.  A copy of the lowering that spelled each
layout out separately is kept here as the reference: on every seeded
extension problem, and on hand-made ones the generator never produces,
the scenario stream must be the same list in the same order (the first
satisfying walk wins) and the lowered integer tree the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product as iter_product
from typing import Iterator, Optional, Sequence, Union

from slsolve import extensions
from slsolve.automata import Alphabet
from slsolve.constraints import (
    And,
    BoolTree,
    CharAtom,
    CharConst,
    CharPos,
    ConcatEq,
    CountTerm,
    Disequality,
    IndexOfAtom,
    Leaf,
    LenTerm,
    LinearAtom,
    Lit,
    Not,
    Or,
    Problem,
    Var,
    satisfying_vectors,
    tree_leaves,
)
from slsolve.extensions import (
    LinkEq,
    LoweredLinear,
    LoweredTerm,
    Monitor,
    MonitorPiece,
    NodeId,
    PastEnd,
    PieceCount,
    PieceLen,
    Scenario,
)
from slsolve.solver import Shape, _checked_fold, split_concat

# ---------------------------------------------------------------------------
# The reference: each layout spelled out where it is used


def _merge_scenarios(parts: Sequence[Scenario]) -> Scenario:
    """Concatenate scenario pieces, re-indexing term and comp references."""
    terms: list[tuple[NodeId, str]] = []
    links: list[LinkEq] = []
    zeros: list[Union[str, int]] = []
    past_ends: list[PastEnd] = []
    extra: list[BoolTree] = []
    comps: list[tuple[NodeId, str, int]] = []
    monitors: list[Monitor] = []
    for part in parts:
        t_off = len(terms)
        c_off = len(comps)
        terms.extend(part.terms)
        zeros.extend(part.zeros)
        past_ends.extend(part.past_ends)
        extra.extend(part.extra)
        comps.extend(part.comps)
        for link in part.links:
            links.append(
                LinkEq(
                    link.index,
                    link.shift,
                    None if link.term is None else link.term + t_off,
                    link.const,
                    link.nodes,
                )
            )
        for mon in part.monitors:
            monitors.append(
                Monitor(
                    tuple(
                        MonitorPiece(
                            mp.comp + c_off,
                            mp.exit_state,
                            None
                            if mp.landing_term is None
                            else mp.landing_term + t_off,
                        )
                        for mp in mon.pieces
                    )
                )
            )
    return Scenario(
        tuple(terms),
        tuple(links),
        tuple(zeros),
        tuple(past_ends),
        tuple(extra),
        tuple(comps),
        tuple(monitors),
    )


# ---------------------------------------------------------------------------
# Integer-term lowering


def _len_parts(shape: Shape) -> tuple[list[NodeId], int]:
    """A variable's length as (piece nodes with multiplicity, literal total)."""
    return list(shape.slots), sum(len(lit) for lit in shape.literals)


def _linear_lower(atom: LinearAtom, shapes: dict[str, Shape]) -> LoweredLinear:
    coeffs: dict[LoweredTerm, int] = {}
    bound = atom.bound

    def add(term: LoweredTerm, coeff: int) -> None:
        coeffs[term] = coeffs.get(term, 0) + coeff

    for coeff, term in atom.terms:
        if isinstance(term, LenTerm):
            nodes, lit_len = _len_parts(shapes[term.var])
            for node in nodes:
                add(PieceLen(node), coeff)
            bound -= coeff * lit_len
        elif isinstance(term, CountTerm):
            shape = shapes[term.var]
            for node in shape.slots:
                add(PieceCount(node, term.char), coeff)
            bound -= coeff * sum(lit.count(term.char) for lit in shape.literals)
        else:
            add(term, coeff)
    terms = tuple((c, t) for t, c in coeffs.items() if c != 0)
    return LoweredLinear(terms, bound)


def lower_integer_terms(
    tree: Optional[BoolTree], shapes: dict[str, Shape]
) -> Optional[BoolTree]:
    """Rewrite length/count terms over whole variables into per-piece sums.

    The tree's shape is preserved; each linear leaf becomes a
    :class:`LoweredLinear` leaf whose terms are piece counters and
    integer variables, with literal contributions folded into the bound.
    """
    if tree is None:
        return None
    if isinstance(tree, Leaf):
        atom = tree.atom
        assert isinstance(atom, LinearAtom)
        return Leaf(_linear_lower(atom, shapes))
    if isinstance(tree, Not):
        return Not(lower_integer_terms(tree.child, shapes))
    cls = And if isinstance(tree, And) else Or
    return cls(tuple(lower_integer_terms(c, shapes) for c in tree.children))


def _length_differs(left: str, right: str, shapes: dict[str, Shape]) -> BoolTree:
    """``|left| != |right|`` as a disjunction of two lowered inequalities."""
    l_nodes, l_lit = _len_parts(shapes[left])
    r_nodes, r_lit = _len_parts(shapes[right])
    coeffs: dict[LoweredTerm, int] = {}
    for node in l_nodes:
        coeffs[PieceLen(node)] = coeffs.get(PieceLen(node), 0) + 1
    for node in r_nodes:
        coeffs[PieceLen(node)] = coeffs.get(PieceLen(node), 0) - 1
    terms = tuple((c, t) for t, c in coeffs.items() if c != 0)
    neg_terms = tuple((-c, t) for c, t in terms)
    diff = l_lit - r_lit
    # terms + diff <= -1   or   -(terms + diff) <= -1
    return Or(
        (
            Leaf(LoweredLinear(terms, -1 - diff)),
            Leaf(LoweredLinear(neg_terms, -1 + diff)),
        )
    )


# ---------------------------------------------------------------------------
# Character-position lowering


@dataclass(frozen=True)
class _SideSpec:
    """One resolved side of a character comparison.

    ``char`` is the character the side denotes when it is statically
    known (literal landings and constants); None means the side is a
    walk term whose character is still to be guessed.  ``link`` carries
    the position equation for landings; out-of-range resolutions carry a
    ``zero`` or ``past_end`` requirement instead.
    """

    char: Optional[str]
    term_node: Optional[NodeId] = None
    link: Optional[LinkEq] = None
    zero: Optional[Union[str, int]] = None
    past_end: Optional[PastEnd] = None


def _side_landings(side: CharPos, shapes: dict[str, Shape]) -> Iterator[_SideSpec]:
    """Every way the side's position can land inside its variable's layout."""
    shape = shapes[side.var]
    lit_prefix = 0
    for i, lit in enumerate(shape.literals):
        for k in range(1, len(lit) + 1):
            yield _SideSpec(
                char=lit[k - 1],
                link=LinkEq(
                    side.index, 0, None, lit_prefix + k, tuple(shape.slots[:i])
                ),
            )
        lit_prefix += len(lit)
        if i < len(shape.slots):
            node = shape.slots[i]
            yield _SideSpec(
                char=None,
                term_node=node,
                link=LinkEq(side.index, 0, 0, lit_prefix, tuple(shape.slots[:i])),
            )


def _side_out_of_range(
    side: CharPos, shapes: dict[str, Shape]
) -> Iterator[_SideSpec]:
    """Resolutions that place the side's position outside its variable."""
    if not isinstance(side.index, int):
        yield _SideSpec(char=None, zero=side.index)
    nodes, lit_len = _len_parts(shapes[side.var])
    yield _SideSpec(char=None, past_end=PastEnd(side.index, lit_len, tuple(nodes)))


def _spec_scenario(spec: _SideSpec, gamma: Optional[str]) -> Scenario:
    """Materialize one side resolution as a scenario fragment.

    Term references are fragment-local (index 0); merging re-indexes.
    """
    terms: tuple[tuple[NodeId, str], ...] = ()
    links: tuple[LinkEq, ...] = ()
    zeros: tuple[Union[str, int], ...] = ()
    past_ends: tuple[PastEnd, ...] = ()
    if spec.term_node is not None:
        assert gamma is not None and spec.link is not None
        terms = ((spec.term_node, gamma),)
        links = (spec.link,)
    elif spec.link is not None:
        links = (spec.link,)
    if spec.zero is not None:
        zeros = (spec.zero,)
    if spec.past_end is not None:
        past_ends = (spec.past_end,)
    return Scenario(terms, links, zeros, past_ends, (), (), ())


def _char_leaf_scenarios(
    atom: CharAtom, value: bool, shapes: dict[str, Shape], alphabet: Alphabet
) -> Iterator[Scenario]:
    """All ways one character-equality occurrence can take a truth value.

    A true occurrence binds both sides in range with equal characters; a
    false one either pushes a positional side out of range (index zero
    or past the end) or binds both sides in range with distinct
    characters.
    """

    def in_range(side: CharConst | CharPos) -> list[_SideSpec]:
        if isinstance(side, CharConst):
            return [_SideSpec(char=side.char)]
        return list(_side_landings(side, shapes))

    def char_options(spec: _SideSpec) -> tuple[str, ...]:
        return alphabet.symbols if spec.char is None else (spec.char,)

    if value:
        for left in in_range(atom.left):
            for right in in_range(atom.right):
                for ch in char_options(left):
                    if right.char is not None and right.char != ch:
                        continue
                    if left.char is not None and left.char != ch:
                        continue
                    yield _merge_scenarios(
                        [_spec_scenario(left, ch), _spec_scenario(right, ch)]
                    )
        return

    for side in (atom.left, atom.right):
        if isinstance(side, CharPos):
            for spec in _side_out_of_range(side, shapes):
                yield _spec_scenario(spec, None)
    for left in in_range(atom.left):
        for right in in_range(atom.right):
            for ch_l in char_options(left):
                for ch_r in char_options(right):
                    if ch_l == ch_r:
                        continue
                    yield _merge_scenarios(
                        [_spec_scenario(left, ch_l), _spec_scenario(right, ch_r)]
                    )


def lower_char_constraints(
    tree: Optional[BoolTree], shapes: dict[str, Shape], alphabet: Alphabet
) -> Iterator[Scenario]:
    """Enumerate scenarios discharging the character-equality tree.

    Truth values are assigned per leaf occurrence in
    :func:`satisfying_vectors` order, and each assignment expands into
    the cross product of its leaves' landing/guess choices; a missing
    tree yields the one empty scenario.
    """
    leaves = tree_leaves(tree) if tree is not None else []
    for values in satisfying_vectors(tree):
        per_leaf = []
        for leaf, value in zip(leaves, values):
            atom = leaf.atom
            assert isinstance(atom, CharAtom)
            per_leaf.append(
                list(_char_leaf_scenarios(atom, value, shapes, alphabet))
            )
        for combo in iter_product(*per_leaf):
            yield _merge_scenarios(combo)


def lower_disequalities(
    diseqs: Sequence[Disequality],
    shapes: dict[str, Shape],
    alphabet: Alphabet,
) -> Iterator[Scenario]:
    """Enumerate scenarios discharging every string disequality.

    Each disequality independently picks one witness: either the two
    lengths differ (a lowered linear disjunction) or a shared fresh
    position holds distinct characters, both in range.  Fresh position
    names are internal (not legal identifiers) so they can never collide
    with declared integer variables.
    """

    def alternatives(idx: int, diseq: Disequality) -> Iterator[Scenario]:
        yield Scenario(
            (), (), (), (), (_length_differs(diseq.left, diseq.right, shapes),), (), ()
        )
        position = f"%d{idx}"
        atom = CharAtom(CharPos(diseq.left, position), CharPos(diseq.right, position))
        for scenario in _char_leaf_scenarios(atom, False, shapes, alphabet):
            if scenario.zeros or scenario.past_ends:
                continue  # the char-difference witness needs both in range
            yield scenario

    per_diseq = [list(alternatives(i, d)) for i, d in enumerate(diseqs)]
    for combo in iter_product(*per_diseq):
        yield _merge_scenarios(combo)


# ---------------------------------------------------------------------------
# Index-of lowering


def _kmp_delta(needle: str, alphabet: Alphabet) -> list[dict[str, int]]:
    """Deterministic match automaton: state = length of matched prefix."""
    p = len(needle)
    fail = [0] * (p + 1)
    k = 0
    for i in range(1, p):
        while k and needle[i] != needle[k]:
            k = fail[k]
        if needle[i] == needle[k]:
            k += 1
        fail[i + 1] = k
    delta: list[dict[str, int]] = []
    for q in range(p + 1):
        row: dict[str, int] = {}
        for ch in alphabet:
            k = q if q < p else fail[q]
            while k and needle[k] != ch:
                k = fail[k]
            if needle[k] == ch:
                k += 1
            row[ch] = k
        delta.append(row)
    return delta


def _run_literal(
    delta: list[dict[str, int]], p: int, entry: int, text: str
) -> tuple[int, Optional[int]]:
    """Run the match automaton over a literal; (exit, first completion pos)."""
    q = entry
    first: Optional[int] = None
    for i, ch in enumerate(text):
        q = delta[q][ch]
        if q == p and first is None:
            first = i + 1
    return q, first


def _occurrence_positions(needle: str, hay: str) -> list[int]:
    out = []
    start = 0
    while True:
        idx = hay.find(needle, start)
        if idx < 0:
            return out
        out.append(idx + 1)
        start = idx + 1


def _indexof_var_scenarios(
    atom: IndexOfAtom, shapes: dict[str, Shape], alphabet: Alphabet
) -> Iterator[Scenario]:
    assert isinstance(atom.haystack, Var)
    shape = shapes[atom.haystack.name]
    needle = atom.needle
    p = len(needle)

    # Layout zones, in order: ("lit", text) and ("piece", node, slot index).
    zones: list[tuple] = []
    for i, lit in enumerate(shape.literals):
        zones.append(("lit", lit, i))
        if i < len(shape.slots):
            zones.append(("piece", shape.slots[i], i))

    def zone_link(
        z: int, inner: Union[int, None], char_idx: int, term_slot: Optional[int]
    ) -> LinkEq:
        """value(result) + char_idx == position of the char in the layout."""
        kind = zones[z][0]
        slot_idx = zones[z][2]
        nodes = tuple(shape.slots[:slot_idx])
        lit_upto = slot_idx + (1 if kind == "piece" else 0)
        const = sum(len(shape.literals[j]) for j in range(lit_upto))
        if kind == "lit":
            assert inner is not None
            return LinkEq(atom.result, char_idx, None, const + inner, nodes)
        return LinkEq(atom.result, char_idx, term_slot, const, nodes)

    # Every assignment of the needle's characters to zones.  Inconsistent
    # assignments are harmless — their linking equations cannot all hold —
    # so only static character mismatches are filtered here.
    def char_placements(char_idx: int) -> list[tuple]:
        ch = needle[char_idx]
        out: list[tuple] = []
        for z, zone in enumerate(zones):
            if zone[0] == "lit":
                for k in range(1, len(zone[1]) + 1):
                    if zone[1][k - 1] == ch:
                        out.append((z, k))
            else:
                out.append((z, None))
        return out

    for placement in iter_product(*(char_placements(i) for i in range(p))):
        if any(placement[i][0] > placement[i + 1][0] for i in range(p - 1)):
            continue  # later needle characters cannot land in earlier zones
        terms: list[tuple[NodeId, str]] = []
        links: list[LinkEq] = []
        for i, (z, inner) in enumerate(placement):
            if zones[z][0] == "lit":
                links.append(zone_link(z, inner, i, None))
            else:
                term_slot = len(terms)
                terms.append((zones[z][1], needle[i]))
                links.append(zone_link(z, None, i, term_slot))
        base = Scenario(tuple(terms), tuple(links), (), (), (), (), ())
        if not atom.first:
            yield base
            continue

        # First occurrence: everything before the match's final character
        # must be completion-free.  Literal zones are checked statically
        # once the match-automaton state entering them is fixed; piece
        # zones contribute runtime trackers, and their exit states are
        # enumerated so the chain stays statically known.
        landing_z, landing_inner = placement[p - 1]
        delta = _kmp_delta(needle, alphabet)

        def chains(
            z: int, entry: int, comps: list, pieces: list
        ) -> Iterator[tuple[list, list]]:
            if z == landing_z:
                if zones[z][0] == "lit":
                    _, first = _run_literal(delta, p, entry, zones[z][1])
                    if first == landing_inner:
                        yield comps, pieces
                else:
                    comp = (zones[z][1], needle, entry)
                    yield (
                        comps + [comp],
                        pieces + [MonitorPiece(len(comps), None, len(terms) - 1)],
                    )
                return
            if zones[z][0] == "lit":
                nxt, first = _run_literal(delta, p, entry, zones[z][1])
                if first is None:
                    yield from chains(z + 1, nxt, comps, pieces)
                return
            comp = (zones[z][1], needle, entry)
            for exit_state in range(p + 1):
                yield from chains(
                    z + 1,
                    exit_state,
                    comps + [comp],
                    pieces + [MonitorPiece(len(comps), exit_state, None)],
                )

        for comps, pieces in chains(0, 0, [], []):
            yield Scenario(
                tuple(terms),
                tuple(links),
                (),
                (),
                (),
                tuple(comps),
                (Monitor(tuple(pieces)),),
            )


def lower_indexof(
    atoms: Sequence[IndexOfAtom], shapes: dict[str, Shape], alphabet: Alphabet
) -> Iterator[Scenario]:
    """Enumerate scenarios discharging every index-of binding.

    An anywhere binding becomes one character term per needle letter at
    consecutive positions; a first-occurrence binding additionally
    requires the prefix before the match to be occurrence-free, tracked
    per piece zone.  Constant haystacks resolve statically.
    """

    def one(atom: IndexOfAtom) -> Iterator[Scenario]:
        if isinstance(atom.haystack, Lit):
            positions = _occurrence_positions(atom.needle, atom.haystack.text)
            if atom.first:
                positions = positions[:1]
            for pos in positions:
                yield Scenario(
                    (), (LinkEq(atom.result, 0, None, pos, ()),), (), (), (), (), ()
                )
            return
        yield from _indexof_var_scenarios(atom, shapes, alphabet)

    per_atom = [list(one(a)) for a in atoms]
    for combo in iter_product(*per_atom):
        yield _merge_scenarios(combo)


def enumerate_scenarios(
    problem: Problem, shapes: dict[str, Shape]
) -> Iterator[Scenario]:
    """The full scenario stream: chars × disequalities × index-of."""
    for chars in lower_char_constraints(problem.chars, shapes, problem.alphabet):
        for diseq in lower_disequalities(
            problem.disequalities, shapes, problem.alphabet
        ):
            for idx in lower_indexof(problem.indexofs, shapes, problem.alphabet):
                yield _merge_scenarios([chars, diseq, idx])


# ---------------------------------------------------------------------------
# The lowering, checked against the reference


def lowered(problem: Problem) -> tuple[list[Scenario], Optional[BoolTree]]:
    """The package's scenarios and lowered integer tree, checked by the reference."""
    folded, graph = _checked_fold(problem)
    shapes = split_concat(folded, graph)
    scenarios = list(extensions.enumerate_scenarios(folded, shapes))
    assert scenarios == list(enumerate_scenarios(folded, shapes))
    tree = extensions.lower_integer_terms(folded.integers, shapes)
    assert tree == lower_integer_terms(folded.integers, shapes)
    return scenarios, tree


def test_seeded_problems_lower_as_the_reference_does(extension_problems):
    names = [field.name for field in fields(Scenario)]
    used = set()
    for problem in extension_problems:
        scenarios, tree = lowered(problem)
        used.update(name for s in scenarios for name in names if getattr(s, name))
        if tree is not None:
            used.add("int_tree")
    # Every kind of obligation occurs somewhere.
    assert used == {*names, "int_tree"}


AB = Alphabet.of("ab")


def concat(lhs: str, *items: str) -> ConcatEq:
    """``lhs = items``; quoted items are literals, the rest variables."""
    return ConcatEq(
        lhs, tuple(Lit(i[1:-1]) if i[0] == '"' else Var(i) for i in items)
    )


def char(left: CharPos | CharConst, right: CharPos | CharConst) -> Leaf:
    return Leaf(CharAtom(left, right))


def test_indexof_on_a_constant_haystack():
    problem = Problem(
        alphabet=AB,
        str_vars=("x",),
        int_vars=("u", "v"),
        indexofs=(
            IndexOfAtom("u", "ab", Lit("abab"), first=False),
            IndexOfAtom("v", "ab", Lit("abab"), first=True),
        ),
    )
    scenarios, _tree = lowered(problem)
    first = LinkEq("v", 0, None, 1, ())
    assert [s.links for s in scenarios] == [
        (LinkEq("u", 0, None, 1, ()), first),
        (LinkEq("u", 0, None, 3, ()), first),
    ]


def test_first_occurrence_landing_in_a_literal():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        int_vars=("u", "v"),
        relations=(concat("y", "x", '"bb"', "x", '"aba"', "x"),),
        indexofs=(
            IndexOfAtom("u", "ab", Var("y"), first=True),
            IndexOfAtom("v", "ba", Var("y"), first=True),
        ),
    )
    scenarios, _tree = lowered(problem)
    # Matches end inside a literal (no piece holds the landing), inside the
    # first piece, and inside a later piece.  Entering "aba" after a "b"
    # completes "ba" on its first letter, so no match of "ba" may end on
    # its last letter then.
    landings = [
        [mp.landing_term for mp in mon.pieces]
        for s in scenarios
        for mon in s.monitors
    ]
    assert any(terms == [None] for terms in landings)
    assert any(terms[-1] is not None for terms in landings)
    assert any(len(terms) > 1 for terms in landings)


def test_char_positions_landing_in_literals():
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y"),
        int_vars=("u", "v"),
        relations=(concat("y", '"ab"', "x", '"b"'),),
        chars=Or(
            (
                char(CharPos("y", "u"), CharConst("a")),
                Not(char(CharPos("y", 2), CharPos("y", "v"))),
            )
        ),
    )
    scenarios, _tree = lowered(problem)
    constants = [link.const for s in scenarios for link in s.links if link.term is None]
    assert {1, 2, 3} <= set(constants)
    assert any(s.zeros for s in scenarios) and any(s.past_ends for s in scenarios)


def test_disequality_between_concatenations_with_literals():
    length_and_count = ((1, LenTerm("y")), (-1, LenTerm("z")), (1, CountTerm("y", "a")))
    twice_x = LinearAtom(((1, LenTerm("z")), (-2, LenTerm("x"))), 1)
    problem = Problem(
        alphabet=AB,
        str_vars=("x", "y", "z"),
        relations=(concat("y", '"a"', "x"), concat("z", "x", '"b"', "x")),
        integers=And((Leaf(LinearAtom(length_and_count, 2)), Leaf(twice_x))),
        disequalities=(Disequality("y", "z"),),
    )
    scenarios, tree = lowered(problem)
    assert tree is not None
    assert scenarios[0].extra and not scenarios[0].links
    # Both sides of the char-difference witness can land in a literal.
    assert any(
        [link.term for link in s.links] == [None, None] for s in scenarios[1:]
    )
