"""The decision procedure for straight-line string constraints.

Solving runs in three stages:

1. *Membership normalization*: every satisfying truth assignment of the
   regular-constraint tree is enumerated; under one assignment each
   variable gets a single constraint automaton (intersection of the
   positive leaves and complements of the negative ones).

2. *Splitting*: each variable's value is cut into the pieces induced by
   the concatenation structure.  The piece boundaries inside a
   constraint automaton, and the intermediate transducer states at piece
   boundaries of a transducer application, are enumerated explicitly —
   this is the only exponential dial, and it is exponential in the
   problem's dimension, not its size.  Boundaries are placed one at a
   time; each piece is sliced (once per branch) and intersected onto
   its node as soon as both its boundaries are fixed, so a dead prefix
   prunes every tuple extending it.  A piece that needs no cut is the
   variable's automaton itself, and a variable that accepts every word
   attaches nothing.  Each placement costs one unit of the solve's work
   budget.

3. *Forest solving*: under fixed choices the remaining problem is a
   forest whose nodes are value pieces and whose edges are transducer
   segments; emptiness propagates bottom-up through pre-images, and a
   concrete model is read back top-down through shortest witnesses.

A string-only problem that is *sharing-free* (:func:`sharing_free`: no
variable occurs twice on the right-hand sides of its relations) needs
no cut, so stages 2 and 3 give way to forward ranges
(:mod:`slsolve.forward`): per branch, each variable's possible values
are computed as one automaton in graph order, an empty one refutes the
branch, and the model is read top-down from them.  Problems with
sharing, and every problem with extension constraints, take the three
stages.

String-only problems are decided completely within the solve's work
budget (``resource_limit``): an answer of ``sat`` or ``unsat`` is
definitive, and a search that spends the budget first answers
``resource-limit``.  Problems with integer, character, index-of, or
disequality constraints run the same three stages; only what follows
propagation differs: instead of extracting a model, each feasible forest
goes to :mod:`slsolve.extensions` for a counter walk over a bounded
integer space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from .automata import (
    EPSILON,
    Nfa,
    explore,
    nfa_bfs_copy,
    nfa_complement,
    nfa_concat,
    nfa_eps_eliminate,
    nfa_from_word,
    nfa_intersect,
    nfa_multi_slice,
    nfa_nonempty_shortest,
    nfa_reduce,
    nfa_universal,
    reachable,
)
from .constraints import (
    And,
    Assignment,
    ConcatEq,
    Leaf,
    Lit,
    Problem,
    RegAtom,
    RelAtom,
    TransducerEq,
    Var,
    evaluate,
    satisfying_vectors,
    tree_leaves,
)
from .straightline import DependencyGraph, check_straightline
from .transducer import (
    Transducer,
    post_image,
    pre_image_within,
    shortest_related,
    trimmed_transducer,
)

#: A piece of some variable's value: (variable name, piece index).
NodeId = tuple[str, int]

#: One choice point of the splitting stage: its boundary options, its
#: first boundary, and its piece attacher, whose ``attach(j, prev, cut)``
#: (``cut`` None after the last piece) returns an undo callback, or None
#: if piece ``j`` dies (see ``_branch_forests``).
Choice = tuple[Callable[[], list], int, Callable]


@dataclass(frozen=True)
class Verdict:
    """Outcome of a solve call.

    ``status`` is one of ``"sat"``, ``"unsat"``, ``"unsat-within-bounds"``
    (a refutation that only covers integer values up to ``int_bound``)
    or ``"resource-limit"``.  ``model`` is present exactly when the
    status is ``"sat"``.
    """

    status: str
    model: Optional[Assignment] = None
    int_bound: Optional[int] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


class BudgetExhausted(Exception):
    """A charge needed more of the solve's budget than was left."""


class Budget:
    """A mutable work meter shared by everything one solve call does.

    The one statement of what a solve's ``resource_limit`` meters.  One
    unit per cut or boundary placement (``placements`` counts these);
    one per walk state a bounded walk newly finds, and one per
    combination of free integers its acceptance check tries (when no
    leaf reads a free integer, every combination the enumeration would
    try, at once); each range product of the forward-range path its
    state count, once built; one per product state that reading a model
    through a transducer visits, on either path
    (:func:`~slsolve.transducer.shortest_related`).  Not metered yet,
    so a solve can take long without spending the budget: membership
    normalization (complements included), the cut path's forward ranges
    (``_var_ranges``), segment building, the boundary filters
    (``_boundary_filter``; past ``_FILTER_STATE_CAP`` states a filter is
    abandoned and its boundaries are placed blind), propagation,
    scenario lowering, and scenarios that
    :func:`slsolve.extensions.refuted` skips without a walk.  A charge
    needing more than is left leaves ``remaining`` at -1 and raises
    :class:`BudgetExhausted`.
    """

    def __init__(self, limit: int) -> None:
        self.remaining = limit
        self.placements = 0

    def charge(self, amount: int = 1) -> None:
        if amount > self.remaining:
            self.remaining = -1
            raise BudgetExhausted
        self.remaining -= amount

    def place(self) -> None:
        """Count and charge one cut or boundary placement."""
        self.placements += 1
        self.charge()


@dataclass(frozen=True)
class Shape:
    """How a variable's value decomposes into literals and pieces.

    ``literals`` has one more entry than ``slots``; the value reads
    ``literals[0] + piece(slots[0]) + literals[1] + ...``.  Slots refer
    to *primary* nodes — pieces of source variables or of transducer
    images — so a concatenation-defined variable shares its pieces with
    the variables it is built from rather than owning copies.
    """

    literals: tuple[str, ...]
    slots: tuple[NodeId, ...]


@dataclass
class AcForest:
    """One fully-split branch: piece automata plus transducer segments.

    ``nfas`` holds each node's constraint automaton (already the
    intersection of every piece constraint that lands on the node).
    ``children`` maps a node to the image pieces that depend on it, each
    through one transducer segment; a node has at most one parent, and
    parents always belong to strictly earlier variables, so the edges
    form a forest rooted at parentless pieces.
    """

    order: tuple[NodeId, ...]
    nfas: dict[NodeId, Nfa]
    children: dict[NodeId, list[tuple[NodeId, Transducer]]]
    parent: dict[NodeId, tuple[NodeId, Transducer]]


def fold_constant_relations(problem: Problem) -> Problem:
    """Rewrite variable-free concatenations as regular constraints.

    ``x = "ab"`` pins ``x`` to a one-word language; treating it as a
    membership constraint (and ``x`` as a source variable) keeps every
    remaining equation genuinely relational.  The parser keeps such
    equations as written; :func:`solve` folds them (after checking the
    problem as given), so a file and the same problem built through the
    API get the same answer.
    """
    constant = [
        rel
        for rel in problem.relations
        if isinstance(rel, ConcatEq)
        and not any(isinstance(item, Var) for item in rel.items)
    ]
    if not constant:
        return problem
    keep = tuple(rel for rel in problem.relations if rel not in constant)
    extra = [
        Leaf(
            RegAtom(
                rel.lhs,
                nfa_from_word(
                    "".join(item.text for item in rel.items if isinstance(item, Lit)),
                    problem.alphabet,
                ),
            )
        )
        for rel in constant
    ]
    parts = ([problem.regular] if problem.regular is not None else []) + extra
    regular = parts[0] if len(parts) == 1 else And(tuple(parts))
    return replace(problem, relations=keep, regular=regular)


# ---------------------------------------------------------------------------
# Stage 1: membership normalization


def normalize_regular(
    problem: Problem, universal: Optional[Nfa] = None
) -> Iterator[tuple[tuple[bool, ...], dict[str, Nfa]]]:
    """Yield (leaf truth vector, per-variable automaton) per branch.

    Vectors come in :func:`slsolve.constraints.satisfying_vectors`
    order.  Under one vector each variable's automaton is the
    intersection of its positively assigned leaves with the complements
    of its negatively assigned ones (the full language when a variable
    is unconstrained).  Complements are built lazily, once per leaf, so
    branches that never falsify a leaf never pay for determinization.
    Vectors that agree on a variable's leaves share its automaton: each
    product of a prefix of those leaves, and each reduction, is built
    once per call, so yielded automata may be the same objects across
    branches.

    Each automaton is reduced (:func:`slsolve.automata.nfa_reduce`)
    before it is yielded: cut enumeration guesses one state per cut,
    and any automaton of the language will do, so fewer states mean
    fewer cuts.  Two kinds are yielded as built.  The universal
    automaton has one state already.  A transducer image's automaton
    gets its cut states from the boundary filter, not from enumeration,
    and it feeds the pre-images of propagation, which grow when it is
    reduced: on ``ex_mxss1`` the first pre-image has 84 states instead
    of 52.  Every yielded automaton is a product, a trimmed copy of a
    first leaf (:func:`slsolve.automata.nfa_bfs_copy`, the machine its
    product with the universal automaton would be, numbering included),
    a reduction, or ``universal``, the solve's one universal automaton
    (built here when not given); so none has epsilon arcs and each is
    trimmed.  The split stage relies on that: a cut-free piece is the
    automaton itself (``_pieces_for``), and a variable whose automaton
    is the one-state universal one attaches nothing.
    """
    tree = problem.regular
    leaves = tree_leaves(tree) if tree is not None else []
    complements: dict[int, Nfa] = {}
    images = {rel.lhs for rel in problem.relations if isinstance(rel, TransducerEq)}
    if universal is None:
        universal = nfa_universal(problem.alphabet)
    # A key is the (leaf index, value) prefix of one variable's leaves;
    # the empty key is the universal automaton, shared by every variable.
    products: dict[tuple, Nfa] = {(): universal}
    reduced: dict[tuple, Nfa] = {}

    for values in satisfying_vectors(tree):
        keys: dict[str, tuple] = dict.fromkeys(problem.str_vars, ())
        for idx, (leaf, value) in enumerate(zip(leaves, values)):
            atom = leaf.atom
            assert isinstance(atom, RegAtom)
            prev = keys[atom.var]
            key = keys[atom.var] = prev + ((idx, value),)
            if key in products:
                continue
            if value:
                factor = atom.nfa
            else:
                if idx not in complements:
                    complements[idx] = nfa_complement(atom.nfa)
                factor = complements[idx]
            if prev:
                products[key] = nfa_intersect(products[prev], factor)
            else:
                products[key] = nfa_bfs_copy(factor)
        var_nfas: dict[str, Nfa] = {}
        for var, key in keys.items():
            if not key or var in images:
                var_nfas[var] = products[key]
            else:
                if key not in reduced:
                    reduced[key] = nfa_reduce(products[key])
                var_nfas[var] = reduced[key]
        yield values, var_nfas


# ---------------------------------------------------------------------------
# Stage 2: shapes and splitting


def split_concat(graph: DependencyGraph) -> dict[str, Shape]:
    """The piece decomposition of every variable.

    Source variables own a single piece; transducer images own one piece
    per piece of their argument; concatenations splice the shapes of
    their items, merging adjacent literals.  The resulting slot lists
    identify each piece of a defined variable with the piece of the
    primary variable it coincides with.
    """
    shapes: dict[str, Shape] = {}
    for var in graph.order:
        rel = graph.defining.get(var)
        if rel is None:
            shapes[var] = Shape(("", ""), ((var, 0),))
        elif isinstance(rel, TransducerEq):
            m = len(shapes[rel.arg].slots)
            shapes[var] = Shape(("",) * (m + 1), tuple((var, k) for k in range(m)))
        else:
            literals = [""]
            slots: list[NodeId] = []
            for item in rel.items:
                if isinstance(item, Lit):
                    literals[-1] += item.text
                else:
                    sub = shapes[item.name]
                    literals[-1] += sub.literals[0]
                    for k, slot in enumerate(sub.slots):
                        slots.append(slot)
                        literals.append(sub.literals[k + 1])
            shapes[var] = Shape(tuple(literals), tuple(slots))
    return shapes


def primary_nodes(
    graph: DependencyGraph, shapes: dict[str, Shape]
) -> tuple[NodeId, ...]:
    """All forest nodes, grouped by owner in straight-line order."""
    out: list[NodeId] = []
    for var in graph.order:
        rel = graph.defining.get(var)
        if rel is None or isinstance(rel, TransducerEq):
            out.extend((var, k) for k in range(len(shapes[var].slots)))
    return tuple(out)


def _pieces_for(
    nfa: Nfa, literal: str, start: int, finals: frozenset[int]
) -> Optional[Nfa]:
    """The automaton of one piece of a split variable, or None if empty.

    The piece runs from ``start`` (the previous cut, or the initial
    state), past the literal gap ``literal``, which is consumed inside
    the slice as several entry states, into ``finals``.  ``nfa`` must be
    epsilon-free and trimmed, as every branch automaton is.  A cut-free
    piece, from the initial state past no literal into all of the
    finals, is the machine itself: it is returned as it is, or None when
    it has no finals.  Any other piece is sliced, trimmed in one
    construction.
    """
    if not literal and start == nfa.initial and finals == nfa.finals:
        return nfa if finals else None
    starts = nfa.read(frozenset({start}), literal)
    if not starts or not finals:
        return None
    piece = nfa_multi_slice(nfa, starts, finals)
    return piece if piece.finals else None


def _segment_machine(
    t: Transducer,
    lit_in: str,
    from_state: int,
    to_states: frozenset[int],
    post_lit: str,
) -> Transducer:
    """The transducer segment relating one argument piece to one image piece.

    Behaves like ``t`` run from ``from_state`` into ``to_states``,
    except that the literal ``lit_in`` is consumed invisibly before the
    piece input begins and ``post_lit`` invisibly after it ends — their
    transduction output still appears, only the input side is dropped.
    ``t`` must be normalized; the result is normalized (and trimmed), so
    an empty relation shows up as an empty final-state set.

    The segment is searched directly over ``(row, state)`` pairs, from
    ``(0, from_state)``.  Rows ``0..pre-1`` track progress through
    ``lit_in``, row ``pre`` is the piece zone, and the rows after it
    track progress through ``post_lit``.  Output moves stay in their row,
    input moves are real only in the piece zone, and a literal letter
    read invisibly advances the row; those invisible moves are folded
    into per-state closures, so the result needs no epsilon pass.  The
    explored machine is trimmed by
    :func:`~slsolve.transducer.trimmed_transducer`, its states ranked by
    ``(row, state)``.
    """
    assert t.is_normalized
    n = t.n_states
    pre = len(lit_in)
    lits = lit_in + post_lit
    emitting, consuming = t.emitting, t.consuming
    accepting: set[int] = set()

    def successors(sid: int) -> list[tuple[tuple[str, str], int]]:
        """Arcs of ``sid``'s closure under invisible literal moves."""
        seen = {sid}
        stack = [sid]
        out: list[tuple[tuple[str, str], int]] = []
        while stack:
            u = stack.pop()
            row, q = divmod(u, n)
            base = u - q
            for c, rs in emitting[q].items():
                out.extend(((EPSILON, c), base + r) for r in rs)
            if row == pre:
                for c, rs in consuming[q].items():
                    out.extend(((c, EPSILON), base + r) for r in rs)
            if row < len(lits):
                for r in consuming[q].get(lits[row], ()):
                    v = base + n + r
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            elif q in to_states:
                accepting.add(sid)
        return out

    order, arcs = explore(from_state, successors)
    rank = [0] * len(order)
    for k, i in enumerate(sorted(range(len(order)), key=order.__getitem__)):
        rank[i] = k
    return trimmed_transducer(
        t.alphabet,
        len(order),
        [(rank[i], ins, outs, rank[j]) for i, (ins, outs), j in arcs],
        rank[0],
        frozenset(rank[i] for i, sid in enumerate(order) if sid in accepting),
    )


#: Every split transducer application is filtered (``_boundary_filter``);
#: a filter whose product states grow past this is abandoned, and only
#: then are the boundaries placed blind.
_FILTER_STATE_CAP = 400_000


def _range_step(
    problem: Problem,
    rel: RelAtom,
    var_nfa: Optional[Nfa],
    ranges: dict[str, Nfa],
    budget: Optional[Budget] = None,
) -> Nfa:
    """The forward range of ``rel``'s left-hand side, given its arguments'.

    For ``x = T(y)`` this is ``var_nfa ∩ T(ranges[y])``; for a
    concatenation, ``var_nfa`` intersected with the concatenation of its
    items (variables by their ranges).  A ``var_nfa`` of None constrains
    nothing, and the image is returned as built.  The result is not
    reduced.  With a ``budget``, each product built is charged its state
    count.
    """
    if isinstance(rel, TransducerEq):
        built = post_image(rel.transducer, ranges[rel.arg])
    else:
        parts = [
            ranges[item.name]
            if isinstance(item, Var)
            else nfa_from_word(item.text, problem.alphabet)
            for item in rel.items
        ]
        built = nfa_concat(parts or [nfa_from_word("", problem.alphabet)])
    if budget is not None:
        budget.charge(built.n_states)
    if var_nfa is None:
        return built
    cur = nfa_intersect(var_nfa, built)
    if budget is not None:
        budget.charge(cur.n_states)
    return cur


def _var_ranges(
    problem: Problem,
    graph: DependencyGraph,
    shapes: dict[str, Shape],
    var_nfas: dict[str, Nfa],
    universal: Nfa,
) -> dict[str, Nfa]:
    """The forward range of each unsplit transducer image, by variable.

    A range accepts every value its variable can take in a solution of
    this branch (usually more).  The images use their range as a node
    refinement, which is what lets propagation refute boundary choices
    early instead of deep in a pre-image chain; only the variables they
    depend on are computed.  A membership equal to ``universal`` is
    not intersected in, as the product would only copy the image.
    """
    images = [
        var
        for var in graph.order
        if isinstance(graph.defining.get(var), TransducerEq)
        and len(shapes[var].slots) == 1
    ]
    needed = reachable(images, lambda var: graph.uses.get(var, ()))

    ranges: dict[str, Nfa] = {}
    for var in graph.order:
        if var not in needed:
            continue
        rel = graph.defining.get(var)
        if rel is None:
            ranges[var] = var_nfas[var]
            continue
        within = None if var_nfas[var] == universal else var_nfas[var]
        ranges[var] = nfa_reduce(_range_step(problem, rel, within, ranges))
    return {var: ranges[var] for var in images}


def _boundary_filter(
    t: Transducer,
    a_img: Nfa,
    arg_shape: Shape,
    zone_langs: list[Nfa],
) -> Optional[list[set[tuple[int, int]]]]:
    """Joint boundary states that lie on some accepting run of a split.

    For ``y = T(x)`` with the argument split into ``m`` pieces, explores
    one product of states ``(p, q, s)``: a position ``p`` in the layout
    of the argument's :class:`Shape`, the state ``q`` of ``t``, and the
    state ``s`` of ``y``'s automaton ``a_img`` (driven by ``t``'s
    output).  The layout has one position per literal letter, the states
    of each zone's current language refinement (a literal's last letter
    leads straight to its zone's initial state), one boundary after each
    inner zone, and an end.  A zone's finals move silently to its
    boundary (the last zone's to the last literal, or to the end), and a
    boundary, which emits nothing, moves silently into the next literal.
    Each step consumes a layout letter, emits, or takes a silent move.
    Element ``j`` of the result is the set of ``(q, s)`` pairs observable
    at inner boundary ``j`` on at least one accepting run; cut choices
    outside these sets cannot possibly yield a solution.

    A sound filter only: zone languages are refinements known so far,
    so surviving pairs may still fail full propagation.  Returns None
    when the product states found exceed the state cap (caller falls
    back to blind enumeration).
    """
    assert t.is_normalized
    a_img = nfa_eps_eliminate(a_img)
    zones = [nfa_eps_eliminate(z) for z in zone_langs]
    m = len(arg_shape.slots)
    consuming = t.consuming

    # The layout, built back to front from the end (position 0): each
    # position's letter moves and silent moves.
    layout: list[tuple[dict[str, tuple[int, ...]], tuple[int, ...]]] = [({}, ())]
    boundary_at: dict[int, int] = {}
    entry = 0
    for j in reversed(range(m + 1)):
        if j < m - 1:
            boundary_at[len(layout)] = j
            layout.append(({}, (entry,)))
            entry = len(layout) - 1
        if j < m:
            zone, base = zones[j], len(layout)
            for r, moves in zone.arcs_by_symbol.items():
                shifted = {c: tuple(base + r2 for r2 in rs) for c, rs in moves.items()}
                layout.append((shifted, (entry,) if r in zone.finals else ()))
            entry = base + zone.initial
        for ch in reversed(arg_shape.literals[j]):
            layout.append(({ch: (entry,)}, ()))
            entry = len(layout) - 1

    def successors(state: tuple[int, int, int]) -> Iterator[tuple[None, tuple]]:
        p, q, s = state
        moves, after = layout[p]
        for ch, q2s in consuming[q].items():
            for p2 in moves.get(ch, ()):
                for q2 in q2s:
                    yield None, (p2, q2, s)
        if p not in boundary_at:
            image_arcs = a_img.arcs_by_symbol[s]
            for b, q2s in t.emitting[q].items():
                s2s = image_arcs.get(b, ())
                for q2 in q2s:
                    for s2 in s2s:
                        yield None, (p, q2, s2)
        for p2 in after:
            yield None, (p2, q, s)

    explored = explore(
        (entry, t.initial, a_img.initial), successors, cap=_FILTER_STATE_CAP
    )
    if explored is None:
        return None
    order, arcs = explored
    # Every explored state is reachable; keep those that reach acceptance.
    preds: list[list[int]] = [[] for _ in order]
    for src, _, dst in arcs:
        preds[dst].append(src)
    alive = reachable(
        (
            i
            for i, (p, q, s) in enumerate(order)
            if p == 0 and q in t.finals and s in a_img.finals
        ),
        preds.__getitem__,
    )

    out: list[set[tuple[int, int]]] = [set() for _ in range(m - 1)]
    for i in alive:
        p, q, s = order[i]
        if p in boundary_at:
            out[boundary_at[p]].add((q, s))
    return out


def _branch_forests(
    problem: Problem,
    graph: DependencyGraph,
    shapes: dict[str, Shape],
    var_nfas: dict[str, Nfa],
    seg_cache: dict[tuple[int, int, int, Optional[int]], Transducer],
    budget: Budget,
    universal: Nfa,
) -> Iterator[AcForest]:
    """Enumerate the cut-resolved forests of one membership branch.

    Choice points (variables whose automata need real cuts, transducer
    applications over split arguments) are explored depth-first; forced
    choices (boundary 0 throughout) are attached up front.  Cut-free
    pieces are attached as they are: the piece of a one-piece variable
    with no literal gap is its branch automaton itself
    (``_pieces_for``), so that is the node of a source variable unless
    another piece lands on it; and a variable whose automaton is the
    one-state universal one attaches nothing, as its pieces would only
    copy their nodes.  The node of an unsplit transducer image starts as
    its forward range (``_var_ranges``), and an empty range drops the
    branch.  A choice point's boundaries — automaton or transducer
    states — are placed one at a time, states ascending, so tuples come
    out in lexicographic order.  The boundaries of every choice point
    are placed from one stack; a choice point's options are built when
    its first boundary is entered, once every earlier one is chosen, and
    a forest is yielded each time the last choice point closes.  Piece
    ``j`` depends only on boundaries ``j - 1`` and ``j``, so it is
    attached as soon as boundary ``j`` is fixed (sliced once per branch
    through a memo, and intersected onto its node through a memo keyed
    by both automata; segments through ``seg_cache``) and detached on
    backtrack; an empty piece, segment relation or node intersection
    drops every tuple extending the prefix.  Every split application
    places only the boundary pairs that its boundary filter
    (``_boundary_filter``) leaves alive, unless the filter passes
    ``_FILTER_STATE_CAP`` and is abandoned; then its boundaries are
    placed blind.  Each placement charges ``budget`` one unit; the
    placement that finds it spent raises :class:`BudgetExhausted` out of
    the enumeration.  ``universal`` is the solve's one universal
    automaton.
    """
    primary = primary_nodes(graph, shapes)
    nodes: dict[NodeId, Nfa] = {}
    edges: list[tuple[NodeId, NodeId, Transducer]] = []
    slices: dict[tuple[str, str, int, Optional[int]], Optional[Nfa]] = {}
    meets: dict[tuple[Nfa, Nfa], Nfa] = {}

    def var_choice(var: str) -> Choice:
        """How to place a variable's cuts and attach its pieces."""
        nfa = var_nfas[var]
        shape = shapes[var]
        lits = shape.literals
        m = len(shape.slots)
        last = frozenset(
            q
            for q in range(nfa.n_states)
            if nfa.read(frozenset({q}), lits[-1]) & nfa.finals
        )

        def attach(j: int, prev: int, cut: Optional[int]):
            key = (var, lits[j], prev, cut)
            if key not in slices:
                finals = last if cut is None else frozenset({cut})
                slices[key] = _pieces_for(nfa, lits[j], prev, finals)
            piece = slices[key]
            if piece is None:
                return None
            node = shape.slots[j]
            old = nodes.get(node)
            if old is None:
                new = piece
            else:
                new = meets.get((old, piece))
                if new is None:
                    new = meets[old, piece] = nfa_intersect(old, piece)
            if not new.finals:
                return None
            nodes[node] = new
            if old is None:
                return lambda: nodes.pop(node)
            return lambda: nodes.update({node: old})

        def options() -> list[Iterable[int]]:
            pairs = filters.get(var)
            if pairs is None:
                return [range(nfa.n_states)] * (m - 1)
            return [sorted({c for _d, c in pairs[j]}) for j in range(m - 1)]

        return options, nfa.initial, attach

    def rel_choice(idx: int) -> Choice:
        """How to place an application's boundaries and attach its segments."""
        rel = problem.relations[idx]
        assert isinstance(rel, TransducerEq)
        t = rel.transducer.normalized
        lits = shapes[rel.arg].literals
        slots = shapes[rel.arg].slots
        m = len(slots)

        def attach(k: int, prev: int, d: Optional[int]):
            key = (idx, k, prev, d)
            seg = seg_cache.get(key)
            if seg is None:
                to_states = t.finals if d is None else frozenset({d})
                post_lit = lits[-1] if d is None else ""
                seg = _segment_machine(t, lits[k], prev, to_states, post_lit)
                seg_cache[key] = seg
            if not seg.finals:
                return None
            edges.append((slots[k], (rel.lhs, k), seg))
            return edges.pop

        def options() -> list[Iterable[int]]:
            pairs = filters.get(rel.lhs)
            if pairs is None:
                return [range(t.n_states)] * (m - 1)
            cuts = chosen[rel.lhs]
            return [
                sorted({d for d, c in pairs[k] if c == cuts[k]}) for k in range(m - 1)
            ]

        return options, t.initial, attach

    def forced(m: int, choice: Choice) -> bool:
        """Attach boundary 0 throughout for good; False if a piece dies."""
        _options, prev, attach = choice
        for j in range(m):
            cut = 0 if j < m - 1 else None
            if attach(j, prev, cut) is None:
                return False
            prev = cut
        return True

    # Pin unsplit transducer images to their forward range.
    for var, rng in _var_ranges(problem, graph, shapes, var_nfas, universal).items():
        if not rng.finals:
            return
        nodes[(var, 0)] = rng

    # Forced choices next; any emptiness kills the whole branch.  A level
    # is a choice point with the variable whose cuts it places (None for
    # an application); its options are built on entry, once the choices
    # of earlier levels are known.
    chosen: dict[str, tuple[int, ...]] = {}
    levels: list[tuple[Optional[str], Choice]] = []
    # Keyed by the image variable, which has exactly one defining relation.
    filters: dict[str, list[set[tuple[int, int]]]] = {}
    for var in graph.order:
        m = len(shapes[var].slots)
        if m >= 2 and var_nfas[var].n_states > 1:
            levels.append((var, var_choice(var)))
            continue
        chosen[var] = (0,) * (m - 1)
        if var_nfas[var] != universal and not forced(m, var_choice(var)):
            return

    for rel in problem.relations:
        if not isinstance(rel, TransducerEq):
            continue
        arg_shape = shapes[rel.arg]
        m = len(arg_shape.slots)
        if m < 2:
            continue
        zone_langs = [nodes.get(arg_shape.slots[j], universal) for j in range(m)]
        pairs = _boundary_filter(
            rel.transducer.normalized, var_nfas[rel.lhs], arg_shape, zone_langs
        )
        if pairs is None:
            continue
        if any(not v for v in pairs):
            return
        filters[rel.lhs] = pairs

    for idx, rel in enumerate(problem.relations):
        if not isinstance(rel, TransducerEq):
            continue
        m = len(shapes[rel.arg].slots)
        if m >= 2 and rel.transducer.normalized.n_states > 1:
            levels.append((None, rel_choice(idx)))
        elif not forced(m, rel_choice(idx)):
            return

    def assemble() -> AcForest:
        children: dict[NodeId, list[tuple[NodeId, Transducer]]] = {
            n: [] for n in primary
        }
        parent: dict[NodeId, tuple[NodeId, Transducer]] = {}
        for pn, cn, machine in edges:
            children[pn].append((cn, machine))
            parent[cn] = (pn, machine)
        nfas = {n: nodes.get(n, universal) for n in primary}
        return AcForest(order=primary, nfas=nfas, children=children, parent=parent)

    # Depth-first over every boundary of every level, from one stack.  A
    # frame is one boundary's candidates, its level, its index in that
    # level and the level's options, built when the level's first
    # boundary is entered; the last boundary, None, closes the level.
    # ``attached`` holds the candidate each frame below the top attached,
    # with its undo.
    if not levels:
        yield assemble()
        return
    exhausted = object()
    attached: list[tuple[Optional[int], Callable[[], object]]] = []
    options = [*levels[0][1][0](), (None,)]
    stack = [(iter(options[0]), 0, 0, options)]
    while stack:
        candidates, level, j, options = stack[-1]
        cut = next(candidates, exhausted)
        if cut is exhausted:
            stack.pop()
            if attached:
                attached.pop()[1]()
            continue
        var, (_options, first, attach) = levels[level]
        if cut is not None:
            budget.place()
        undo = attach(j, attached[-1][0] if j else first, cut)
        if undo is None:
            continue
        if cut is not None:
            attached.append((cut, undo))
            stack.append((iter(options[j + 1]), level, j + 1, options))
            continue
        if var is not None:
            chosen[var] = tuple(c for c, _undo in attached[len(attached) - j :])
        if level + 1 == len(levels):
            yield assemble()
            undo()
            continue
        attached.append((None, undo))
        options = [*levels[level + 1][1][0](), (None,)]
        stack.append((iter(options[0]), level + 1, 0, options))


# ---------------------------------------------------------------------------
# Stage 3: forest propagation and witness extraction


def _propagate(forest: AcForest) -> Optional[dict[NodeId, Nfa]]:
    """Shrink each node's language to values extendable through all edges.

    Processes nodes in reverse straight-line order (children before
    parents), intersecting each parent with the pre-image of each
    child's feasible language through the connecting segment.  Returns
    None if any node empties, otherwise the feasible language per node.
    """
    feasible: dict[NodeId, Nfa] = {}
    for node in reversed(forest.order):
        cur = forest.nfas[node]
        for child, machine in forest.children[node]:
            cur = nfa_reduce(pre_image_within(machine, feasible[child], cur))
            if not cur.finals:
                return None
        if not forest.children[node]:
            cur = nfa_reduce(cur)
            if not cur.finals:
                return None
        feasible[node] = cur
    return feasible


def _extract(
    forest: AcForest, feasible: dict[NodeId, Nfa], budget: Budget
) -> dict[NodeId, str]:
    """Read one concrete value per node out of a feasible forest.

    Parentless nodes take the shortest word of their language.  A
    transducer-image node takes the shortest word of its language that
    its segment relates to the parent's chosen value, found by
    :func:`~slsolve.transducer.shortest_related`, a search over word
    positions and states that builds no automaton; each product state it
    visits charges ``budget`` one unit.  Propagation guarantees these
    sets are non-empty.
    """
    value: dict[NodeId, str] = {}
    for node in forest.order:
        if node in forest.parent:
            pnode, machine = forest.parent[node]
            word = shortest_related(
                machine, value[pnode], feasible[node], True, budget.charge
            )
        else:
            word = nfa_nonempty_shortest(feasible[node])
        if word is None:
            raise RuntimeError(
                "internal error: extraction failed on a non-empty forest"
            )
        value[node] = word
    return value


def _join_model(
    problem: Problem, shapes: dict[str, Shape], value: dict[NodeId, str]
) -> Assignment:
    model: Assignment = {}
    for var in problem.str_vars:
        shape = shapes[var]
        parts = [shape.literals[0]]
        for j, slot in enumerate(shape.slots):
            parts.append(value[slot])
            parts.append(shape.literals[j + 1])
        model[var] = "".join(parts)
    return model


def _checked_fold(problem: Problem) -> tuple[Problem, DependencyGraph]:
    """Fold constant relations, straight-line-checking before and after.

    The original is checked first so that input outside the fragment is
    refused even when folding would hide the fault (a second definition
    ``x = "a"`` folds into a membership); the folded problem is checked
    again only when folding changed it.
    """
    graph = check_straightline(problem)
    folded = fold_constant_relations(problem)
    if folded is not problem:
        graph = check_straightline(folded)
    return folded, graph


def _verified(problem: Problem, model: Assignment) -> Verdict:
    """``sat`` with ``model``, once it is checked against ``problem``."""
    if not evaluate(problem, model):
        raise RuntimeError("internal error: model failed verification")
    return Verdict("sat", model=model)


def sharing_free(problem: Problem) -> bool:
    """Whether every variable occurs at most once on the right-hand sides
    of all relations, counting repeats within one concatenation."""
    seen: set[str] = set()
    for rel in problem.relations:
        if isinstance(rel, TransducerEq):
            names = [rel.arg]
        else:
            names = [item.name for item in rel.items if isinstance(item, Var)]
        for name in names:
            if name in seen:
                return False
            seen.add(name)
    return True


def solve(
    problem: Problem,
    *,
    int_bound: Optional[int] = None,
    resource_limit: int = 2_000_000,
    stats: Optional[dict] = None,
) -> Verdict:
    """Decide a straight-line problem; produce a model when satisfiable.

    Raises :class:`slsolve.straightline.NotStraightLine` (or ValueError
    for ill-formed input, or a negative ``int_bound`` or
    ``resource_limit``) rather than guessing on problems outside the
    fragment.  For string-only problems ``sat`` and ``unsat`` are
    definitive.  When integer, character, index-of or disequality
    constraints are present the search is exhaustive only up to
    ``int_bound`` (a default is derived from the problem when None), so
    the negative answer weakens to ``unsat-within-bounds`` unless the
    bound provably covers all integers.  ``resource_limit`` is a work
    budget; :class:`Budget` states what it charges and what it does not
    meter yet.  A charge that needs more than is left spends the budget,
    and the answer is ``resource-limit``.

    A string-only problem that is sharing-free (:func:`sharing_free`)
    is decided by forward ranges (:class:`slsolve.forward.ForwardRanges`)
    branch by branch, with no cut, forest or propagation; its ``stats``
    count the ``ranges`` built, and zero forests and cut placements.
    Every other problem runs the three stages; only the step taken on a
    feasible forest differs.  A string-only solve extracts a model from
    the first one; an extension solve walks every scenario of each
    (:class:`slsolve.extensions.ScenarioWalks`) until one walk succeeds.

    Models returned are always verified against the original problem
    before being reported.  A ``stats`` dict, when supplied, is filled
    with deterministic search counters on every exit from the search:
    whatever the verdict, and also when the search raises.
    """
    if int_bound is not None and int_bound < 0:
        raise ValueError(f"int_bound must be at least 0, not {int_bound}")
    if resource_limit < 0:
        raise ValueError(
            f"resource_limit must be at least 0, not {resource_limit}"
        )
    folded, graph = _checked_fold(problem)
    shapes = split_concat(graph)
    seg_cache: dict[tuple[int, int, int, Optional[int]], Transducer] = {}
    budget = Budget(resource_limit)
    universal = nfa_universal(folded.alphabet)
    walker = None
    if folded.has_extensions:
        from .extensions import ScenarioWalks

        walker = ScenarioWalks(folded, shapes, int_bound, budget)
    bound = None if walker is None else walker.int_bound
    forward = None
    if walker is None and sharing_free(folded):
        from .forward import ForwardRanges

        forward = ForwardRanges(folded, graph, budget, universal)
    branches = forests = feasible_forests = 0
    try:
        for _values, var_nfas in normalize_regular(folded, universal):
            branches += 1
            if forward is not None:
                model = forward.model(var_nfas)
                if model is not None:
                    return _verified(problem, model)
                continue
            for forest in _branch_forests(
                folded, graph, shapes, var_nfas, seg_cache, budget, universal
            ):
                forests += 1
                feasible = _propagate(forest)
                if feasible is None:
                    continue
                feasible_forests += 1
                if walker is None:
                    model = _join_model(
                        folded, shapes, _extract(forest, feasible, budget)
                    )
                else:
                    model = walker.model(forest, feasible)
                if model is not None:
                    return _verified(problem, model)
        if walker is not None and walker.within:
            return Verdict("unsat-within-bounds", int_bound=bound)
        return Verdict("unsat")
    except BudgetExhausted:
        return Verdict("resource-limit", int_bound=bound)
    finally:
        if stats is not None:
            stats["membership-branches"] = branches
            stats["forests"] = forests
            stats["feasible-forests"] = feasible_forests
            stats["cut-placements"] = budget.placements
            if forward is not None:
                stats["ranges"] = forward.built
            if walker is not None:
                walker.note(stats)


# ---------------------------------------------------------------------------
# Static model-size bound


def max_model_bound(problem: Problem) -> int:
    """A length every satisfiable instance has a model within.

    Follows the cut path's extraction: bounds the automaton sizes a
    feasible forest can reach (piece intersections, segment pre-images)
    and converts them to word lengths through the shortest-witness rule
    (an automaton with *n* states accepts a word shorter than *n* if it
    accepts anything).  The result is usually loose but sound for the
    models the cut path extracts, which makes it usable as an
    enumeration cap.  Sharing-free string problems take their models
    from forward ranges instead (:mod:`slsolve.forward`), which this
    bound does not follow; ``tests/test_forward.py`` checks those models
    against it on every sharing-free problem of the seeded corpus and
    the pipelines.  Integer variables are not covered.
    """
    folded, graph = _checked_fold(problem)
    shapes = split_concat(graph)
    return _exact_bound(folded, graph, shapes)


def model_bound_exceeds(problem: Problem, cap: int) -> bool:
    """Whether ``max_model_bound(problem) > cap``, priced cheaply first.

    The bound's formula only sums and multiplies positive state counts,
    so it never shrinks when a count grows.  Taking each regular leaf's
    own size (never above the size of it or its complement) and one
    state per transducer (never above its normal form's) gives a lower
    bound without complementing or normalizing anything; only when that
    is within ``cap`` is the exact bound computed.
    """
    folded, graph = _checked_fold(problem)
    shapes = split_concat(graph)
    if _lower_bound(folded, graph, shapes) > cap:
        return True
    return _exact_bound(folded, graph, shapes) > cap


def _lower_bound(
    folded: Problem, graph: DependencyGraph, shapes: dict[str, Shape]
) -> int:
    """The model bound with every leaf at its own size and transducer at 1."""
    leaves = tree_leaves(folded.regular) if folded.regular is not None else []
    leaf_states = [(leaf.atom.var, leaf.atom.nfa.n_states) for leaf in leaves]
    rel_states = {
        idx: 1
        for idx, rel in enumerate(folded.relations)
        if isinstance(rel, TransducerEq)
    }
    return _bound_from_counts(folded, graph, shapes, leaf_states, rel_states)


def _exact_bound(
    folded: Problem, graph: DependencyGraph, shapes: dict[str, Shape]
) -> int:
    """The model bound from the automata the solver itself may build.

    A leaf that some satisfying vector falsifies may be replaced by its
    complement, so it counts at the larger of the two sizes; a
    transducer counts at the size of its normal form.
    """
    tree = folded.regular
    leaves = tree_leaves(tree) if tree is not None else []
    need_neg = [False] * len(leaves)
    for values in satisfying_vectors(tree):
        for i, val in enumerate(values):
            if not val:
                need_neg[i] = True

    leaf_states = []
    for i, leaf in enumerate(leaves):
        atom = leaf.atom
        assert isinstance(atom, RegAtom)
        states = atom.nfa.n_states
        if need_neg[i]:
            states = max(states, nfa_complement(atom.nfa).n_states)
        leaf_states.append((atom.var, states))
    rel_states = {
        idx: rel.transducer.normalized.n_states
        for idx, rel in enumerate(folded.relations)
        if isinstance(rel, TransducerEq)
    }
    return _bound_from_counts(folded, graph, shapes, leaf_states, rel_states)


def _bound_from_counts(
    folded: Problem,
    graph: DependencyGraph,
    shapes: dict[str, Shape],
    leaf_states: list[tuple[str, int]],
    rel_states: dict[int, int],
) -> int:
    """The model bound given a state count per regular leaf and transducer.

    ``leaf_states`` pairs each leaf's variable with its count;
    ``rel_states`` maps each transducer relation's index to its count.
    """
    base = dict.fromkeys(folded.str_vars, 1)
    for var, states in leaf_states:
        base[var] *= states

    # Every primary node starts at base + 1 for each variable whose
    # shape holds it (its owner among them), then takes its children's.
    f_bound: dict[NodeId, int] = {}
    for var in folded.str_vars:
        for slot in shapes[var].slots:
            f_bound[slot] = f_bound.get(slot, 1) * (base[var] + 1)

    rel_factor: dict[int, int] = {}
    child_edges: dict[NodeId, list[tuple[NodeId, int]]] = {}
    parent_edge: dict[NodeId, tuple[NodeId, int]] = {}
    for idx, rel in enumerate(folded.relations):
        if not isinstance(rel, TransducerEq):
            continue
        arg_shape = shapes[rel.arg]
        lit_len = sum(map(len, arg_shape.literals))
        rel_factor[idx] = rel_states[idx] * (lit_len + 1)
        for k, slot in enumerate(arg_shape.slots):
            child = (rel.lhs, k)
            child_edges.setdefault(slot, []).append((child, idx))
            parent_edge[child] = (slot, idx)

    primary = primary_nodes(graph, shapes)
    for node in reversed(primary):
        for child, idx in child_edges.get(node, ()):
            f_bound[node] *= rel_factor[idx] * f_bound[child]

    length: dict[NodeId, int] = {}
    for node in primary:
        if node in parent_edge:
            pnode, idx = parent_edge[node]
            length[node] = (length[pnode] + 1) * rel_factor[idx] * f_bound[node] - 1
        else:
            length[node] = f_bound[node] - 1

    best = 0
    for var in folded.str_vars:
        shape = shapes[var]
        total = sum(map(len, shape.literals))
        total += sum(map(length.__getitem__, shape.slots))
        best = max(best, total)
    return best
