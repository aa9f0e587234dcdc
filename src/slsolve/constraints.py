"""Problem representation: constraint atoms, boolean trees, and evaluation.

A problem is a conjunction of relational constraints (concatenations and
transducer applications), an optional boolean tree of regular-membership
literals, and the optional extension constraints: linear integer
inequalities over lengths/letter-counts/integer variables, character
equalities, index-of bindings, and string disequalities.

:func:`evaluate` is the ground-truth semantics; every solver verdict in
this package is ultimately checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Iterator, Optional, Sequence, Union

from .automata import Alphabet, Nfa, nfa_membership
from .transducer import Transducer, transducer_membership

# ---------------------------------------------------------------------------
# Relational constraints


@dataclass(frozen=True)
class Var:
    """A variable occurrence on a concatenation's right-hand side."""

    name: str


@dataclass(frozen=True)
class Lit:
    """A literal word occurrence on a concatenation's right-hand side."""

    text: str


ConcatItem = Union[Var, Lit]


@dataclass(frozen=True)
class ConcatEq:
    """``lhs = item1 . item2 . ...`` (items are variables and literals)."""

    lhs: str
    items: tuple[ConcatItem, ...]


@dataclass(frozen=True)
class TransducerEq:
    """``lhs = name(arg)`` where ``name`` denotes a rational relation."""

    lhs: str
    name: str
    transducer: Transducer
    arg: str


RelAtom = Union[ConcatEq, TransducerEq]


# ---------------------------------------------------------------------------
# Boolean trees (shared by the regular, integer, and character layers)


@dataclass(frozen=True)
class Leaf:
    atom: object


@dataclass(frozen=True)
class Not:
    child: "BoolTree"


@dataclass(frozen=True)
class And:
    children: tuple["BoolTree", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["BoolTree", ...]


BoolTree = Union[Leaf, Not, And, Or]


def tree_leaves(tree: BoolTree) -> list[Leaf]:
    """All leaves in left-to-right traversal order (duplicates kept)."""
    out: list[Leaf] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node)
        elif isinstance(node, Not):
            stack.append(node.child)
        else:
            stack.extend(reversed(node.children))
    return out


def tree_eval(
    tree: BoolTree, leaf_value: Callable[[object], Optional[bool]]
) -> Optional[bool]:
    """Evaluate ``tree`` in Kleene's three-valued logic.

    ``leaf_value`` may answer None for a leaf whose truth is unknown;
    ``and`` is false as soon as one child is, ``or`` true as soon as one
    child is, and otherwise an unknown child leaves the node unknown.
    Children after a deciding one are not evaluated.
    """
    if isinstance(tree, Leaf):
        return leaf_value(tree.atom)
    if isinstance(tree, Not):
        value = tree_eval(tree.child, leaf_value)
        return None if value is None else not value
    if isinstance(tree, (And, Or)):
        decides = isinstance(tree, Or)
        unknown = False
        for child in tree.children:
            value = tree_eval(child, leaf_value)
            if value is None:
                unknown = True
            elif bool(value) is decides:
                return decides
        return None if unknown else not decides
    raise TypeError(f"not a boolean tree node: {tree!r}")


def tree_eval_indexed(tree: BoolTree, values: Sequence[bool]) -> bool:
    """Evaluate with the i-th leaf (traversal order) forced to ``values[i]``.

    Leaf *occurrences* are what count: the same atom appearing twice is
    two independent positions.
    """
    counter = iter(range(len(values)))
    result = _eval_indexed(tree, values, counter)
    # All positions consumed exactly once.
    if next(counter, None) is not None:
        raise ValueError("value vector longer than the tree's leaf count")
    return result


def _eval_indexed(
    node: BoolTree, values: Sequence[bool], counter: Iterator[int]
) -> bool:
    """:func:`tree_eval_indexed` below ``node``, leaves numbered by ``counter``."""
    if isinstance(node, Leaf):
        return values[next(counter)]
    if isinstance(node, Not):
        return not _eval_indexed(node.child, values, counter)
    if isinstance(node, (And, Or)):
        # No short-circuiting: every leaf must consume its index.
        results = [_eval_indexed(c, values, counter) for c in node.children]
        return all(results) if isinstance(node, And) else any(results)
    raise TypeError(f"not a boolean tree node: {node!r}")


def satisfying_vectors(tree: Optional[BoolTree]) -> Iterator[tuple[bool, ...]]:
    """The leaf truth vectors that satisfy ``tree``, in search order.

    Vectors index leaf occurrences in traversal order and are tried
    all-true first, descending in binary order; a missing tree has the
    single empty vector.
    """
    if tree is None:
        yield ()
        return
    for values in iter_product((True, False), repeat=len(tree_leaves(tree))):
        if tree_eval_indexed(tree, values):
            yield values


# ---------------------------------------------------------------------------
# Atoms for the constraint layers


@dataclass(frozen=True)
class RegAtom:
    """Membership of a variable's value in a regular language."""

    var: str
    nfa: Nfa
    pattern: str | None = None


@dataclass(frozen=True)
class LenTerm:
    var: str


@dataclass(frozen=True)
class CountTerm:
    var: str
    char: str


@dataclass(frozen=True)
class IntTerm:
    var: str


IntExprTerm = Union[LenTerm, CountTerm, IntTerm]


@dataclass(frozen=True)
class LinearAtom:
    """``sum(coeff * term) <= bound`` over lengths, counts, and int vars."""

    terms: tuple[tuple[int, IntExprTerm], ...]
    bound: int


@dataclass(frozen=True)
class CharPos:
    """The character of ``var`` at a 1-based position (int var name or constant)."""

    var: str
    index: Union[str, int]


@dataclass(frozen=True)
class CharConst:
    char: str


CharSide = Union[CharPos, CharConst]


@dataclass(frozen=True)
class CharAtom:
    """Equality between two character designators.

    False whenever a positional side's index falls outside its word.
    """

    left: CharSide
    right: CharSide


@dataclass(frozen=True)
class IndexOfAtom:
    """``result`` is a 1-based position where ``needle`` occurs in the haystack.

    With ``first`` set, it must be the position of the *first* occurrence.
    """

    result: str
    needle: str
    haystack: ConcatItem
    first: bool


@dataclass(frozen=True)
class Disequality:
    left: str
    right: str


# ---------------------------------------------------------------------------
# The problem itself


@dataclass(frozen=True)
class Problem:
    alphabet: Alphabet
    str_vars: tuple[str, ...]
    int_vars: tuple[str, ...] = ()
    relations: tuple[RelAtom, ...] = ()
    regular: BoolTree | None = None
    integers: BoolTree | None = None
    chars: BoolTree | None = None
    indexofs: tuple[IndexOfAtom, ...] = ()
    disequalities: tuple[Disequality, ...] = ()

    @property
    def has_extensions(self) -> bool:
        """True when anything beyond the core string fragment is present."""
        return bool(
            self.int_vars
            or self.integers is not None
            or self.chars is not None
            or self.indexofs
            or self.disequalities
        )


Assignment = dict[str, Union[str, int]]


def _occurrences(needle: str, hay: str) -> list[int]:
    """1-based start positions of every occurrence (overlaps included)."""
    out = []
    start = 0
    while True:
        idx = hay.find(needle, start)
        if idx < 0:
            return out
        out.append(idx + 1)
        start = idx + 1


def _char_at(side: CharSide, assignment: Assignment) -> str | None:
    if isinstance(side, CharConst):
        return side.char
    value = assignment[side.var]
    assert isinstance(value, str)
    index = side.index if isinstance(side.index, int) else assignment[side.index]
    assert isinstance(index, int)
    if 1 <= index <= len(value):
        return value[index - 1]
    return None


def _int_term_value(term: IntExprTerm, assignment: Assignment) -> int:
    if isinstance(term, LenTerm):
        value = assignment[term.var]
        assert isinstance(value, str)
        return len(value)
    if isinstance(term, CountTerm):
        value = assignment[term.var]
        assert isinstance(value, str)
        return value.count(term.char)
    value = assignment[term.var]
    assert isinstance(value, int)
    return value


def evaluate(problem: Problem, assignment: Assignment) -> bool:
    """Does the assignment satisfy every constraint of the problem?

    String variables map to words over the alphabet, integer variables to
    naturals; a negative integer value falsifies the problem outright.
    Missing variables raise ``KeyError``.
    """
    for var in problem.str_vars:
        value = assignment[var]
        if not isinstance(value, str):
            raise TypeError(f"{var} should be a string, got {value!r}")
    for var in problem.int_vars:
        value = assignment[var]
        if not isinstance(value, int):
            raise TypeError(f"{var} should be an int, got {value!r}")
        if value < 0:
            return False

    for rel in problem.relations:
        if isinstance(rel, ConcatEq):
            expect = "".join(
                item.text if isinstance(item, Lit) else str(assignment[item.name])
                for item in rel.items
            )
            if assignment[rel.lhs] != expect:
                return False
        else:
            arg = assignment[rel.arg]
            lhs = assignment[rel.lhs]
            assert isinstance(arg, str) and isinstance(lhs, str)
            if not transducer_membership(rel.transducer, arg, lhs):
                return False

    if problem.regular is not None:
        def reg_ok(atom: object) -> bool:
            assert isinstance(atom, RegAtom)
            value = assignment[atom.var]
            assert isinstance(value, str)
            return nfa_membership(atom.nfa, value)

        if not tree_eval(problem.regular, reg_ok):
            return False

    if problem.integers is not None:
        def int_ok(atom: object) -> bool:
            assert isinstance(atom, LinearAtom)
            total = sum(
                coeff * _int_term_value(term, assignment)
                for coeff, term in atom.terms
            )
            return total <= atom.bound

        if not tree_eval(problem.integers, int_ok):
            return False

    if problem.chars is not None:
        def char_ok(atom: object) -> bool:
            assert isinstance(atom, CharAtom)
            left = _char_at(atom.left, assignment)
            right = _char_at(atom.right, assignment)
            return left is not None and right is not None and left == right

        if not tree_eval(problem.chars, char_ok):
            return False

    for atom in problem.indexofs:
        hay = (
            atom.haystack.text
            if isinstance(atom.haystack, Lit)
            else assignment[atom.haystack.name]
        )
        assert isinstance(hay, str)
        position = assignment[atom.result]
        assert isinstance(position, int)
        positions = _occurrences(atom.needle, hay)
        if atom.first:
            if not positions or position != positions[0]:
                return False
        else:
            if position not in positions:
                return False

    for diseq in problem.disequalities:
        if assignment[diseq.left] == assignment[diseq.right]:
            return False

    return True


def _iter_reg_atoms(tree: BoolTree | None) -> Iterator[RegAtom]:
    if tree is None:
        return
    for leaf in tree_leaves(tree):
        assert isinstance(leaf.atom, RegAtom)
        yield leaf.atom


def problem_wellformed(problem: Problem) -> list[str]:
    """Static sanity report; an empty list means the problem is well-formed.

    Checks declarations (every mentioned variable is declared with the
    right sort), alphabet agreement of all embedded machines and
    literals, and basic atom validity (nonempty needles, single-char
    counts).  Straight-line form is *not* checked here; that is
    :func:`slsolve.straightline.check_straightline`'s job.
    """
    errors: list[str] = []
    strs = set(problem.str_vars)
    ints = set(problem.int_vars)
    if len(strs) != len(problem.str_vars):
        errors.append("duplicate string variable declaration")
    if len(ints) != len(problem.int_vars):
        errors.append("duplicate integer variable declaration")
    if strs & ints:
        errors.append(f"variables declared as both sorts: {sorted(strs & ints)}")

    symbols = set(problem.alphabet.symbols)

    # A location is ``where % args``, built only for an error report.
    def need_str(name: str, where: str, *args: str) -> None:
        if name not in strs:
            errors.append(f"{where % args}: undeclared string variable {name!r}")

    def need_int(name: str, where: str, *args: str) -> None:
        if name not in ints:
            errors.append(f"{where % args}: undeclared integer variable {name!r}")

    def need_word(text: str, where: str, *args: str) -> None:
        if not symbols.issuperset(text):
            ch = next(ch for ch in text if ch not in symbols)
            errors.append(f"{where % args}: character {ch!r} outside the alphabet")

    for rel in problem.relations:
        if isinstance(rel, ConcatEq):
            where = "concatenation defining %s"
            need_str(rel.lhs, where, rel.lhs)
            for item in rel.items:
                if isinstance(item, Var):
                    need_str(item.name, where, rel.lhs)
                else:
                    need_word(item.text, where, rel.lhs)
        else:
            where = "transducer constraint defining %s"
            need_str(rel.lhs, where, rel.lhs)
            need_str(rel.arg, where, rel.lhs)
            if rel.transducer.alphabet != problem.alphabet:
                errors.append(
                    f"{where % rel.lhs}: transducer alphabet differs from problem alphabet"
                )

    for atom in _iter_reg_atoms(problem.regular):
        need_str(atom.var, "regular constraint")
        if atom.nfa.alphabet != problem.alphabet:
            errors.append(
                f"regular constraint on {atom.var}: automaton alphabet differs"
            )

    if problem.integers is not None:
        for leaf in tree_leaves(problem.integers):
            atom = leaf.atom
            assert isinstance(atom, LinearAtom)
            for _, term in atom.terms:
                if isinstance(term, LenTerm):
                    need_str(term.var, "length term")
                elif isinstance(term, CountTerm):
                    need_str(term.var, "count term")
                    if len(term.char) != 1 or term.char not in problem.alphabet:
                        errors.append(f"count term: bad character {term.char!r}")
                else:
                    need_int(term.var, "integer term")

    if problem.chars is not None:
        for leaf in tree_leaves(problem.chars):
            atom = leaf.atom
            assert isinstance(atom, CharAtom)
            for side in (atom.left, atom.right):
                if isinstance(side, CharPos):
                    need_str(side.var, "character constraint")
                    if isinstance(side.index, str):
                        need_int(side.index, "character index")
                    elif side.index < 1:
                        errors.append(
                            f"character index {side.index} must be at least 1"
                        )
                else:
                    if len(side.char) != 1 or side.char not in problem.alphabet:
                        errors.append(f"bad character constant {side.char!r}")

    for atom in problem.indexofs:
        where = "indexof binding %s"
        need_int(atom.result, where, atom.result)
        if not atom.needle:
            errors.append(f"{where % atom.result}: empty needle")
        need_word(atom.needle, where, atom.result)
        if isinstance(atom.haystack, Var):
            need_str(atom.haystack.name, where, atom.result)
        else:
            need_word(atom.haystack.text, where, atom.result)

    for diseq in problem.disequalities:
        need_str(diseq.left, "disequality")
        need_str(diseq.right, "disequality")

    return errors
