"""Reference solving by bounded exhaustive search, plus seeded test instances.

:func:`brute_force_solve` explores every assignment within explicit
length/integer bounds, in a fixed order, deciding each candidate with
:func:`slsolve.constraints.evaluate` alone.  It shares only the automata
plumbing with the real decision procedure — none of its search logic —
which is what makes it usable as a differential oracle.

:func:`gen_random_problem` produces small straight-line instances from a
seed, deterministically, sized so the oracle stays cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import product as iter_product
from typing import Optional

from .automata import (
    Alphabet,
    Nfa,
    nfa_determinize,
    nfa_enumerate,
    nfa_intersect,
    nfa_membership,
    nfa_universal,
)
from .constraints import (
    And,
    Assignment,
    BoolTree,
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
    Or,
    Problem,
    RegAtom,
    TransducerEq,
    Var,
    evaluate,
)
from .regex import regex_parse
from .solver import model_bound_exceeds
from .straightline import check_straightline
from .transducer import (
    Transducer,
    apply_function,
    erase_transducer,
    identity_transducer,
)


@dataclass(frozen=True)
class OracleConfig:
    """Search bounds: string lengths up to ``max_len``, ints up to ``max_int``.

    A negative bound raises ValueError.
    """

    max_len: int = 8
    max_int: int = 8

    def __post_init__(self) -> None:
        for name in ("max_len", "max_int"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be at least 0, not {value}")


def _mandatory_regular(problem: Problem) -> dict[str, list[Nfa]]:
    """Regular constraints that every model must satisfy outright.

    Only leaves reachable through conjunctions count; anything under a
    negation or disjunction is left to full evaluation.  Filtering by
    these is pure pruning — a necessary condition — so it cannot change
    which assignments the oracle accepts.
    """
    out: dict[str, list[Nfa]] = {}

    def walk(node: BoolTree) -> None:
        if isinstance(node, Leaf):
            atom = node.atom
            assert isinstance(atom, RegAtom)
            out.setdefault(atom.var, []).append(atom.nfa)
        elif isinstance(node, And):
            for child in node.children:
                walk(child)

    if problem.regular is not None:
        walk(problem.regular)
    return out


def _source_language(problem: Problem, var: str) -> Nfa:
    """The words a source variable's mandatory regular constraints allow."""
    nfa = nfa_universal(problem.alphabet)
    for constraint in _mandatory_regular(problem).get(var, ()):
        nfa = nfa_intersect(nfa, constraint)
    return nfa


def source_candidates(problem: Problem, var: str, max_len: int) -> list[str]:
    """Words a source variable could take, shortest-then-lex, within bounds."""
    return nfa_enumerate(_source_language(problem, var), max_len)


def _count_words(nfa: Nfa, max_len: int) -> int:
    """How many words of length at most ``max_len`` the automaton accepts.

    A word is one path of the subset automaton, so the paths are counted
    length by length instead of the words being listed.
    """
    dfa = nfa_determinize(nfa)
    counts = [0] * dfa.n_states
    counts[dfa.initial] = 1
    total = 0
    for _ in range(max_len + 1):
        total += sum(counts[q] for q in dfa.finals)
        step = [0] * dfa.n_states
        for q, _sym, r in dfa.transitions:
            step[r] += counts[q]
        counts = step
    return total


def brute_force_solve(
    problem: Problem, config: OracleConfig = OracleConfig()
) -> Optional[Assignment]:
    """The first in-bounds model, or None if no model exists within bounds.

    Sources are enumerated in shortest-then-lex order, derived variables
    are computed (concatenations) or enumerated from the transducer
    image (transducer constraints), and integer variables are tried last
    from 0 upward.  The order is deterministic, and growing the bounds
    only appends candidates, so the first model found is stable.
    """
    graph = check_straightline(problem)
    mandatory = _mandatory_regular(problem)
    candidates = {
        var: source_candidates(problem, var, config.max_len)
        for var in graph.sources
    }
    order = graph.order
    int_vars = problem.int_vars
    # ``evaluate`` split in two: the relations and the regular tree read
    # only strings, so they are checked once per string assignment; the
    # rest is checked per integer combination.
    string_part = replace(
        problem,
        int_vars=(),
        integers=None,
        chars=None,
        indexofs=(),
        disequalities=(),
    )
    rest = replace(problem, relations=(), regular=None)
    assignment: Assignment = {}

    def passes(var: str, value: str) -> bool:
        if len(value) > config.max_len:
            return False
        return all(nfa_membership(m, value) for m in mandatory.get(var, ()))

    def walk(idx: int) -> Optional[Assignment]:
        if idx == len(order):
            if not evaluate(string_part, assignment):
                return None
            for combo in iter_product(
                range(config.max_int + 1), repeat=len(int_vars)
            ):
                for name, value in zip(int_vars, combo):
                    assignment[name] = value
                if evaluate(rest, assignment):
                    return dict(assignment)
            for name in int_vars:
                assignment.pop(name, None)
            return None

        var = order[idx]
        rel = graph.defining.get(var)
        if rel is None:
            options = candidates[var]
        elif isinstance(rel, ConcatEq):
            pieces = []
            for item in rel.items:
                if isinstance(item, Lit):
                    pieces.append(item.text)
                else:
                    value = assignment[item.name]
                    assert isinstance(value, str)
                    pieces.append(value)
            joined = "".join(pieces)
            options = [joined] if passes(var, joined) else []
        else:
            arg = assignment[rel.arg]
            assert isinstance(arg, str)
            image = apply_function(rel.transducer, arg)
            options = [
                w for w in nfa_enumerate(image, config.max_len) if passes(var, w)
            ]

        for value in options:
            assignment[var] = value
            found = walk(idx + 1)
            if found is not None:
                return found
        assignment.pop(var, None)
        return None

    return walk(0)


# ---------------------------------------------------------------------------
# Seeded instance generation


def _random_pattern(rng: random.Random, alphabet: Alphabet, depth: int = 2) -> str:
    """A small pattern over the alphabet, in the supported regex subset."""
    choices = ["char", "concat", "union", "star"] if depth > 0 else ["char"]
    kind = rng.choice(choices)
    if kind == "char":
        return rng.choice(alphabet.symbols)
    if kind == "concat":
        return _random_pattern(rng, alphabet, depth - 1) + _random_pattern(
            rng, alphabet, depth - 1
        )
    if kind == "union":
        left = _random_pattern(rng, alphabet, depth - 1)
        right = _random_pattern(rng, alphabet, depth - 1)
        return f"({left}|{right})"
    inner = _random_pattern(rng, alphabet, depth - 1)
    return f"({inner})*"


def _random_transducer(rng: random.Random, alphabet: Alphabet) -> Transducer:
    roll = rng.random()
    if roll < 0.25:
        return identity_transducer(alphabet)
    if roll < 0.5:
        return erase_transducer(alphabet, rng.choice(alphabet.symbols))
    n = rng.randint(1, 2)
    rules: list[tuple[int, str, str, int]] = []
    for q in range(n):
        for c in alphabet:
            if rng.random() < 0.8:
                out = rng.choice(["", c, rng.choice(alphabet.symbols)])
                rules.append((q, c, out, rng.randrange(n)))
            if rng.random() < 0.15:
                out = rng.choice(["", rng.choice(alphabet.symbols)])
                rules.append((q, c, out, rng.randrange(n)))
    finals = frozenset(rng.sample(range(n), rng.randint(1, n)))
    return Transducer(alphabet, n, rules, 0, finals)


def _random_word(rng: random.Random, alphabet: Alphabet, max_len: int) -> str:
    length = rng.randint(0, max_len)
    return "".join(rng.choice(alphabet.symbols) for _ in range(length))


def _fold_tree(rng: random.Random, parts: list[BoolTree]) -> Optional[BoolTree]:
    if not parts:
        return None
    tree = parts[0]
    for part in parts[1:]:
        tree = (And if rng.random() < 0.6 else Or)((tree, part))
    return tree


def _gen_once(rng: random.Random, with_extensions: bool) -> Problem:
    alphabet = Alphabet.of("ab" if rng.random() < 0.8 else "abc")
    n_sources = rng.randint(1, 2)
    n_derived = rng.randint(1, 3)
    sources = [f"s{i}" for i in range(n_sources)]
    derived = [f"d{i}" for i in range(n_derived)]
    str_vars = sources + derived

    relations = []
    known = list(sources)
    for name in derived:
        if rng.random() < 0.55:
            items: list[Var | Lit] = []
            for _ in range(rng.randint(1, 3)):
                if known and rng.random() < 0.7:
                    items.append(Var(rng.choice(known)))
                else:
                    items.append(Lit(_random_word(rng, alphabet, 2)))
            relations.append(ConcatEq(name, tuple(items)))
        else:
            arg = rng.choice(known)
            transducer = _random_transducer(rng, alphabet)
            relations.append(TransducerEq(name, "gen", transducer, arg))
        known.append(name)

    reg_parts: list[BoolTree] = []
    for _ in range(rng.randint(0, 3)):
        var = rng.choice(str_vars)
        pattern = _random_pattern(rng, alphabet)
        leaf: BoolTree = Leaf(RegAtom(var, regex_parse(pattern, alphabet), pattern))
        if rng.random() < 0.25:
            leaf = Not(leaf)
        reg_parts.append(leaf)

    int_vars: list[str] = []
    int_parts: list[BoolTree] = []
    char_parts: list[BoolTree] = []
    indexofs: list[IndexOfAtom] = []
    disequalities: list[Disequality] = []

    if with_extensions:
        int_vars = [f"u{i}" for i in range(rng.randint(1, 2))]
        for _ in range(rng.randint(1, 2)):
            roll = rng.random()
            if roll < 0.4:
                terms = []
                for _ in range(rng.randint(1, 2)):
                    coeff = rng.choice([-2, -1, 1, 1, 2])
                    kind = rng.random()
                    if kind < 0.5:
                        terms.append((coeff, LenTerm(rng.choice(str_vars))))
                    elif kind < 0.8:
                        terms.append(
                            (
                                coeff,
                                CountTerm(
                                    rng.choice(str_vars),
                                    rng.choice(alphabet.symbols),
                                ),
                            )
                        )
                    else:
                        terms.append((coeff, IntTerm(rng.choice(int_vars))))
                atom: BoolTree = Leaf(
                    LinearAtom(tuple(terms), rng.randint(-4, 8))
                )
                if rng.random() < 0.2:
                    atom = Not(atom)
                int_parts.append(atom)
            elif roll < 0.65:
                index: str | int = (
                    rng.randint(1, 3)
                    if rng.random() < 0.5
                    else rng.choice(int_vars)
                )
                left = CharPos(rng.choice(str_vars), index)
                if rng.random() < 0.6:
                    right: CharPos | CharConst = CharConst(
                        rng.choice(alphabet.symbols)
                    )
                else:
                    jndex: str | int = (
                        rng.randint(1, 3)
                        if rng.random() < 0.5
                        else rng.choice(int_vars)
                    )
                    right = CharPos(rng.choice(str_vars), jndex)
                atom = Leaf(CharAtom(left, right))
                if rng.random() < 0.25:
                    atom = Not(atom)
                char_parts.append(atom)
            elif roll < 0.85:
                needle = "".join(
                    rng.choice(alphabet.symbols)
                    for _ in range(rng.randint(1, 2))
                )
                indexofs.append(
                    IndexOfAtom(
                        rng.choice(int_vars),
                        needle,
                        Var(rng.choice(str_vars)),
                        first=rng.random() < 0.5,
                    )
                )
            else:
                if len(str_vars) >= 2:
                    left, right = rng.sample(str_vars, 2)
                    disequalities.append(Disequality(left, right))
                else:
                    int_parts.append(
                        Leaf(LinearAtom(((1, LenTerm(str_vars[0])),), rng.randint(0, 6)))
                    )

    return Problem(
        alphabet=alphabet,
        str_vars=tuple(str_vars),
        int_vars=tuple(int_vars),
        relations=tuple(relations),
        regular=_fold_tree(rng, reg_parts),
        integers=_fold_tree(rng, int_parts),
        chars=_fold_tree(rng, char_parts),
        indexofs=tuple(indexofs),
        disequalities=tuple(disequalities),
    )


def _feasible(problem: Problem, with_extensions: bool) -> bool:
    """Whether an attempt is cheap enough for the brute-force oracle.

    Two filters, in order of cost.  The static model bound
    (:func:`slsolve.solver.max_model_bound`) must be within the search
    depth, ``length_cap``; then the product of the sources' word counts
    up to that depth must stay within ``work_cap``.  Most attempts fail
    the first filter, so it is priced by a lower bound that needs no
    complement or transducer normalization, and the exact bound is
    computed only for attempts that pass it (the verdict is the same).
    """
    length_cap = 8 if with_extensions else 12
    if model_bound_exceeds(problem, length_cap):
        return False
    graph = check_straightline(problem)
    work_cap = 20_000 if with_extensions else 40_000
    total = 1
    for var in graph.sources:
        words = _count_words(_source_language(problem, var), length_cap)
        total *= max(words, 1)
        if total > work_cap:
            return False
    return True


_ATTEMPTS = 1_024  # per seed, before ``gen_random_problem`` gives up


def gen_random_problem(seed: int, with_extensions: bool = False) -> Problem:
    """A deterministic small instance for the given seed.

    Instances are resampled (still deterministically) until they are
    cheap for the oracle: a static model-length bound within the search
    depth and a bounded product of source-candidate counts.  The first
    cheap attempt is returned.
    """
    for attempt in range(_ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + attempt * 7_919 + int(with_extensions))
        problem = _gen_once(rng, with_extensions)
        if _feasible(problem, with_extensions):
            return problem
    raise RuntimeError(
        f"no feasible instance for seed {seed} after {_ATTEMPTS} attempts"
    )
