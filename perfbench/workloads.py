"""The benchmark's workloads: how each builds its problems and judges verdicts.

Each workload is a list of :class:`Instance` objects.  ``build`` is the
timed set-up step (parsing or generating the problems), one instance at a
time, so that it can be timed in chunks; ``validate`` runs
untimed checks on what was built; ``check`` compares one verdict with the
instance's reference.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Iterator, Optional

from slsolve.automata import nfa_enumerate
from slsolve.constraints import Lit, Problem, TransducerEq, evaluate
from slsolve.oracle import gen_random_problem
from slsolve.parser import parse_problem
from slsolve.solver import Verdict
from slsolve.straightline import check_straightline
from slsolve.transducer import apply_function
from slsolve.websec import benchmark_names, load_benchmark

ORACLE_PATH = Path(__file__).resolve().parent / "ext_walk_oracle.json"

#: ext-walk solves get this budget instead of the 2,000,000 default, so the
#: program's own deterministic meter ends the long walks (at the default,
#: generator seeds 7 and 89 walk for about 40 s each).  At this budget a
#: round takes under 2 s, so a run holds enough rounds for steady figures.
EXT_RESOURCE_LIMIT = 10_000

#: Square-chain families: name, constraint on ``x0`` (or None), constraint
#: on ``x_n``, verdict, a witness for ``x0`` when satisfiable, and the
#: dimensions ``2^n`` it runs at.  ``x_n`` is ``x0`` repeated ``2^n`` times,
#: so it has even length and an even count of every letter; each unsat
#: family contradicts one of those facts, as its comment says.  Only the
#: families that finish within seconds at d8 run there; the others (for
#: example ``odd-a-count``) run past the wall limit.
SQUARE_FAMILIES: tuple[
    tuple[str, Optional[str], str, str, Optional[str], tuple[int, ...]], ...
] = (
    # Odd length.
    ("odd-length", None, "(in {xn} /a(ba)*/)", "unsat", None, (2, 4, 8)),
    ("odd-length-aa", None, "(in {xn} /(aa)*a/)", "unsat", None, (2, 4)),
    ("odd-length-b", None, "(in {xn} /b(ab)*/)", "unsat", None, (2, 4)),
    ("odd-length-mid", "(in {x0} /(a|b)+/)", "(in {xn} /(ab)*a(ab)*/)",
     "unsat", None, (2, 4)),
    # Odd count of a.
    ("odd-a-count", "(in {x0} /(a|b)+/)", "(in {xn} /b*a(b*ab*a)*b*/)",
     "unsat", None, (2, 4)),
    # No b in x0, so none in x_n.
    ("no-b", "(in {x0} /a+/)", "(in {xn} /(a|b)*b(a|b)*/)", "unsat", None,
     (2, 4)),
    # Odd length, or outside the full language.
    ("tree-odd-or-none", "(in {x0} /(a|b)+/)",
     "(or (in {xn} /a(ba)*/) (not (in {xn} /(a|b)*/)))", "unsat", None,
     (2, 4)),
    ("alternating", "(in {x0} /(a|b)+/)", "(in {xn} /a(ba)*b/)", "sat", "ab",
     (2, 4)),
    ("ab-plus", "(in {x0} /(a|b)+/)", "(in {xn} /(ab)+/)", "sat", "ab",
     (2, 4, 8)),
    ("tree-only-b", "(in {x0} /(a|b)+/)",
     "(and (in {xn} /(a|b)*b/) (not (in {xn} /(a|b)*a(a|b)*/)))", "sat", "b",
     (2, 4, 8)),
    ("tree-no-repeat", "(in {x0} /(a|b)+/)",
     "(not (in {xn} /(a|b)*(aa|bb)(a|b)*/))", "sat", "ab", (2, 4, 8)),
    ("tree-or", "(in {x0} /(a|b)+/)",
     "(or (in {xn} /(aa)*a/) (in {xn} /a(ba)*b/))", "sat", "ab", (2, 4)),
    ("a-blocks", "(in {x0} /ab*/)", "(in {xn} /(ab*)*/)", "sat", "a",
     (2, 4, 8)),
    ("ab-or-ba", "(in {x0} /(a|b)(a|b)+/)", "(in {xn} /(ab|ba)*/)", "sat",
     "ab", (2, 4)),
)


#: Square-chain instances solved only in every ``SPARSE_EVERY``-th round
#: (the first included).  ``odd-length-d8`` takes about two thirds of a
#: full round; solved every round, it would leave a 30 s run five rounds,
#: and the per-instance medians of the other instances five samples each.
SPARSE = ("odd-length-d8",)
SPARSE_EVERY = 4


@dataclass
class Instance:
    """One problem of a workload, with what its verdict is checked against.

    ``exact`` instances must answer ``expected`` exactly.  Otherwise
    ``expected`` is the bounded oracle's answer, ``"sat"`` or ``"none"``
    (no model within its bounds).  The instance is solved in every
    ``every``-th round of a run, starting with the first.
    """

    name: str
    problem: Problem
    expected: str
    exact: bool = True
    replay: bool = False
    witness: Optional[dict] = None
    solve_kwargs: dict = field(default_factory=dict)
    every: int = 1


def square_chain_text(n: int, x0_constraint: Optional[str], xn_constraint: str) -> str:
    """The ``.slp`` source of ``x_{i+1} = x_i . x_i`` for ``i < n``."""
    names = [f"x{i}" for i in range(n + 1)]
    lines = ['alphabet "ab"', "str " + " ".join(names)]
    lines += [f"x{i + 1} = x{i} . x{i}" for i in range(n)]
    for constraint in (x0_constraint, xn_constraint):
        if constraint is not None:
            lines.append("regc " + constraint.format(x0="x0", xn=names[n]))
    return "\n".join(lines) + "\n"


def load_oracle() -> dict:
    return json.loads(ORACLE_PATH.read_text())


def build(workload: str) -> Iterator[Instance]:
    """Build the workload's problems from source or seed (the timed set-up)."""
    if workload == "sanitizer":
        for name in benchmark_names():
            case = load_benchmark(name)
            yield Instance(name, case.problem, case.expected, replay=True)
    elif workload == "square-chain":
        for name, x0_c, xn_c, expected, witness, dims in SQUARE_FAMILIES:
            for d in dims:
                n = d.bit_length() - 1
                problem = parse_problem(square_chain_text(n, x0_c, xn_c))
                model = None
                if witness is not None:
                    model = {f"x{i}": witness * 2**i for i in range(n + 1)}
                label = f"{name}-d{d}"
                yield Instance(label, problem, expected, witness=model,
                               every=SPARSE_EVERY if label in SPARSE else 1)
    elif workload == "ext-walk":
        for entry in load_oracle()["instances"]:
            yield Instance(
                f"seed{entry['seed']}",
                gen_random_problem(entry["seed"], with_extensions=True),
                "sat" if entry["oracle"] is not None else "none",
                exact=False,
                solve_kwargs={"resource_limit": EXT_RESOURCE_LIMIT},
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")


def validate(workload: str, instances: list[Instance]) -> list[str]:
    """Untimed checks on freshly built instances; returns the problems found.

    ext-walk problems must still match the fingerprints stored with the
    oracle answers, or the answers no longer describe them.  Square-chain
    witnesses must satisfy their instance, which confirms each sat family
    independently of the solver.
    """
    problems = []
    if workload == "ext-walk":
        for inst, entry in zip(instances, load_oracle()["instances"]):
            if fingerprint(inst.problem) != entry["fingerprint"]:
                problems.append(
                    f"{inst.name}: gen_random_problem no longer builds the problem "
                    "the oracle answers describe; run perfbench/make_oracle.py"
                )
    for inst in instances:
        if inst.witness is not None and not evaluate(inst.problem, inst.witness):
            problems.append(f"{inst.name}: the family's witness fails evaluate")
    return problems


def check(inst: Instance, verdict: Verdict) -> Optional[str]:
    """None if the verdict agrees with the instance's reference, else why not."""
    if verdict.is_sat:
        if not evaluate(inst.problem, verdict.model):
            return "model fails evaluate"
        if inst.replay and replay_pipeline(inst.problem, verdict.model) != {
            v: verdict.model[v] for v in inst.problem.str_vars
        }:
            return "pipeline replay differs from the model"
    if inst.exact:
        if verdict.status != inst.expected:
            return f"{verdict.status}, expected {inst.expected}"
        return None
    # The rule of the differential acceptance test: a refutation must not
    # contradict a model the oracle found.  resource-limit is undecided.
    if verdict.status in ("unsat", "unsat-within-bounds") and inst.expected == "sat":
        return f"{verdict.status}, but the oracle found a model"
    if verdict.status not in ("sat", "unsat", "unsat-within-bounds", "resource-limit"):
        return f"unknown status {verdict.status}"
    return None


def replay_pipeline(problem: Problem, model: dict) -> Optional[dict]:
    """Recompute every derived string from the model's source values.

    Transducers are run with ``apply_function``; returns None when one is
    not a function on the value it is given.
    """
    graph = check_straightline(problem)
    value = {v: model[v] for v in graph.sources}
    for var in graph.order:
        rel = graph.defining.get(var)
        if rel is None:
            continue
        if isinstance(rel, TransducerEq):
            arg = value[rel.arg]
            words = nfa_enumerate(
                apply_function(rel.transducer, arg), 8 * max(len(arg), 1)
            )
            if len(words) != 1:
                return None
            value[var] = words[0]
        else:
            value[var] = "".join(
                item.text if isinstance(item, Lit) else value[item.name]
                for item in rel.items
            )
    return {v: value[v] for v in problem.str_vars}


def fingerprint(problem: Problem) -> str:
    """A digest of the problem's structure that is stable across processes."""
    return hashlib.sha256(json.dumps(_canonical(problem)).encode()).hexdigest()[:16]


def _canonical(obj):
    if is_dataclass(obj):
        return [type(obj).__name__] + [_canonical(getattr(obj, f.name)) for f in fields(obj)]
    if isinstance(obj, (tuple, list)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_canonical(x) for x in obj), key=json.dumps)
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")
