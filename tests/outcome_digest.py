"""Digests of the solver's outcomes on every fixed corpus, for identity checks.

Run as ``python3 tests/outcome_digest.py`` from any checkout: it imports
that checkout's ``src`` and prints one sha256 digest per corpus and field
(``status``, ``model``, ``int_bound``, ``stats``).  A change meant to
keep behaviour prints the same lines before and after;
``tests/test_outcomes.py`` pins them.  The corpora:

- ``benchmark``: the 132 instances of ``perfbench/workloads.py`` (loaded
  by path, read only), each solved with its own ``solve_kwargs``;
- ``string``: string-only generator seeds 0..499;
- ``extension``: extension generator seeds 0..299 at
  ``resource_limit=10_000``;
- ``ext-300``: the same extension seeds at ``resource_limit=300``, where
  many solves stop inside a walk;
- ``pipelines``: the ``pipe``, ``wrap`` and ``splice`` chains
  (:func:`pipeline_family`) at depths 1..5, one ``verdict`` line over
  status and model.  ``splice`` doubles its model at each depth, so
  these are the longest words a witness is read through.

The module also holds the digest helpers the pinned tests share
(:func:`canonical`, :func:`digest`), the loader of the benchmark's
workload module (:func:`load_workloads`) and the pipeline builder
(:func:`pipeline_family`).  Pytest does not collect this file (its name
has no ``test_`` prefix).
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from slsolve.oracle import gen_random_problem  # noqa: E402
from slsolve.parser import parse_problem  # noqa: E402
from slsolve.solver import solve  # noqa: E402
from slsolve.websec import load_benchmark  # noqa: E402

FIELDS = ("status", "model", "int_bound", "stats")


def _plain(value):
    """``value`` with every set and dict sorted, and machines as tuples."""
    if hasattr(value, "transitions"):  # an Nfa or a Transducer
        return (value.n_states, value.transitions, value.initial, sorted(value.finals))
    if isinstance(value, (set, frozenset)):
        return sorted(map(_plain, value))
    if isinstance(value, dict):
        return sorted((_plain(k), _plain(v)) for k, v in value.items())
    if type(value) in (list, tuple):
        return type(value)(map(_plain, value))
    return value


def canonical(value) -> str:
    """One ``repr`` line for ``value`` that does not depend on the hash seed.

    A machine is fixed by its state count, arcs, initial state and sorted
    final states; sets are sorted and dicts sorted by key, at any depth
    of lists and tuples.
    """
    return repr(_plain(value))


def digest(outputs, line=canonical) -> str:
    """The first 16 hex digits of the sha256 of one ``line`` per output."""
    text = "\n".join(line(x) for x in outputs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_workloads():
    """Load ``perfbench/workloads.py`` by path; it stays in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module runs.
    sys.modules["workloads"] = module
    spec.loader.exec_module(module)
    return module


def pipeline_family(name: str, depth: int, *extra: str):
    """A chain of sanitizer stages over the ``ex_mxss1`` alphabet.

    ``pipe``: ``y_i = escapeString(x_i)``, ``x_{i+1} = innerHTMLDecode(y_i)``.
    ``wrap``: ``y_i = innerHTMLDecode(x_i)``,
    ``x_{i+1} = "<a title='" . y_i . "'>"``.
    ``splice``: ``y_i = htmlEscape(x_i)``,
    ``x_{i+1} = "<p>" . y_i . "</p>" . x_i``.
    The last value ``x_depth`` must contain a quote; the ``extra`` lines
    are appended to the source.
    """
    alphabet = next(
        line
        for line in load_benchmark("ex_mxss1").source.splitlines()
        if line.startswith("alphabet")
    )
    names = [v for i in range(depth) for v in (f"x{i}", f"y{i}")]
    lines = [alphabet, "str " + " ".join(names + [f"x{depth}"])]
    for i in range(depth):
        if name == "pipe":
            lines.append(f"y{i} = escapeString(x{i})")
            lines.append(f"x{i + 1} = innerHTMLDecode(y{i})")
        elif name == "wrap":
            lines.append(f"y{i} = innerHTMLDecode(x{i})")
            lines.append(f'x{i + 1} = "<a title=\'" . y{i} . "\'>"')
        else:
            lines.append(f"y{i} = htmlEscape(x{i})")
            lines.append(f'x{i + 1} = "<p>" . y{i} . "</p>" . x{i}')
    lines.append(f"regc (in x{depth} /.*'.*/)")
    return parse_problem("\n".join([*lines, *extra]) + "\n")


#: The chains of :func:`pipeline_family` in the ``pipelines`` line.
PIPELINES = [
    (f"{name}{depth}", name, depth)
    for name in ("pipe", "wrap", "splice")
    for depth in range(1, 6)
]


def pipelines_line() -> str:
    """The ``pipelines`` line: one digest over each chain's status and model."""
    lines = []
    for label, name, depth in PIPELINES:
        text = outcome(pipeline_family(name, depth), {})
        lines.append(f"{label}\t{text['status']}\t{text['model']}")
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return f"{'pipelines':<9} {len(lines):>3} {'verdict':<9} {sha}"


def corpora(workloads, string_problems, extension_problems):
    """(corpus name, [(label, problem, solve kwargs)]) in a fixed order."""
    yield "benchmark", [
        (f"{name}/{inst.name}", inst.problem, inst.solve_kwargs)
        for name in ("sanitizer", "square-chain", "ext-walk")
        for inst in workloads.build(name)
    ]
    yield "string", [(f"seed{i}", p, {}) for i, p in enumerate(string_problems)]
    for corpus, limit in (("extension", 10_000), ("ext-300", 300)):
        yield corpus, [
            (f"seed{i}", p, {"resource_limit": limit})
            for i, p in enumerate(extension_problems)
        ]


def outcome(problem, kwargs) -> dict[str, str]:
    stats: dict = {}
    verdict = solve(problem, stats=stats, **kwargs)
    model = None if verdict.model is None else sorted(verdict.model.items())
    return {
        "status": verdict.status,
        "model": repr(model),
        "int_bound": repr(verdict.int_bound),
        "stats": repr(sorted(stats.items())),
    }


def corpus_lines(corpus: str, cases) -> list[str]:
    """The printed line of each field: corpus, case count, field, digest."""
    digests = {f: hashlib.sha256() for f in FIELDS}
    for label, problem, kwargs in cases:
        for f, text in outcome(problem, kwargs).items():
            digests[f].update(f"{label}\t{text}\n".encode())
    return [
        f"{corpus:<9} {len(cases):>3} {f:<9} {digests[f].hexdigest()}" for f in FIELDS
    ]


def main() -> None:
    strings = [gen_random_problem(seed) for seed in range(500)]
    extensions = [gen_random_problem(seed, with_extensions=True) for seed in range(300)]
    for corpus, cases in corpora(load_workloads(), strings, extensions):
        print("\n".join(corpus_lines(corpus, cases)))
    print(pipelines_line())


if __name__ == "__main__":
    main()
