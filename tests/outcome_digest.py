"""Digests of the solver's outcomes on every fixed corpus, for identity checks.

Run as ``python3 tests/outcome_digest.py`` from any checkout: it imports
that checkout's ``src`` and prints one sha256 digest per corpus and field
(``status``, ``model``, ``int_bound``, ``stats``).  A change meant to
keep behaviour prints the same lines before and after.  The corpora:

- ``benchmark``: the 132 instances of ``perfbench/workloads.py`` (loaded
  by path, read only), each solved with its own ``solve_kwargs``;
- ``string``: string-only generator seeds 0..499;
- ``extension``: extension generator seeds 0..299 at
  ``resource_limit=10_000``.

Pytest does not collect this file (its name has no ``test_`` prefix).
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from slsolve.oracle import gen_random_problem  # noqa: E402
from slsolve.solver import solve  # noqa: E402

FIELDS = ("status", "model", "int_bound", "stats")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module runs.
    sys.modules["workloads"] = module
    spec.loader.exec_module(module)
    return module


def corpora():
    """(corpus name, [(label, problem, solve kwargs)]) in a fixed order."""
    workloads = load_workloads()
    yield "benchmark", [
        (f"{name}/{inst.name}", inst.problem, inst.solve_kwargs)
        for name in ("sanitizer", "square-chain", "ext-walk")
        for inst in workloads.build(name)
    ]
    yield "string", [
        (f"seed{seed}", gen_random_problem(seed), {}) for seed in range(500)
    ]
    yield "extension", [
        (
            f"seed{seed}",
            gen_random_problem(seed, with_extensions=True),
            {"resource_limit": 10_000},
        )
        for seed in range(300)
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


def main() -> None:
    for corpus, cases in corpora():
        digests = {f: hashlib.sha256() for f in FIELDS}
        for label, problem, kwargs in cases:
            for f, text in outcome(problem, kwargs).items():
                digests[f].update(f"{label}\t{text}\n".encode())
        for f in FIELDS:
            print(f"{corpus:<9} {len(cases):>3} {f:<9} {digests[f].hexdigest()}")


if __name__ == "__main__":
    main()
