#!/usr/bin/env python3
"""Regenerate ext_walk_oracle.json, the reference answers of ext-walk.

    python3 perfbench/make_oracle.py

For each generator seed in ``SEEDS`` it stores the first model that
``brute_force_solve`` finds within strings of length 8 and integers up to
8 (or null), and a fingerprint of the generated problem, so that a change
to ``gen_random_problem`` is reported instead of silently changing the
workload.  It takes about 20 s.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slsolve.oracle import OracleConfig, brute_force_solve, gen_random_problem  # noqa: E402

from workloads import ORACLE_PATH, fingerprint  # noqa: E402

#: The generator seeds of the ext-walk instances.
SEEDS = range(95)
CONFIG = OracleConfig(max_len=8, max_int=8)


def main() -> None:
    instances = []
    for seed in SEEDS:
        problem = gen_random_problem(seed, with_extensions=True)
        instances.append(
            {
                "seed": seed,
                "fingerprint": fingerprint(problem),
                "oracle": brute_force_solve(problem, CONFIG),
            }
        )
    doc = {
        "command": "python3 perfbench/make_oracle.py",
        "generator": "gen_random_problem(seed, with_extensions=True)",
        "oracle": f"brute_force_solve(max_len={CONFIG.max_len}, max_int={CONFIG.max_int})",
        "instances": instances,
    }
    ORACLE_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
