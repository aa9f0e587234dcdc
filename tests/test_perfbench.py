"""The benchmark's own checks, run as part of the test suite.

``perfbench/selftest.py`` checks the harness (metric names, a flipped
reference verdict, a checkout without sources), and one untimed round of
every workload checks each verdict against its reference: the bundled
benchmarks' known answers, the square-chain witnesses and the ext-walk
oracle fingerprints.  A solver change that breaks either fails here.
Both run as subprocesses, as the benchmark runs them; together they take
a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def perfbench(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"perfbench/{script}", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def test_selftest_passes():
    proc = perfbench("selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "selftest: ok"


def test_one_round_of_every_workload_is_correct():
    proc = perfbench("run.py", "--workload", "all", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [
        json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")
    ]
    assert len(results) == 3
    for result in results:
        assert result["failed"] == 0 and result["correct"], result
        assert result["attempted"] > 0
