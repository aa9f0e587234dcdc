#!/usr/bin/env python3
"""A short check of the benchmark itself; takes about 10 s.

    python3 perfbench/selftest.py

1. One round of ``sanitizer`` untraced and traced: every metric that
   BENCHMARK.json names is printed, with its unit, and nothing else.
2. A square-chain run with one reference verdict deliberately flipped:
   the mismatch is counted as failed, reported, and the exit code is 1.
3. A directory holding only BENCHMARK.json and perfbench/: the command
   exits non-zero without printing a result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(cond: bool, message: str) -> None:
    if not cond:
        sys.exit(f"selftest: FAILED: {message}")


def run_command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def check_metric_names(spec: dict) -> None:
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_command(ROOT, "--workload", "sanitizer", "--seed", "0", "--seconds", "0", "--trace", trace)
        expect(proc.returncode == 0, f"--trace {trace} exited {proc.returncode}: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, "sanitizer round failed")
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        expect(printed == wanted, f"--trace {trace} metrics differ from {key}: {printed} != {wanted}")


def check_wrong_reference() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    real_build = workloads.build

    def build_with_wrong_reference(workload):
        instances = [i for i in real_build(workload) if i.name.endswith("-d2")]
        instances[0].expected = "sat" if instances[0].expected == "unsat" else "unsat"
        yield from instances

    workloads.build = build_with_wrong_reference
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.run_workload("square-chain", 0, 0.0, False)
    finally:
        workloads.build = real_build
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    expect(code == 1, f"a wrong reference exited {code}")
    expect(not result["correct"] and result["failed"] == 1, f"a wrong reference gave {result}")
    expect(any(line.startswith("error_frac") and "1/" in line for line in lines), "error_frac did not count it")
    expect(any(line.startswith("FAILED odd-length-d2") for line in lines), "the failing instance was not named")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_command(bare, "--workload", "sanitizer", "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without the program's sources")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_wrong_reference()
    check_bare_directory()
    print("selftest: ok")


if __name__ == "__main__":
    main()
