#!/usr/bin/env python3
"""Benchmark the slsolve sources of this checkout on one workload.

    python3 perfbench/run.py --workload square-chain --seed 1 --seconds 30 --trace 0

Solves the workload's instances in a closed loop, one at a time, in an
order fixed by ``--seed``, for ``--seconds`` seconds (whole rounds), and
checks every verdict against the instance's reference.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics and the tracing overhead.
End-to-end times are scaled by a calibration loop timed between the
solves and set-ups (see ``calibrate``), so that they do not follow the
speed of a shared host.
The last line of output is one JSON object; the lines before it repeat
the figures with their sample counts.  The exit code is 1 when any solve
raised, timed out or disagreed with its reference.

``--workload all`` runs every workload, one after another, each in a
fresh child process.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sanitizer", "square-chain", "ext-walk")

#: Per-solve wall limit.  The slowest instance takes about 3 s
#: (square-chain ``odd-length-d8``, on the machine in README.md), so only a
#: large regression reaches it.  A timeout is a failed solve.
WALL_LIMIT_S = 20.0

#: One calibration pass: ``CAL_ITERATIONS`` dict and set updates on ints.
#: A pass runs before every timed solve and set-up.  End-to-end times are
#: reported as ``seconds * CAL_REFERENCE_S / cal``, where ``cal`` is the
#: median of the ``CAL_HALF_WINDOW`` passes before the step and as many
#: after it: the time the step would take on a host where one pass takes
#: ``CAL_REFERENCE_S``.  The host's speed drifts over seconds, so a local
#: median follows it better than one over the whole run.  The pass
#: allocates no object the cyclic collector tracks, so a change to the
#: program's garbage-collection settings does not move it.
CAL_ITERATIONS = 20_000
CAL_REFERENCE_S = 0.004
CAL_HALF_WINDOW = 5
CAL_SAMPLES: list[float] = []

#: Set-up is timed in chunks of whole instances, each at least
#: ``SETUP_CHUNK_S`` long, with a calibration pass before each chunk; a
#: set-up's time is the sum of its scaled chunks.  An ext-walk set-up takes
#: about 2.5 s, long enough for the host's speed to change within it.
SETUP_CHUNK_S = 0.05

#: Set-up is timed at least ``MIN_SETUPS`` times before the first round.
#: Before every round it is timed again until that slot has taken
#: ``SETUP_SLICE_S``, while all set-ups so far took under
#: ``SETUP_BUDGET_S``.  Spreading the samples over the run keeps their
#: median from depending on the host's speed in one second; the median is
#: reported.
MIN_SETUPS = 3
SETUP_SLICE_S = 0.1
SETUP_BUDGET_S = 3.0

#: A run still measuring after this many seconds (or twice ``--seconds``)
#: stops mid-round, so that a badly regressed program still exits within
#: three minutes.
HARD_STOP_S = 120.0


class WallLimit(Exception):
    """Raised from SIGALRM when one solve exceeds ``WALL_LIMIT_S``."""


def _on_alarm(signum, frame):
    raise WallLimit()


@dataclass
class Outcome:
    instance: int
    seconds: float
    status: str  # the verdict's status, "timeout" or "raised"
    error: Optional[str]  # None when the verdict agrees with the reference
    layers: Optional[dict] = None  # traced solves only
    passes: int = 0  # calibration passes timed before the solve began


def calibrate() -> None:
    """Time one fixed pass of pure-Python work into ``CAL_SAMPLES``."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CAL_ITERATIONS):
        table[(i * 7919) % 10007] = i + 1
    seen = set()
    for key, value in table.items():
        seen.add(value ^ key)
    CAL_SAMPLES.append(time.perf_counter() - start)


def scaled(seconds: float, passes: int) -> float:
    """A wall time measured after ``passes`` calibration passes, as reported."""
    window = CAL_SAMPLES[max(0, passes - CAL_HALF_WINDOW):passes + CAL_HALF_WINDOW]
    return seconds * CAL_REFERENCE_S / statistics.median(window)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit."""
    src = ROOT / "src"
    if not (src / "slsolve" / "__init__.py").is_file():
        sys.exit(f"run.py: no slsolve sources in {src}")
    sys.path.insert(0, str(src))


def solve_one(index: int, inst, tracer) -> Outcome:
    from slsolve.solver import solve
    from workloads import check

    stats: dict = {}
    if tracer is not None:
        tracer.start(index)
        tracer.enter("solve")
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, WALL_LIMIT_S)
    try:
        verdict = solve(inst.problem, stats=stats, **inst.solve_kwargs)
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except WallLimit:
        if tracer is not None:
            tracer.stop()
        return Outcome(index, math.inf, "timeout", f"no verdict within {WALL_LIMIT_S:g} s")
    except Exception as exc:  # a solve that raises is a failed operation
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.stop()
        return Outcome(index, elapsed, "raised", repr(exc))
    layers = None
    if tracer is not None:
        tracer.exit()
        layers = tracer.stop()
        layers["scenarios"] = stats.get("scenarios", 0)
        if "budget-left" in stats:
            layers["budget_spent"] = inst.solve_kwargs["resource_limit"] - stats["budget-left"]
    return Outcome(index, elapsed, verdict.status, check(inst, verdict), layers)


def timed_build(workload: str) -> tuple[list, list[tuple[float, int]]]:
    """Build the workload once; returns the instances and ``(seconds, passes)`` per chunk."""
    import workloads

    built: list = []
    chunks: list[tuple[float, int]] = []
    instances = iter(workloads.build(workload))
    finished = False
    while not finished:
        calibrate()
        start = time.perf_counter()
        while time.perf_counter() - start < SETUP_CHUNK_S:
            inst = next(instances, None)
            if inst is None:
                finished = True
                break
            built.append(inst)
        chunks.append((time.perf_counter() - start, len(CAL_SAMPLES)))
    return built, chunks


def time_setups(workload: str, setup_times: list[list[tuple[float, int]]], minimum: int):
    """One slot of set-up timing (see ``MIN_SETUPS``); returns the last build.

    Appends the chunks of each set-up (see ``timed_build``) to ``setup_times``.
    """
    built, slot, count = None, 0.0, 0
    spent = sum(seconds for chunks in setup_times for seconds, _passes in chunks)
    while count < minimum or (slot < SETUP_SLICE_S and slot + spent < SETUP_BUDGET_S):
        built, chunks = timed_build(workload)
        setup_times.append(chunks)
        slot += sum(seconds for seconds, _passes in chunks)
        count += 1
    return built


def timed_rounds(instances, order, seconds, tracers, before_cycle) -> list[list[list[Outcome]]]:
    """Closed-loop solving for ``seconds``; returns rounds per tracer slot.

    Each cycle calls ``before_cycle``, then runs one round over ``order``
    per entry of ``tracers`` (None: untraced); a tracer's wrappers are
    installed only during its rounds, and it records spans in its first.
    A calibration pass runs before each solve.  An instance sits out the
    rounds its ``every`` skips.  Only whole cycles run, unless the run
    passes the hard stop.
    """
    out: list[list[list[Outcome]]] = [[] for _ in tracers]
    start = time.perf_counter()
    hard_stop = start + max(HARD_STOP_S, 2 * seconds)
    while True:
        before_cycle()
        gc.collect()
        for slot, tracer in enumerate(tracers):
            current: list[Outcome] = []
            out[slot].append(current)
            if tracer is not None:
                tracer.record = len(out[slot]) == 1
                tracer.install()
            try:
                for index in order:
                    if (len(out[slot]) - 1) % instances[index].every:
                        continue
                    calibrate()
                    outcome = solve_one(index, instances[index], tracer)
                    outcome.passes = len(CAL_SAMPLES)
                    current.append(outcome)
                    if time.perf_counter() > hard_stop:
                        return out
            finally:
                if tracer is not None:
                    tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return out


def p90(samples: list[float]) -> float:
    """``statistics.quantiles(samples, n=10, method="inclusive")[8]``, allowing +inf."""
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    j, delta = divmod(9 * (len(data) - 1), 10)
    if delta == 0:
        return data[j]
    return (data[j] * (10 - delta) + data[j + 1] * delta) / 10


def per_instance_medians(rounds: list[list[Outcome]], scale: bool = True) -> dict[int, float]:
    """Each instance's median solve time over the rounds (a timeout is +inf).

    The times are scaled by calibration (see ``scaled``) unless ``scale`` is false.
    """
    times: defaultdict[int, list[float]] = defaultdict(list)
    for rnd in rounds:
        for o in rnd:
            times[o.instance].append(scaled(o.seconds, o.passes) if scale else o.seconds)
    return {i: statistics.median(ts) for i, ts in times.items()}


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(rounds, setup_times) -> tuple[dict, list[str]]:
    outcomes = [o for rnd in rounds for o in rnd]
    n = len(outcomes)
    medians = list(per_instance_medians(rounds).values())
    wall = list(per_instance_medians(rounds, scale=False).values())
    setups = [sum(scaled(seconds, passes) for seconds, passes in chunks) for chunks in setup_times]
    decided = sum(o.status in ("sat", "unsat") for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_instance = f"{len(medians)} instances, median of up to {len(rounds)} solves each"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "solve_geomean_ms": (1000.0 * geomean(medians), "ms", per_instance),
        "solve_p90_ms": (1000.0 * p90(medians), "ms", per_instance),
        "decided_frac": (decided / n, "frac", f"{decided}/{n} solves"),
        "error_frac": (failed / n, "frac", f"{failed}/{n} solves"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
    }
    lines = [f"{name:<18} {value:>12.6g} {unit:<5} ({note})" for name, (value, unit, note) in metrics.items()]
    lines.append(f"calibration: median pass {1000.0 * statistics.median(CAL_SAMPLES):.4g} ms "
                 f"of {len(CAL_SAMPLES)}, reference {1000.0 * CAL_REFERENCE_S:g} ms; unscaled "
                 f"setup_s {statistics.median(sum(s for s, _p in c) for c in setup_times):.6g}, "
                 f"solve_geomean_ms {1000.0 * geomean(wall):.6g}, "
                 f"solve_p90_ms {1000.0 * p90(wall):.6g}")
    return metrics, lines


def combine_traced(rounds: list[list[Outcome]]) -> tuple[list[dict], set[int]]:
    """One layer record per instance that never failed in a traced round.

    Counts come from the first traced round (they repeat exactly); times
    are the fastest over traced rounds, in wall time as measured.
    """
    by_instance: defaultdict[int, list[Optional[dict]]] = defaultdict(list)
    for rnd in rounds:
        for o in rnd:
            by_instance[o.instance].append(o.layers if o.error is None else None)
    excluded = {i for i, rows in by_instance.items() if any(r is None for r in rows)}
    combined = []
    for i, rows in sorted(by_instance.items()):
        if i in excluded:
            continue
        row = dict(rows[0])
        for key in row:
            if key.endswith((".self", ".incl")):
                row[key] = min(r.get(key, 0.0) for r in rows)
        combined.append(row)
    return combined, excluded


def write_spans(tracer, workload: str, seed: int) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps(["id", "name", "start", "end", "parent", "instance"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    setup_times: list[list[tuple[float, int]]] = []
    tracer = None
    setup_layers: dict = {}
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start(-1)
        instances = list(workloads.build(workload))
        setup_layers = tracer.stop()
        tracer.uninstall()
    else:
        instances = time_setups(workload, setup_times, MIN_SETUPS)
    problems = workloads.validate(workload, instances)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    signal.signal(signal.SIGALRM, _on_alarm)
    if trace:
        slots = timed_rounds(instances, order, seconds, [None, tracer], lambda: None)
    else:
        slots = timed_rounds(instances, order, seconds, [None],
                             lambda: time_setups(workload, setup_times, 0))

    outcomes = [o for rounds in slots for rnd in rounds for o in rnd]
    failures = [o for o in outcomes if o.error is not None]
    print(f"workload {workload}  seed {seed}  instances {len(instances)}  "
          f"solves {len(outcomes)}  wall limit {WALL_LIMIT_S:g} s")
    failed_by_name: defaultdict[str, list[str]] = defaultdict(list)
    for o in failures:
        failed_by_name[instances[o.instance].name].append(o.error)
    for name, errors in sorted(failed_by_name.items()):
        print(f"FAILED {name} x{len(errors)}: {errors[0]}")

    if trace:
        from layertrace import layer_metrics, stage_subtrees

        combined, excluded = combine_traced(slots[1])
        metrics = {k: (v, unit, "") for k, (v, unit) in layer_metrics(combined, setup_layers).items()}
        plain = per_instance_medians(slots[0])
        traced = per_instance_medians(slots[1])
        kept = [i for i in traced if i in plain and i not in excluded]
        overhead = math.nan
        if kept:
            overhead = geomean(traced[i] for i in kept) / geomean(plain[i] for i in kept) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "frac", "")
        print(f"traced rounds {len(slots[1])}, untraced rounds {len(slots[0])}; "
              f"layer figures are per round over {len(kept)} instances "
              f"({len(excluded)} excluded for failing)")
        subtrees = stage_subtrees(combined)
        total = 1000.0 * sum(row.get("solve.incl", 0.0) for row in combined) or math.nan
        for stage, ms in sorted(subtrees.items(), key=lambda kv: -kv[1]):
            print(f"subtree {stage:<22} {ms:>12.3f} ms  {ms / total:6.1%} of traced solve time")
        print(f"largest subtree: {max(subtrees, key=subtrees.get)}")
        print(f"spans of the first traced round: {write_spans(tracer, workload, seed)}")
        for name, (value, unit, _note) in metrics.items():
            print(f"{name:<36} {value:>14.6g} {unit}")
    else:
        metrics, lines = end_to_end(slots[0], setup_times)
        print("\n".join(lines))
        metrics = {k: v for k, v in metrics.items() if k != "error_frac"}

    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": finite_or_none(v), "unit": unit} for k, (v, unit, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def run_all(args) -> int:
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
