"""Per-layer spans and counts for slsolve, recorded from outside the package.

:meth:`Tracer.install` replaces each function in ``WRAPPED`` at every
binding in the loaded ``slsolve`` modules (``solver`` imports the
automata and transducer kernels by name, ``extensions`` imports the
solver stages by name), and :meth:`Tracer.uninstall` puts the originals
back.  Generator functions are timed per ``next()``, because their work
happens while the caller iterates.

While a solve is traced, each wrapped call is a span (name, start, end,
parent span, instance).  The tracer sums, per span name, the calls, the
self time (duration minus child spans) and the inclusive time of the
outermost call of that name; hooks add counts read off results.  Spans
themselves are kept only while ``record`` is set.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable


def _count_if(key: str, cond: Callable[[object], bool]):
    def hook(stats: dict, result: object) -> None:
        if cond(result):
            stats[key] += 1

    return hook


def _peak_states(key: str):
    def hook(stats: dict, result) -> None:
        stats[key] = max(stats[key], result.n_states)

    return hook


#: (module, function, span name, result hook).  Names under one stage
#: prefix (``solver.split.*``) are that stage's helpers.
WRAPPED = (
    ("parser", "parse_problem", "parser.parse", None),
    ("regex", "regex_parse", "parser.parse", None),
    ("straightline", "check_straightline", "straightline.check", None),
    ("solver", "normalize_regular", "solver.normalize", None),
    ("solver", "_branch_forests", "solver.split", None),
    ("solver", "_var_ranges", "solver.split.ranges", None),
    ("solver", "_boundary_filter", "solver.split.filter",
     _count_if("solver.split.filter.capped", lambda r: r is None)),
    ("solver", "_pieces_for", "solver.split.pieces",
     _count_if("solver.split.pieces.alive", lambda r: r is not None)),
    ("solver", "_segment_machine", "solver.split.segment", None),
    ("solver", "_propagate", "solver.propagate",
     _count_if("solver.propagate.feasible", lambda r: r is not None)),
    ("solver", "_extract", "solver.extract", None),
    ("extensions", "lower_integer_terms", "extensions.lower", None),
    ("extensions", "enumerate_scenarios", "extensions.lower", None),
    ("extensions", "counter_walk_solve", "extensions.walk", None),
    ("constraints", "evaluate", "constraints.evaluate", None),
    ("transducer", "pre_image_within", "transducer.pre_image",
     _peak_states("transducer.pre_image.peak_states")),
    ("transducer", "post_image", "transducer.post_image", None),
    ("transducer", "transducer_normalize", "transducer.normalize", None),
    ("transducer", "apply_function", "transducer.apply", None),
    ("automata", "nfa_reduce", "automata.reduce", None),
    ("automata", "nfa_trim", "automata.trim", None),
    ("automata", "nfa_intersect", "automata.intersect",
     _peak_states("automata.intersect.peak_states")),
    ("automata", "nfa_eps_eliminate", "automata.eps_eliminate", None),
    ("automata", "nfa_multi_slice", "automata.multi_slice", None),
    ("automata", "nfa_complement", "automata.complement", None),
)

#: Spans whose subtrees partition a solve; the largest says which layer a
#: workload exercises.
STAGES = (
    "straightline.check",
    "solver.normalize",
    "solver.split",
    "solver.propagate",
    "solver.extract",
    "extensions.lower",
    "extensions.walk",
    "constraints.evaluate",
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.record = False
        self.instance = -1
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._begin()

    def _begin(self) -> None:
        self.stats: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._depth: Counter[str] = Counter()

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for mod, _func, _name, _hook in WRAPPED:
            importlib.import_module(f"slsolve.{mod}")
        modules = [m for k, m in sys.modules.items() if k == "slsolve" or k.startswith("slsolve.")]
        for mod, func, name, hook in WRAPPED:
            original = getattr(sys.modules[f"slsolve.{mod}"], func)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap_call(original, name, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap_call(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(self.stats, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return self._timed(gen, name) if self.active else gen

        return wrapper

    def _timed(self, gen, name: str):
        while True:
            self.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.exit()
            self.stats[name + ".yields"] += 1
            yield item

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1
        self._depth[name] += 1

    def exit(self) -> None:
        end = time.perf_counter()
        name, span_id, start, child = self._stack.pop()
        duration = end - start
        stats = self.stats
        stats[name + ".calls"] += 1
        stats[name + ".self"] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            stats[name + ".incl"] += duration
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][1]
        if self.record:
            self.spans.append((span_id, name, start, end, parent, self.instance))

    def start(self, instance: int) -> None:
        """Begin tracing one unit of work (a solve, or the set-up as -1)."""
        self._begin()
        self.instance = instance
        self.active = True

    def stop(self) -> dict[str, float]:
        """End the current unit; returns its sums and counts by key."""
        self.active = False
        return dict(self.stats)


def layer_metrics(per_instance: list[dict[str, float]], setup: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one pass over the instances.

    ``per_instance`` holds one :meth:`Tracer.stop` result per instance
    (extended with the solve's ``stats`` counters); peaks are maxima over
    instances, everything else is summed.  Times are in milliseconds.
    """
    tot: defaultdict[str, float] = defaultdict(float)
    for stats in per_instance:
        for key, value in stats.items():
            if key.endswith("peak_states"):
                tot[key] = max(tot[key], value)
            else:
                tot[key] += value

    def ms(key: str) -> tuple[float, str]:
        return (1000.0 * tot[key], "ms")

    def count(key: str) -> tuple[float, str]:
        return (tot[key], "count")

    split_self = sum(v for k, v in tot.items() if k.startswith("solver.split") and k.endswith(".self"))
    calls = tot["solver.split.pieces.calls"]
    return {
        "solver.split.self_ms": (1000.0 * split_self, "ms"),
        "solver.split.forests": count("solver.split.yields"),
        "solver.split.pieces_calls": count("solver.split.pieces.calls"),
        "solver.split.pieces_alive": count("solver.split.pieces.alive"),
        "solver.split.piece_yield": (tot["solver.split.pieces.alive"] / calls if calls else 0.0, "frac"),
        "solver.split.segments_built": count("solver.split.segment.calls"),
        "solver.split.filter_calls": count("solver.split.filter.calls"),
        "solver.split.filter_capped": count("solver.split.filter.capped"),
        "solver.split.ranges_ms": ms("solver.split.ranges.incl"),
        "solver.propagate.calls": count("solver.propagate.calls"),
        "solver.propagate.feasible": count("solver.propagate.feasible"),
        "solver.propagate.self_ms": ms("solver.propagate.self"),
        "solver.extract.ms": ms("solver.extract.incl"),
        "solver.normalize.branches": count("solver.normalize.yields"),
        "solver.normalize.self_ms": ms("solver.normalize.self"),
        "transducer.pre_image_calls": count("transducer.pre_image.calls"),
        "transducer.pre_image_ms": ms("transducer.pre_image.incl"),
        "transducer.pre_image_peak_states": (tot["transducer.pre_image.peak_states"], "states"),
        "transducer.post_image_ms": ms("transducer.post_image.incl"),
        "transducer.normalize_ms": ms("transducer.normalize.incl"),
        "transducer.apply_ms": ms("transducer.apply.incl"),
        "automata.reduce_ms": ms("automata.reduce.incl"),
        "automata.trim_calls": count("automata.trim.calls"),
        "automata.trim_ms": ms("automata.trim.incl"),
        "automata.intersect_calls": count("automata.intersect.calls"),
        "automata.intersect_ms": ms("automata.intersect.incl"),
        "automata.intersect_peak_states": (tot["automata.intersect.peak_states"], "states"),
        "automata.eps_eliminate_calls": count("automata.eps_eliminate.calls"),
        "automata.eps_eliminate_ms": ms("automata.eps_eliminate.incl"),
        "automata.multi_slice_calls": count("automata.multi_slice.calls"),
        "automata.complement_calls": count("automata.complement.calls"),
        "extensions.scenarios": count("scenarios"),
        "extensions.walks": count("extensions.walk.calls"),
        "extensions.walk_ms": ms("extensions.walk.incl"),
        "extensions.budget_spent": count("budget_spent"),
        "extensions.lower_ms": ms("extensions.lower.incl"),
        "straightline.check_calls": count("straightline.check.calls"),
        "straightline.check_ms": ms("straightline.check.incl"),
        "constraints.evaluate_calls": count("constraints.evaluate.calls"),
        "constraints.evaluate_ms": ms("constraints.evaluate.incl"),
        "parser.parse_ms": (1000.0 * setup.get("parser.parse.incl", 0.0), "ms"),
    }


def stage_subtrees(per_instance: list[dict[str, float]]) -> dict[str, float]:
    """Inclusive milliseconds of each stage's spans, summed over instances."""
    return {
        stage: 1000.0 * sum(s.get(stage + ".incl", 0.0) for s in per_instance)
        for stage in STAGES
    }
