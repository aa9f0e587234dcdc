#!/usr/bin/env python3
"""Solve every bundled sanitizer benchmark end to end.

For each bundled problem this script prints the constraint text, checks
it is straight-line, reports the dimension, solves it, and — when an
attack exists — replays the witness through the sanitizer pipeline to
show exactly what reaches the sink and why it is dangerous.

Run:  python3 demos/benchmark_tour.py
"""

import time

from slsolve.automata import nfa_enumerate, nfa_membership
from slsolve.constraints import Lit, RegAtom, TransducerEq, evaluate, tree_leaves
from slsolve.parser import quote_word
from slsolve.solver import solve
from slsolve.straightline import check_straightline, dimension
from slsolve.transducer import apply_function
from slsolve.websec import benchmark_names, load_benchmark


def rule(char: str = "=", width: int = 72) -> None:
    print(char * width)


def section(title: str) -> None:
    print()
    rule()
    print(f" {title}")
    rule()


def replay(case, model: dict) -> dict:
    """Recompute every derived variable from the model's source values."""
    graph = check_straightline(case.problem)
    value = {v: model[v] for v in graph.sources}
    for var in graph.order:
        rel = graph.defining.get(var)
        if rel is None:
            continue
        if isinstance(rel, TransducerEq):
            image = apply_function(rel.transducer, value[rel.arg])
            words = nfa_enumerate(image, 8 * max(len(value[rel.arg]), 1))
            assert len(words) == 1
            value[var] = words[0]
        else:
            value[var] = "".join(
                item.text if isinstance(item, Lit) else value[item.name]
                for item in rel.items
            )
    return value


def sink_nfa(case):
    for leaf in tree_leaves(case.problem.regular):
        if isinstance(leaf.atom, RegAtom) and leaf.atom.var == case.sink_var:
            return leaf.atom.nfa
    raise AssertionError


def main() -> None:
    for name in benchmark_names():
        case = load_benchmark(name)
        section(f"benchmark: {name}")
        for line in case.source.strip().splitlines():
            print(f"    {line}")
        print()

        graph = check_straightline(case.problem)
        print(f"straight-line order: {', '.join(graph.order)}")
        print(f"dimension:           {dimension(case.problem)}")

        start = time.monotonic()
        verdict = solve(case.problem)
        elapsed = time.monotonic() - start
        print(f"verdict:             {verdict.status}   ({elapsed:.2f}s)")
        assert verdict.status == case.expected, "unexpected verdict"

        if not verdict.is_sat:
            print()
            print("No input reaches the attack shape: this pipeline escapes")
            print("in an order the decode step cannot undo.")
            continue

        model = verdict.model
        assert evaluate(case.problem, model)
        print()
        print(f"attack input ({case.input_var}):")
        print(f"    {quote_word(model[case.input_var])}")

        value = replay(case, model)
        assert value == model, "replay must reproduce the model exactly"
        print()
        print("pipeline replay (each stage recomputed from the input):")
        for var in graph.order:
            origin = "source" if var in graph.sources else "derived"
            print(f"    {var:<4} [{origin}]  {quote_word(value[var])}")

        assert nfa_membership(sink_nfa(case), value[case.sink_var])
        print()
        print(f"The sink value of {case.sink_var} matches the attack pattern:")
        print("the escaped quote has been decoded back to life before it is")
        print("pasted into the event-handler script.")

    print()
    rule()
    print(" All benchmarks solved with their expected verdicts.")
    rule()


if __name__ == "__main__":
    main()
