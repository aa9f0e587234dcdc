"""Solving leaves no reference cycles behind.

Whatever a solve builds (automata, transducer segments, scenario
tuples) should be freed by reference counting as soon as the solve
returns.  Anything caught in a cycle (a nested function that calls
itself, a machine that caches itself) waits for a full run of the
cyclic collector instead, and until then it holds on to every automaton
it reaches.
"""

import gc

from slsolve.oracle import gen_random_problem
from slsolve.solver import solve
from slsolve.websec import benchmark_names, load_benchmark


def test_solves_leave_no_cyclic_garbage(workloads):
    """The sanitizer cases, one square chain per family, extension seeds 0..19."""
    square = {}
    for inst in workloads.build("square-chain"):
        family, _, dim = inst.name.rpartition("-d")
        if dim == "4":
            square[family] = inst.problem
    assert len(square) == len(workloads.SQUARE_FAMILIES)
    cases = [(load_benchmark(name).problem, {}) for name in benchmark_names()]
    cases += [(problem, {}) for problem in square.values()]
    cases += [
        (gen_random_problem(seed, with_extensions=True), {"resource_limit": 10_000})
        for seed in range(20)
    ]
    assert_no_cyclic_garbage(cases)


def test_exhausted_solves_leave_no_cyclic_garbage():
    """A spent budget raises out of the placement search or a walk."""
    cases = [
        (load_benchmark(name).problem, {"resource_limit": 1})
        for name in ("ex_cacm", "ex_mxss1", "ex_iframe")
    ]
    cases.append(
        (gen_random_problem(48, with_extensions=True), {"resource_limit": 300})
    )
    for problem, kwargs in cases:
        assert solve(problem, **kwargs).status == "resource-limit"
    assert_no_cyclic_garbage(cases)


def assert_no_cyclic_garbage(cases) -> None:
    gc.collect()
    gc.disable()
    try:
        for problem, kwargs in cases:
            solve(problem, **kwargs)
        assert gc.collect() == 0
    finally:
        gc.enable()
