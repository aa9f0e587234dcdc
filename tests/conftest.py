"""Fixtures shared by several test modules."""

from __future__ import annotations

import sys
from types import ModuleType

import pytest
from outcome_digest import load_workloads

from slsolve.constraints import Problem
from slsolve.oracle import gen_random_problem


@pytest.fixture(scope="session")
def string_problems() -> list[Problem]:
    """The seeded string-only corpus, seeds 0..499, generated once per session.

    The acceptance, outcome, placement, solver and oracle tests read
    it or a prefix of it.
    """
    return [gen_random_problem(seed) for seed in range(500)]


@pytest.fixture(scope="session")
def extension_problems() -> list[Problem]:
    """The seeded extension corpus, seeds 0..299, generated once per session.

    Generating it takes 2.1-2.4 s on a 2-core host (the generator
    resamples until an instance is small enough for the brute-force
    oracle, rejecting most attempts by a cheap lower bound on their
    model size), and the walk, outcome, lowering and acceptance tests
    all read it.
    """
    return [gen_random_problem(seed, with_extensions=True) for seed in range(300)]


@pytest.fixture
def workloads(monkeypatch) -> ModuleType:
    """The benchmark's workload module (``perfbench/workloads.py``), loaded by path."""
    # The loader registers the module; the test's end restores the entry.
    monkeypatch.setitem(sys.modules, "workloads", None)
    return load_workloads()
