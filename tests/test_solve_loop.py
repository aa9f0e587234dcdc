"""The one solve loop on the four sanitizer benchmarks, pinned per case.

``solve`` runs membership normalization, splitting and forest
propagation once for string-only and extension problems.  Each sanitizer
benchmark's verdict, model, integer bound and ``stats`` are pinned here
as one sha256 digest, recorded while a copy of the earlier string-only
solve loop still checked every one of these solves (same verdict, same
model, same ``stats``).  The whole benchmark corpus is also pinned, as a
corpus, in ``tests/test_outcomes.py``; this module names the case that
moved.

To re-record, print :func:`case_digest` for each name and paste it into
``PINNED``; a moved ``stats`` needs a reason at search level, a moved
verdict or model one at verdict level.
"""

from __future__ import annotations

import hashlib

import pytest
from outcome_digest import outcome

from slsolve.websec import benchmark_names, load_benchmark

PINNED = {
    "ex_cacm": "067550ac4cfa954680d7a0960b934845c109aa29eae24ef0fce7e641c6b77cab",
    "ex_corrected": "db616c3eb4ca690af43bec698b99c9a3d7b512ff5af5cc1855099335c06be4c0",
    "ex_mxss1": "b30fea9ff8d31304c21c6254751557195603c964b94cfc1921705a5ec9af68d2",
    "ex_iframe": "cbe88d3f64299606811305f9bec02e3ad98cd289fa85dd300b2563b161b9fe0a",
}


def case_digest(fields: dict[str, str]) -> str:
    """The sha256 of an outcome's fields, one line each, in order."""
    text = "".join(f"{fields[f]}\n" for f in ("status", "model", "int_bound", "stats"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_benchmark_is_pinned():
    assert set(PINNED) == set(benchmark_names())


@pytest.mark.parametrize("name", benchmark_names())
def test_sanitizer_benchmarks_match_the_reference(name):
    case = load_benchmark(name)
    fields = outcome(case.problem, {})
    assert fields["status"] == case.expected
    assert case_digest(fields) == PINNED[name]
