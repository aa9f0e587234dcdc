"""Verdicts, models and counters of every fixed corpus, pinned.

Every line that ``python3 tests/outcome_digest.py`` prints is pinned
here: for each corpus (the benchmark's 132 instances, string seeds
0..499, extension seeds 0..299 at resource limits 10,000 and 300), one
sha256 digest per field over all its instances, in order.

- ``status``, ``model`` and ``int_bound`` are semantic pins: they move
  only when some verdict or model does, which needs a reason at verdict
  level.
- ``stats`` is a shape pin: a change to the search (fewer cut
  placements, say) moves it, and such a change may re-record it, saying
  why.

The ``pipelines`` line pins the status and model of the ``pipe``,
``wrap`` and ``splice`` chains at depths 1..5; it was recorded before
witnesses were read by a word-driven search instead of being taken from
a built image automaton, and that change kept it.

The ``benchmark`` and ``string`` stats lines were re-recorded when
sharing-free string problems began to be decided by forward ranges
(``ex_iframe`` and 474 string seeds): those solves build no forest,
place no cut, and report the ranges they build.

The pins were recorded while copies of the earlier string-only and
extension solve loops still checked every solve of these corpora
(same verdict, same model, same ``stats``).  To re-record, run the
script and paste its lines into ``PINNED``.  The test solves each
corpus once, through the script's :func:`outcome`, on the session's
corpora.
"""

import functools
import sys

import pytest
from outcome_digest import corpora, corpus_lines, load_workloads, pipelines_line

PINNED = """\
benchmark 132 status    2828758d41cb92bb2dc0a321a9441c6735f51f4df38f4bb482941c4dcd7b56be
benchmark 132 model     e07d3e1df27999e2771d1a8c1f6e67196d71c32b5169b733a2af5829e304a6c7
benchmark 132 int_bound b079b5843796f6a4dbb642db0c51fe5beaa3eddaefedb5e7433d38d2a3fd61db
benchmark 132 stats     f5f5b59f2baf37e0c997df9d0ec4d739ee9a400e1afc144452be9934796ad330
string    500 status    7c16a933525396ae5bc21abd81c65c15c4a3808701b28c55c10c8f2c5589d759
string    500 model     f31843135cf684ac47efd412c6c8e614c0a7cf3f2261b01cfc3f64b631ae771d
string    500 int_bound dbe6aae6c7ac613d04c6bc7d77ab58a9635c14d70edf818f67b0c48c2af74381
string    500 stats     01a2044d1a5876d3bf8d088c2f365ddd74d79794e56d4ed7d302ef1f037897ca
extension 300 status    f6a587ea0e20515d9629cbb3f0aa3698a22808c46130c1bc7d4ba5287631e773
extension 300 model     3f0d6c3a4054623c8029f7482094479b29877fae850300cc30ac989680c2e12b
extension 300 int_bound fee0f131f630acb296dd20740a5a0b5eb6a7db1d43ebc9dff211d09987fcdf8f
extension 300 stats     a09cba6bd27e3eab79bb24924721a538c9ad15de654d3b5fdff1a784c1a0952b
ext-300   300 status    0206e214a7bef0a47a6af406f55f99711a691a3c71b34f768f48e2e7ec0cbb72
ext-300   300 model     5d0d640f663befcad4669a53aecc1250146f1395e5be9e9ab2353b97904856fc
ext-300   300 int_bound c4de13bc35a24254eeef6139283c2e2f1295b4bb7d0a3b460d0d7369b8852435
ext-300   300 stats     37b3205ffece4c0790f684da00b3a8ba3a35c3079c38c07f2f89811d0b763d81
pipelines  15 verdict   de362805318972f5a9d992b4a312a97a98ffa356cd2fd0533b0b8f907dd078b5
"""

CORPORA = ("benchmark", "string", "extension", "ext-300")
SEMANTIC = ("status", "model", "int_bound")


def select(lines, corpus: str, fields) -> list[str]:
    """The lines of one corpus that pin the given fields."""
    return [
        line for line in lines if (w := line.split())[0] == corpus and w[2] in fields
    ]


@pytest.fixture(scope="module")
def printed(string_problems, extension_problems):
    """The script's lines for a corpus, each corpus solved on first use."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "workloads", None)
        workloads = load_workloads()
    cases = dict(corpora(workloads, string_problems, extension_problems))
    return functools.cache(lambda corpus: corpus_lines(corpus, cases[corpus]))


@pytest.mark.parametrize("corpus", CORPORA)
def test_verdicts_and_models_are_pinned(printed, corpus):
    got = select(printed(corpus), corpus, SEMANTIC)
    assert got == select(PINNED.splitlines(), corpus, SEMANTIC)


@pytest.mark.parametrize("corpus", CORPORA)
def test_stats_are_pinned(printed, corpus):
    got = select(printed(corpus), corpus, ("stats",))
    assert got == select(PINNED.splitlines(), corpus, ("stats",))


def test_pipeline_models_are_pinned():
    assert pipelines_line() == PINNED.splitlines()[-1]
