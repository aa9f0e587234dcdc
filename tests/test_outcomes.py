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
from outcome_digest import corpora, corpus_lines, load_workloads

PINNED = """\
benchmark 132 status    8dc21865b3450f3ec434cdb06a14e9144a51ab793828e2a905155846f60b4988
benchmark 132 model     fe27f316fa67dc024906f584e82be5d014585cfd2b95197b1597eb92215664d8
benchmark 132 int_bound 7f6e5a06221892ae89d7b9d8967fdfdfc05ab9ac0588594cb9dee709b53a42b1
benchmark 132 stats     a2bed7c31ab29783560945a089946ecc48c7a6d3f639b33949c5459e1bd528ce
string    500 status    7c16a933525396ae5bc21abd81c65c15c4a3808701b28c55c10c8f2c5589d759
string    500 model     f31843135cf684ac47efd412c6c8e614c0a7cf3f2261b01cfc3f64b631ae771d
string    500 int_bound dbe6aae6c7ac613d04c6bc7d77ab58a9635c14d70edf818f67b0c48c2af74381
string    500 stats     af59c51e02bd0bfd7ec3b26d0986b4dd0a62389177b370d12a750db13b4e5a29
extension 300 status    1c096748c6011abf4c2d8f5564bb24b18d811f3d03b5018337cd7a379d8005ce
extension 300 model     9f7b55894f447864b0f869c2bc88ce46169d5757e3c5410bc8e576f10b307c06
extension 300 int_bound d6f6b2363c1493b46ed6baae676db679947ad2020f3b81351c1910720c6c84b9
extension 300 stats     09c7dc2c51286811325040f43fd5bae1ea22844d8fa27c0996c363dc78d4b83b
ext-300   300 status    e1d3b086e9e09f853dee0f64e0c68fcadfd05edbcc79249993bb7f3567405eae
ext-300   300 model     15f56119fd6f82c8edf11c4b45d5d05a227539b7540ce8715a122bf4ebdb2b4e
ext-300   300 int_bound 3bec9ed1a37837e80c774ed29d3c2f7845bc309bdbac25759567fd267b8a0380
ext-300   300 stats     4860a3b6706a89b11a3c43c4636793ab0d055913f49efadfc2ea5833470d5cef
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
