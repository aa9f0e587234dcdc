"""Sanitizer transducers and the mutation-based injection benchmarks.

Each machine is checked byte-for-byte against a plain Python rewrite of
the string function it models, on fixed values and on fuzzed inputs.
The benchmark problems are then solved end to end: expected verdicts,
attack-witness replay through the sanitizer pipeline, and the claimed
dimension.
"""

import itertools
import random

from cut_path import cut_solve
from outcome_digest import pipeline_family

from slsolve.automata import nfa_enumerate, nfa_membership
from slsolve.constraints import (
    ConcatEq,
    Lit,
    RegAtom,
    TransducerEq,
    Var,
    evaluate,
    tree_leaves,
)
from slsolve import solver
from slsolve.solver import solve
from slsolve.straightline import check_straightline, dimension
from slsolve.transducer import apply_function, transducer_membership
from slsolve.websec import (
    WEB_ALPHABET,
    UnknownTransducer,
    benchmark_names,
    builtin_transducer,
    html_escape_transducer,
    innerhtml_decode_transducer,
    escape_string_transducer,
    load_benchmark,
)

HTML_MAP = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#39;"}
JS_MAP = {"'": "\\'", '"': '\\"', "\\": "\\\\"}
DECODE_PATTERNS = [("&#34;", '"'), ("&quot;", '"'), ("&#39;", "'")]


def html_ref(text: str) -> str:
    return "".join(HTML_MAP.get(c, c) for c in text)


def js_ref(text: str) -> str:
    return "".join(JS_MAP.get(c, c) for c in text)


def decode_ref(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        for pattern, repl in DECODE_PATTERNS:
            if text.startswith(pattern, i):
                out.append(repl)
                i += len(pattern)
                break
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def image_word(transducer, text: str) -> str:
    """The unique output — sanitizers are functions, so exactly one word."""
    words = nfa_enumerate(apply_function(transducer, text), 6 * max(len(text), 1))
    assert len(words) == 1, f"expected a function, got {words!r} on {text!r}"
    return words[0]


# ---------------------------------------------------------------------------
# Fixed input/output pairs


def test_html_escape_fixture():
    t = html_escape_transducer(WEB_ALPHABET)
    assert image_word(t, "Flora & Fauna") == "Flora &amp; Fauna"


def test_escape_string_fixture():
    t = escape_string_transducer(WEB_ALPHABET)
    assert image_word(t, "&#39;);alert(1);//") == "&#39;);alert(1);//"
    assert image_word(t, "it's") == "it\\'s"


def test_innerhtml_decode_fixture():
    t = innerhtml_decode_transducer(WEB_ALPHABET)
    assert image_word(t, "&#39;);alert(1);//") == "');alert(1);//"
    assert image_word(t, "&quot;&#34;") == '""'
    # Ampersand forms other than the quote entities survive untouched.
    assert image_word(t, "&amp;&lt;") == "&amp;&lt;"


# ---------------------------------------------------------------------------
# Differential checks against the reference rewrites


def test_machines_match_references_exhaustively_on_short_words():
    html = html_escape_transducer(WEB_ALPHABET)
    js = escape_string_transducer(WEB_ALPHABET)
    decode = innerhtml_decode_transducer(WEB_ALPHABET)
    tricky = "a&#39;4qu\"\\"
    for n in range(3):
        for letters in itertools.product(tricky, repeat=n):
            text = "".join(letters)
            assert image_word(html, text) == html_ref(text)
            assert image_word(js, text) == js_ref(text)
            assert image_word(decode, text) == decode_ref(text)


def test_machines_match_references_on_fuzzed_words():
    html = html_escape_transducer(WEB_ALPHABET)
    js = escape_string_transducer(WEB_ALPHABET)
    decode = innerhtml_decode_transducer(WEB_ALPHABET)
    rng = random.Random(20240918)
    pieces = ["&#3", "&#34;", "&#39;", "&quot", "&quot;", "&", ";", "'", '"', "\\"]
    for _ in range(200):
        text = "".join(
            rng.choice(pieces) if rng.random() < 0.5 else rng.choice(WEB_ALPHABET.symbols)
            for _ in range(rng.randint(0, 8))
        )
        assert image_word(html, text) == html_ref(text)
        assert image_word(js, text) == js_ref(text)
        assert image_word(decode, text) == decode_ref(text)


def test_decode_membership_is_functional_on_entity_boundaries():
    decode = innerhtml_decode_transducer(WEB_ALPHABET)
    assert transducer_membership(decode, "&#34;", '"')
    assert not transducer_membership(decode, "&#34;", "&#34;")
    assert transducer_membership(decode, "&#3", "&#3")
    assert transducer_membership(decode, "", "")


# ---------------------------------------------------------------------------
# Name resolution


def test_builtin_transducer_names():
    assert image_word(builtin_transducer("identity", WEB_ALPHABET), "ab") == "ab"
    assert image_word(builtin_transducer("erase[<]", WEB_ALPHABET), "<a<b") == "ab"
    assert image_word(builtin_transducer("htmlEscape", WEB_ALPHABET), "<") == "&lt;"
    assert image_word(builtin_transducer("escapeString", WEB_ALPHABET), "'") == "\\'"
    assert image_word(builtin_transducer("innerHTMLDecode", WEB_ALPHABET), "&#39;") == "'"


def test_unknown_transducer_name_is_rejected():
    try:
        builtin_transducer("mystery", WEB_ALPHABET)
    except UnknownTransducer as exc:
        assert "mystery" in str(exc)
    else:
        raise AssertionError("expected UnknownTransducer")


# ---------------------------------------------------------------------------
# The benchmark suite


def pipeline_replay(problem, model):
    """Recompute every derived variable from the model's source values.

    The sanitizer machines are functions, so the replay is forced; it
    must land exactly on the values the solver reported.
    """
    graph = check_straightline(problem)
    value = {var: model[var] for var in graph.sources}
    for var in graph.order:
        rel = graph.defining.get(var)
        if rel is None:
            continue
        if isinstance(rel, TransducerEq):
            value[var] = image_word(rel.transducer, value[rel.arg])
        else:
            assert isinstance(rel, ConcatEq)
            value[var] = "".join(
                item.text if isinstance(item, Lit) else value[item.name]
                for item in rel.items
            )
    return value


def sink_pattern(case):
    for leaf in tree_leaves(case.problem.regular):
        atom = leaf.atom
        assert isinstance(atom, RegAtom)
        if atom.var == case.sink_var:
            return atom.nfa
    raise AssertionError(f"no sink constraint in {case.name}")


def test_benchmark_names_and_loading():
    names = benchmark_names()
    assert names == ("ex_cacm", "ex_corrected", "ex_mxss1", "ex_iframe")
    case = load_benchmark("ex_cacm")
    assert case.input_var == "cat" and case.sink_var == "ci"
    assert case.problem.str_vars[0] == "cat"
    assert "htmlEscape" in case.source
    try:
        load_benchmark("nope")
    except KeyError as exc:
        assert "nope" in str(exc)
    else:
        raise AssertionError("expected KeyError")


def test_benchmarks_have_dimension_two():
    for name in benchmark_names():
        assert dimension(load_benchmark(name).problem) == 2, name


def test_benchmark_verdicts_and_witness_replay():
    for name in benchmark_names():
        case = load_benchmark(name)
        verdict = solve(case.problem)
        assert verdict.status == case.expected, (name, verdict.status)
        if not verdict.is_sat:
            continue
        model = verdict.model
        assert evaluate(case.problem, model)
        replayed = pipeline_replay(case.problem, model)
        assert replayed == model, f"{name}: replay diverged"
        assert nfa_membership(sink_pattern(case), replayed[case.sink_var]), name


def test_corrected_pipeline_never_matches_the_attack_shape_on_fuzz():
    """Escaping in the right order beats 200 random inputs; the broken
    order is beaten by the solver's own witness (previous test)."""
    case = load_benchmark("ex_corrected")
    attack = sink_pattern(case)
    graph = check_straightline(case.problem)
    rng = random.Random(20240919)
    pieces = ["'", '"', "\\", "&#39;", "&quot;", "&", ");", "alert(1)", "//", "a"]
    for _ in range(200):
        cat = "".join(
            rng.choice(pieces) for _ in range(rng.randint(0, 6))
        )
        model = {"cat": cat}
        for var in graph.order:
            rel = graph.defining.get(var)
            if rel is None:
                continue
            if isinstance(rel, TransducerEq):
                model[var] = image_word(rel.transducer, model[rel.arg])
            else:
                model[var] = "".join(
                    item.text if isinstance(item, Lit) else model[item.name]
                    for item in rel.items
                )
        assert not nfa_membership(attack, model[case.sink_var]), cat


# ---------------------------------------------------------------------------
# Deep pipelines


#: ``stats`` of each pipeline at depth 2: ``solve`` decides both by
#: forward ranges, as they are sharing-free, and the cut path builds one
#: forest.
FORWARD_RANGES = {
    "cut-placements": 0,
    "feasible-forests": 0,
    "forests": 0,
    "membership-branches": 1,
    "ranges": 4,
}
ONE_FOREST = {
    "cut-placements": 0,
    "feasible-forests": 1,
    "forests": 1,
    "membership-branches": 1,
}

#: Verdict and model of each pipeline at depth 2, from ``solve`` and from
#: the cut path.  ``solve`` reads the model top-down from the last value,
#: which takes its shortest word first, so ``pipe`` starts from ``&#39;``
#: where the cut path, shortest source first, starts from a quote.
PIPELINES = {
    "pipe": (
        "sat",
        {"x0": "&#39;", "x1": "'", "x2": "\\'", "y0": "&#39;", "y1": "\\'"},
        {"x0": "'", "x1": "\\'", "x2": "\\\\\\'", "y0": "\\'", "y1": "\\\\\\'"},
    ),
    "wrap": (
        "sat",
        {
            "x0": "",
            "x1": "<a title=''>",
            "x2": "<a title='<a title=''>'>",
            "y0": "",
            "y1": "<a title=''>",
        },
        {
            "x0": "",
            "x1": "<a title=''>",
            "x2": "<a title='<a title=''>'>",
            "y0": "",
            "y1": "<a title=''>",
        },
    ),
}


def test_depth_two_pipelines_are_pinned_and_replay():
    for name, (status, model, cut_model) in PIPELINES.items():
        problem = pipeline_family(name, 2)
        for run, expected, expected_stats in (
            (solve, model, FORWARD_RANGES),
            (cut_solve, cut_model, ONE_FOREST),
        ):
            stats: dict = {}
            verdict = run(problem, stats=stats)
            assert (verdict.status, verdict.model, stats) == (
                status,
                expected,
                expected_stats,
            )
            assert pipeline_replay(problem, verdict.model) == expected, name


def test_unsat_splice_builds_each_segment_once(monkeypatch):
    """The segment cache pays on an unsat splice.

    No benchmark instance or pinned corpus builds a segment twice in one
    solve; this splice, with ``x0`` kept free of quotes, places the same
    ``htmlEscape`` boundaries under 56 forests and builds 57 segments
    with the cache, 113 without it.
    """
    built = []
    build = solver._segment_machine

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(solver, "_segment_machine", counted)
    stats: dict = {}
    verdict = solve(pipeline_family("splice", 2, "regc (in x0 /[a-z]*/)"), stats=stats)
    assert (verdict.status, len(built)) == ("unsat", 57)
    assert stats == {
        "cut-placements": 68,
        "feasible-forests": 0,
        "forests": 56,
        "membership-branches": 1,
    }


#: Sink regex on ``u = x2 . x2 . x2`` -> (forests, cut placements).  The
#: forward range of ``x1``, a concatenation, pins the unsplit image
#: ``y1``; without it the same verdicts take 182 and 156 placements.
WRAP_SPLITS = {
    "(<a title='[a-z]*'>)*;": (0, 13),
    "(<a title='[a-z]*'>)*": (0, 12),
}


def test_wrap_chain_ending_in_a_split_is_pruned_by_concatenation_ranges():
    for sink, (forests, placements) in WRAP_SPLITS.items():
        problem = pipeline_family(
            "wrap", 2, "str u", "u = x2 . x2 . x2", f"regc (in u /{sink}/)"
        )
        stats: dict = {}
        assert solve(problem, stats=stats).status == "unsat", sink
        assert (stats["forests"], stats["cut-placements"]) == (forests, placements)
