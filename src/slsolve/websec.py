"""Web-sanitizer machinery and the mutation-XSS benchmark suite.

The transducers here model the string functions that actually appear in
DOM sanitization flows: HTML entity escaping, JavaScript string
escaping, and the browser's entity *decoding* that happens when markup
is pushed through ``innerHTML``.  The benchmark problems wire those
functions into straight-line constraints asking "can any user input make
the final markup match an attack shape?".
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .automata import Alphabet
from .constraints import Problem
from .transducer import Transducer, erase_transducer, identity_transducer

#: Characters sufficient for every benchmark: the letters and digits the
#: markup fragments use, plus HTML/JS metacharacters.  Order is the tie
#: break for witness extraction, so it is part of the contract.
WEB_ALPHABET_CHARS = (
    "abcdefghiklmnopqrstuvwz"
    "CFL"
    "01349"
    "&#;<>()'\"\\/=:. "
)

WEB_ALPHABET = Alphabet.of(WEB_ALPHABET_CHARS)


class UnknownTransducer(ValueError):
    pass


_HTML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#39;"}
_JS_ESCAPES = {"'": "\\'", '"': '\\"', "\\": "\\\\"}
_DECODE_PATTERNS = {"&#34;": '"', "&quot;": '"', "&#39;": "'"}


def _require(alphabet: Alphabet, needed: set[str], name: str) -> None:
    missing = sorted(c for c in needed if c not in alphabet)
    if missing:
        raise ValueError(f"{name} needs alphabet characters {missing!r}")


def _escape_machine(alphabet: Alphabet, table: dict[str, str], name: str) -> Transducer:
    """One state: each character of ``table`` escaped, the rest copied."""
    escapes = {c: out for c, out in table.items() if c in alphabet}
    _require(alphabet, set("".join(escapes.values())), name)
    rules = tuple((0, c, escapes.get(c, c), 0) for c in alphabet)
    return Transducer(alphabet, 1, rules, 0, frozenset({0}))


def html_escape_transducer(alphabet: Alphabet) -> Transducer:
    """Entity-escape ``& < > " '``; every other character copies through."""
    return _escape_machine(alphabet, _HTML_ESCAPES, "htmlEscape")


def escape_string_transducer(alphabet: Alphabet) -> Transducer:
    """Backslash-escape quotes and backslashes, as JS string embedding does."""
    return _escape_machine(alphabet, _JS_ESCAPES, "escapeString")


def innerhtml_decode_transducer(alphabet: Alphabet) -> Transducer:
    """Leftmost replacement of the quote entities ``&#34; &quot; &#39;``.

    This is the mutation step of ``innerHTML``: the browser re-parses
    markup and decodes quote entities (the ampersand forms ``&amp;``,
    ``&lt;``, ``&gt;`` survive a single round trip in the modelled flow
    and deliberately stay untouched here).

    Built as a subsequential machine: a state per proper prefix of a
    pattern (the pending buffer), a full match emitting the replacement,
    a mismatch flushing the buffer — restarting at ``&`` when the failed
    character could begin a new pattern — and end-of-input flushing into
    a dedicated accepting sink.  On every input exactly one output word
    is produced, so the relation is a function.
    """
    needed = set("".join(_DECODE_PATTERNS)) | set(_DECODE_PATTERNS.values())
    _require(alphabet, needed, "innerHTMLDecode")
    prefixes = sorted(
        {p[:i] for p in _DECODE_PATTERNS for i in range(len(p))},
        key=lambda s: (len(s), s),
    )
    ids = {p: i for i, p in enumerate(prefixes)}
    sink = len(prefixes)
    rules: list[tuple[int, str, str, int]] = []
    for p in prefixes:
        pid = ids[p]
        for c in alphabet:
            ext = p + c
            if ext in _DECODE_PATTERNS:
                rules.append((pid, c, _DECODE_PATTERNS[ext], ids[""]))
            elif ext in ids:
                rules.append((pid, c, "", ids[ext]))
            elif c == "&":
                rules.append((pid, c, p, ids["&"]))
            else:
                rules.append((pid, c, ext, ids[""]))
        if p:
            rules.append((pid, "", p, sink))
    return Transducer(
        alphabet,
        sink + 1,
        rules,
        ids[""],
        frozenset({ids[""], sink}),
    )


def builtin_transducer(name: str, alphabet: Alphabet) -> Transducer:
    """Resolve a transducer name as used in ``.slp`` files.

    Supported: ``identity``, ``erase[<chars>]``, ``htmlEscape``,
    ``escapeString``, ``innerHTMLDecode``.
    """
    if name == "identity":
        return identity_transducer(alphabet)
    if name.startswith("erase[") and name.endswith("]"):
        chars = name[len("erase["):-1]
        _require(alphabet, set(chars), name)
        return erase_transducer(alphabet, chars)
    if name == "htmlEscape":
        return html_escape_transducer(alphabet)
    if name == "escapeString":
        return escape_string_transducer(alphabet)
    if name == "innerHTMLDecode":
        return innerhtml_decode_transducer(alphabet)
    raise UnknownTransducer(f"unknown transducer {name!r}")


# ---------------------------------------------------------------------------
# Benchmarks


@dataclass(frozen=True)
class BenchmarkCase:
    """One sanitization flow plus the attack-shape query against it."""

    name: str
    description: str
    input_var: str
    sink_var: str
    expected: str  # "sat" or "unsat"
    problem: Problem
    source: str


_BENCHMARK_META: dict[str, tuple[str, str, str, str]] = {
    "ex_cacm": (
        "Category widget: user text is HTML-escaped, then JS-string-escaped, "
        "spliced into an onclick attribute and into element text, and the "
        "result is re-parsed through innerHTML.  Escaping in this order "
        "leaves a JS injection open.",
        "cat",
        "ci",
        "sat",
    ),
    "ex_corrected": (
        "The repaired category widget: JS-string escaping happens first, "
        "HTML escaping second.  The same attack shape is now unreachable.",
        "cat",
        "ci",
        "unsat",
    ),
    "ex_mxss1": (
        "A flow that decodes untrusted markup via innerHTML once before "
        "re-escaping it; the round trip manufactures a quote the later "
        "escaping no longer sees.",
        "cat",
        "ci",
        "sat",
    ),
    "ex_iframe": (
        "An iframe is assembled from a user-controlled id attribute, a "
        "fixed name, and a fixed src, then parsed through innerHTML; a "
        "quote entity in the id smuggles an onload handler in.",
        "z",
        "xi",
        "sat",
    ),
}


def benchmark_names() -> tuple[str, ...]:
    return tuple(_BENCHMARK_META)


def load_benchmark(name: str) -> BenchmarkCase:
    """Load a named benchmark shipped with the package."""
    if name not in _BENCHMARK_META:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(_BENCHMARK_META)}"
        )
    description, input_var, sink_var, expected = _BENCHMARK_META[name]
    source = (
        resources.files("slsolve").joinpath(f"benchmarks/{name}.slp").read_text()
    )
    from .parser import parse_problem

    problem = parse_problem(source)
    return BenchmarkCase(
        name, description, input_var, sink_var, expected, problem, source
    )
