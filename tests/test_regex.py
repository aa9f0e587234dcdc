"""Pattern compilation checked by language enumeration.

Each pattern's compiled NFA is compared against Python's own ``re``
module (full-match semantics) on every word up to a small length, which
keeps the expectations independent of the compiler under test.
"""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsolve.automata import Alphabet, nfa_enumerate, nfa_membership
from slsolve.regex import RegexSyntaxError, regex_parse

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def words_up_to(alphabet: Alphabet, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(alphabet.symbols, repeat=n))
    return out


def assert_matches_re(pattern: str, alphabet: Alphabet, max_len: int = 5) -> None:
    nfa = regex_parse(pattern, alphabet)
    compiled = re.compile(pattern)
    for w in words_up_to(alphabet, max_len):
        assert nfa_membership(nfa, w) == bool(compiled.fullmatch(w)), (pattern, w)


@pytest.mark.parametrize(
    "pattern",
    [
        "a",
        "ab",
        "a*",
        "a+",
        "a?",
        "a|b",
        "(a|b)*",
        "a*|b*",
        "(ab)+",
        "a(b|a)?b",
        "(a|bb)*a",
        "[ab]",
        "[^a]",
        "[a-b]*",
        "a.b",
        ".*",
    ],
)
def test_patterns_agree_with_re(pattern):
    assert_matches_re(pattern, AB)


def test_three_letter_classes():
    assert_matches_re("[ac]*b", ABC, max_len=4)
    assert_matches_re("[^bc]", ABC, max_len=3)
    assert_matches_re("[a-c]+", ABC, max_len=3)


def test_empty_pattern_accepts_only_epsilon():
    assert nfa_enumerate(regex_parse("", AB), 2) == [""]
    assert nfa_enumerate(regex_parse("()", AB), 2) == [""]


def test_dot_means_any_alphabet_character():
    nfa = regex_parse(".", ABC)
    assert set(nfa_enumerate(nfa, 1)) == {"a", "b", "c"}


def test_escaped_specials_are_literals():
    alphabet = Alphabet.of("a*.")
    assert nfa_enumerate(regex_parse(r"\*", alphabet), 1) == ["*"]
    assert nfa_enumerate(regex_parse(r"\.", alphabet), 1) == ["."]
    assert nfa_enumerate(regex_parse(r"a\*", alphabet), 2) == ["a*"]


def test_negated_class_respects_alphabet():
    alphabet = Alphabet.of("a'")
    nfa = regex_parse("[^']", alphabet)
    assert nfa_enumerate(nfa, 1) == ["a"]


def test_nested_grouping_and_alternation():
    assert_matches_re("((a|b)(a|b))*", AB, max_len=5)
    assert_matches_re("a(ba)*b?", AB, max_len=5)


def test_syntax_errors():
    for bad in ["(", ")", "a)", "[ab", "*", "a**b(", "a|*", "\\"]:
        with pytest.raises(RegexSyntaxError):
            regex_parse(bad, AB)


def test_literal_outside_alphabet_rejected():
    with pytest.raises(RegexSyntaxError):
        regex_parse("c", AB)
    with pytest.raises(RegexSyntaxError):
        regex_parse(r"\c", AB)


def test_class_silently_restricts_to_alphabet():
    # Ranges may sweep past the alphabet; only declared letters survive.
    assert nfa_enumerate(regex_parse("[a-z]", AB), 1) == ["a", "b"]
    assert nfa_enumerate(regex_parse("[ac]", AB), 1) == ["a"]


def test_membership_example_from_docs():
    nfa = regex_parse("(a*|b*)", AB)
    for w in ["", "a", "aaa", "b", "bb"]:
        assert nfa_membership(nfa, w)
    assert not nfa_membership(nfa, "ab")


def test_nesting_a_hundred_deep_compiles():
    nfa = regex_parse("(" * 100 + "a|b" + ")" * 100, AB)
    assert sorted(nfa_enumerate(nfa, 2)) == ["a", "b"]


def test_nesting_too_deep_is_a_syntax_error():
    with pytest.raises(RegexSyntaxError, match="nested too deeply"):
        regex_parse("(" * 10_000 + "a" + ")" * 10_000, AB)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.text(alphabet="ab()|*+?.[]^-\\c", max_size=16))
def test_any_pattern_compiles_or_raises_a_syntax_error(pattern: str):
    try:
        regex_parse(pattern, AB)
    except RegexSyntaxError:
        pass
