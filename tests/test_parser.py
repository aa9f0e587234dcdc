"""The ``.slp`` problem format: parsing, diagnostics, serialization.

Error cases assert the reported line number, since the command line
surfaces it to users; the happy paths assert the exact constraint
structures produced.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsolve.automata import EPSILON, Alphabet, nfa_enumerate, nfa_membership
from slsolve.constraints import (
    And,
    CharAtom,
    CharConst,
    CharPos,
    ConcatEq,
    CountTerm,
    Disequality,
    IndexOfAtom,
    IntTerm,
    Leaf,
    LenTerm,
    LinearAtom,
    Lit,
    Not,
    Problem,
    RegAtom,
    TransducerEq,
    Var,
)
from slsolve.parser import (
    ParseError,
    parse_problem,
    quote_word,
    unquote,
)
from slsolve.solver import solve
from slsolve.straightline import MultiplyDefined
from slsolve.transducer import transducer_membership

FULL_EXAMPLE = """\
# a little bit of everything
alphabet "ab"
str x y
int u

transducer strip {
  states 2
  initial 0
  final 1
  t 0 a/~ 1
  t 1 b/b 1
}

x = y . "ab" . y
y = strip(x)
regc (and (in x /a*b*/) (not (in y /b/)))
intc (<= (+ (len x) (* -1 (count y 'a')) u 2) 7)
charc (= x[u] y[1])
charc (= x[2] 'b')
u = indexof("ab", x, first)
x != y
"""


def test_parse_full_example_structure():
    problem = parse_problem(FULL_EXAMPLE)
    assert problem.alphabet.symbols == ("a", "b")
    assert problem.str_vars == ("x", "y")
    assert problem.int_vars == ("u",)

    concat, trans = problem.relations
    assert concat == ConcatEq("x", (Var("y"), Lit("ab"), Var("y")))
    assert isinstance(trans, TransducerEq)
    assert (trans.lhs, trans.name, trans.arg) == ("y", "strip", "x")
    assert transducer_membership(trans.transducer, "ab", "b")
    assert not transducer_membership(trans.transducer, "b", "b")

    assert isinstance(problem.regular, And)
    first, second = problem.regular.children
    assert isinstance(first, Leaf) and isinstance(first.atom, RegAtom)
    assert first.atom.var == "x" and first.atom.pattern == "a*b*"
    assert isinstance(second, Not)

    assert problem.integers == Leaf(
        LinearAtom(
            ((1, LenTerm("x")), (-1, CountTerm("y", "a")), (1, IntTerm("u"))),
            5,  # constant 2 folded into the bound: ... + 2 <= 7
        )
    )

    assert isinstance(problem.chars, And)
    atom1, atom2 = (leaf.atom for leaf in problem.chars.children)
    assert atom1 == CharAtom(CharPos("x", "u"), CharPos("y", 1))
    assert atom2 == CharAtom(CharPos("x", 2), CharConst("b"))

    assert problem.indexofs == (IndexOfAtom("u", "ab", Var("x"), first=True),)
    assert problem.disequalities == (Disequality("x", "y"),)


def test_parse_indexof_variants():
    problem = parse_problem(
        'alphabet "ab"\nstr x\nint u v\n'
        'u = indexof("a", x, anywhere)\n'
        'v = indexof("ab", "bab", first)\n'
    )
    anywhere, literal = problem.indexofs
    assert anywhere == IndexOfAtom("u", "a", Var("x"), first=False)
    assert literal == IndexOfAtom("v", "ab", Lit("bab"), first=True)


def test_literal_only_equation_stays_a_concatenation():
    problem = parse_problem('alphabet "ab"\nstr x\nx = "a" . "b"\n')
    assert problem.relations == (ConcatEq("x", (Lit("a"), Lit("b"))),)
    assert problem.regular is None
    assert solve(problem).model == {"x": "ab"}


def test_double_definition_through_a_literal_is_refused():
    # Folding ``x = "a"`` into a membership before the straight-line
    # check would hide the second definition of ``x``.
    text = 'alphabet "ab"\nstr y x\nx = "a"\nx = y . "b"\n'
    parsed = parse_problem(text)
    built = Problem(
        alphabet=Alphabet.of("ab"),
        str_vars=("y", "x"),
        relations=(
            ConcatEq("x", (Lit("a"),)),
            ConcatEq("x", (Var("y"), Lit("b"))),
        ),
    )
    assert parsed == built
    for problem in (parsed, built):
        with pytest.raises(MultiplyDefined):
            solve(problem)


def test_parse_accepts_blank_lines_and_comments_anywhere():
    problem = parse_problem(
        "# heading\n\nalphabet \"ab\"\n# mid\nstr x\n\nregc (in x /a/)\n"
    )
    assert problem.str_vars == ("x",)
    # Also inside a transducer block, beside a rule with quoted labels.
    problem = parse_problem(
        'alphabet "ab"\nstr x y\ntransducer t {\n  states 1\n  # rules\n'
        '  initial 0\n  final 0\n  t 0 "ab"/"b" 0\n}\ny = t(x)\n'
    )
    [rel] = problem.relations
    assert rel.transducer.transitions == ((0, "ab", "b", 0),)


def test_empty_input_reports_missing_alphabet():
    with pytest.raises(ParseError) as info:
        parse_problem("")
    assert "alphabet" in str(info.value)
    assert info.value.line_no is None


#: Longer than the 4,300 digits Python converts from a string.
BIG = "7" * 5_000

#: A head after which a constraint is on line 4 of the file.
H = 'alphabet "ab"\nstr x y\nint u\n'

#: A transducer block whose ``{}`` line is line 4 of the file.
BLOCK = 'alphabet "ab"\nstr x y\ntransducer t {{\n  {}\n}}\n'


def big(text: str, line_no: int, name: str):
    return pytest.param(text, line_no, "bad integer literal", id=f"big-{name}")


@pytest.mark.parametrize(
    "text, line_no, needle",
    [
        ('str x\nalphabet "ab"\n', 1, "alphabet directive must come first"),
        ('alphabet "ab"\nalphabet "ab"\n', 2, "duplicate alphabet"),
        ('alphabet "aa"\n', 1, "duplicate"),
        ('alphabet "ab"\nstr\n', 2, "empty str declaration"),
        ('alphabet "ab"\nstr 9lives\n', 2, "bad variable name"),
        ('alphabet "ab"\nstr x\nint x\n', 3, "declared twice"),
        ('alphabet "ab"\nstr x\nx = y\n', 3, "undeclared string variable 'y'"),
        ('alphabet "ab"\nstr x\nx = "xyz"\n', 3, "not in alphabet"),
        ('alphabet "ab"\nstr x\ncharc (= x[1] \'c\')\n', 3, "not in alphabet"),
        ('alphabet "ab"\nstr x\nintc (<= (count x \'c\') 1)\n', 3, "not in alphabet"),
        ('alphabet "ab"\nint u\nu = indexof("a", "cab", first)\n', 3, "not in alphabet"),
        ('alphabet "ab"\nstr x\nint u\nu = indexof("c", x, first)\n', 4, "not in alphabet"),
        ('alphabet "ab"\nstr x\nx = . "a"\n', 3, "misplaced '.'"),
        ('alphabet "ab"\nstr x\nx = "a" .\n', 3, "ends with '.'"),
        ('alphabet "ab"\nstr x\nx = "a" "b"\n', 3, "missing '.'"),
        ('alphabet "ab"\nstr x\nx = )oops\n', 3, "cannot parse right-hand side"),
        ('alphabet "ab"\nstr x\nx = "a\\n"\n', 3, "unknown escape"),
        ('alphabet "ab"\nstr x\nx = "a\\"\n', 3, "cannot parse right-hand side"),
        ('alphabet "ab"\nstr x\nint u\nu = indexof("", x, first)\n', 4, "nonempty"),
        ('alphabet "ab"\nstr x\nregc (in x /a*/\n', 3, "missing ')'"),
        ('alphabet "ab"\nstr x\nregc (in x /a*/))\n', 3, "trailing tokens"),
        ('alphabet "ab"\nstr x\nregc (and)\n', 3, "empty (and)"),
        ('alphabet "ab"\nstr x\nregc (not (in x /a/) (in x /b/))\n', 3, "one argument"),
        ('alphabet "ab"\nstr x\nregc (in x /(a/)\n', 3, "unbalanced"),
        ('alphabet "ab"\nstr x\nregc (in x "a")\n', 3, "expected (in"),
        ('alphabet "ab"\nstr x\nregc (in () /a/)\n', 3, "empty ()"),
        ('alphabet "ab"\nstr x\nintc (<= (len ()) 3)\n', 3, "empty ()"),
        ('alphabet "ab"\nstr x\nint u\nintc (<= (* () u) 3)\n', 4, "empty ()"),
        ('alphabet "ab"\nstr x\nintc (<= (len x) y)\n', 3, "integer constant"),
        ('alphabet "ab"\nstr x\nintc (<= (count x \'ab\') 3)\n', 3, "cannot tokenize"),
        ('alphabet "ab"\nstr x\nint u\ncharc (= x[0] \'a\')\n', 4, "start at 1"),
        ('alphabet "ab"\nstr x\ncharc (= x[u] \'a\')\n', 3, "undeclared integer"),
        ('alphabet "ab"\nstr x y\ny = mystery(x)\n', 3, "mystery"),
        ('alphabet "ab"\nstr x\nnonsense line\n', 3, "cannot parse"),
        big(f'alphabet "ab"\nstr x\nintc (<= (len x) {BIG})\n', 3, "bound"),
        big(f'alphabet "ab"\nstr x\nintc (<= (len x) -{BIG})\n', 3, "negative-bound"),
        big(f'alphabet "ab"\nstr x\nintc (<= (* {BIG} (len x)) 3)\n', 3, "coefficient"),
        big(f'alphabet "ab"\nstr x\nintc (<= (+ (len x) {BIG}) 3)\n', 3, "constant"),
        big(f'alphabet "ab"\nstr x\ncharc (= x[{BIG}] \'a\')\n', 3, "position"),
        big(BLOCK.format(f"states {BIG}"), 4, "states"),
        big(BLOCK.format(f"initial {BIG}"), 4, "initial"),
        big(BLOCK.format(f"final 0 {BIG}"), 4, "final"),
        big(BLOCK.format(f"t {BIG} a/a 0"), 4, "rule-source"),
        big(BLOCK.format(f"t 0 a/a {BIG}"), 4, "rule-target"),
        (H + "regc )", 4, "unexpected ')'"),
        ("alphabet ab\n", 1, 'expected: alphabet "<characters>"'),
        (H + "intc", 4, "empty intc constraint"),
        (H + "regc (or)", 4, "empty (or)"),
        (H + "intc (= (len x) 3)", 4, "expected (<= <expr> <int>)"),
        (H + "intc (<= (* u 2) 3)", 4, "expected (* <int> <term>)"),
        (H + "intc (<= (len 3) 3)", 4, "expected (len <var>)"),
        (H + "intc (<= (count x a) 3)", 4, "expected (count <var> '<char>')"),
        (H + "intc (<= (foo x) 3)", 4, "cannot parse integer expression"),
        (H + "intc (<= /a/ 3)", 4, "unexpected '/a/' in integer expression"),
        (H + "charc (= (x) 'a')", 4, "expected x[i] or '<char>'"),
        (H + "charc (= u 'a')", 4, "expected x[i] or '<char>'"),
        (H + "charc (<= x[1] 'a')", 4, "expected (= <side> <side>)"),
        (H + "charc (= x[1] '\\a')", 4, "unknown escape \\a in character literal"),
        (BLOCK.format("bogus"), 4, "bad transducer line"),
    ],
)
def test_parse_error_lines(text: str, line_no: int, needle: str):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert info.value.line_no == line_no
    assert needle in str(info.value)


def test_transducer_block_errors():
    head = 'alphabet "ab"\nstr x y\n'
    with pytest.raises(ParseError) as info:
        parse_problem(head + "transducer t {\n  states 1\n")
    assert "unterminated" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_problem(head + "transducer t {\n  states 1\n  t 0 ab/a 0\n}\n")
    assert info.value.line_no == 5 and "bad transducer rule" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_problem(head + "transducer t {\n  states 1\n  initial 0\n}\n")
    assert "needs states, initial, and final" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_problem(
            head
            + "transducer t {\n  states 1\n  initial 0\n  final 0\n}\n" * 2
        )
    assert "defined twice" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_problem(head + "transducer t {\n  states 1\n  initial 0\n  final 3\n}\n")
    assert "transducer 't'" in str(info.value)


# ---------------------------------------------------------------------------
# Literals and serialization


def test_quote_unquote_round_trip():
    for word in ["", "plain", 'say "hi"', "back\\slash", '\\"mixed\\"', "a\\"]:
        assert unquote(quote_word(word)) == word


def test_quote_word_escapes_only_quote_and_backslash():
    assert quote_word('a"b\\c') == '"a\\"b\\\\c"'
    assert quote_word("<>&';") == '"<>&\';"'


def test_unquote_decodes_escapes():
    assert unquote('"a\\"b"') == 'a"b'
    assert unquote('"a\\\\b"') == "a\\b"
    # Character literals take the escapes of their own quote and of ``\``.
    problem = parse_problem(
        'alphabet "ab\'\\\\"\nstr x\n'
        "charc (and (= x[1] '\\'') (= x[2] '\\\\'))\n"
    )
    assert problem.chars == And(
        (
            Leaf(CharAtom(CharPos("x", 1), CharConst("'"))),
            Leaf(CharAtom(CharPos("x", 2), CharConst("\\"))),
        )
    )


def test_unquote_rejects_dangling_backslash():
    with pytest.raises(ParseError) as info:
        unquote('"a\\"', line_no=7)
    assert "dangling backslash" in str(info.value)
    assert info.value.line_no == 7


def test_epsilon_label_round_trip():
    problem = parse_problem(
        'alphabet "ab"\nstr x y\n'
        "transducer pad {\n  states 1\n  initial 0\n  final 0\n  t 0 ~/a 0\n}\n"
        "y = pad(x)\n"
    )
    t = problem.relations[0].transducer
    assert (0, EPSILON, "a", 0) in t.transitions
    assert transducer_membership(t, "", "aaa")


def test_long_definition_chain_parses_in_linear_time():
    # Each line looks up its variables among all the declared ones; with
    # a list per lookup, 50,000 of them take about a minute.
    n = 50_000
    lines = ['alphabet "ab"', "str " + " ".join(f"x{i}" for i in range(n))]
    lines += [f'x{i + 1} = x{i} . "a"' for i in range(n - 1)]
    start = time.perf_counter()
    problem = parse_problem("\n".join(lines) + "\n")
    assert time.perf_counter() - start < 10.0
    assert len(problem.relations) == n - 1
    assert problem.str_vars[:3] == ("x0", "x1", "x2")


def test_parsed_regex_respects_declared_alphabet():
    problem = parse_problem('alphabet "ab"\nstr x\nregc (in x /[a-z]+/)\n')
    nfa = problem.regular.atom.nfa
    assert nfa_membership(nfa, "ab")
    assert sorted(nfa_enumerate(nfa, 1)) == ["a", "b"]


# ---------------------------------------------------------------------------
# Deep nesting and arbitrary input

DEEP_HEAD = 'alphabet "ab"\nstr x\nint u\n'


def nested(depth: int, wrapper: str, core: str) -> str:
    return wrapper * depth + core + ")" * depth


@pytest.mark.parametrize(
    "line",
    [
        "regc " + nested(100, "(not ", "(in x /a/)"),
        "intc " + nested(100, "(not ", "(<= u 3)"),
        "intc (<= " + nested(100, "(+ ", "u") + " 3)",
        "regc (in x /" + nested(100, "(", "a") + "/)",
    ],
    ids=["regc", "intc", "sum", "regex"],
)
def test_nesting_a_hundred_deep_parses(line: str):
    parse_problem(DEEP_HEAD + line + "\n")


@pytest.mark.parametrize(
    "line, needle",
    [
        ("regc " + nested(10_000, "(not ", "(in x /a/)"), "regc constraint nested"),
        ("intc " + nested(10_000, "(not ", "(<= u 3)"), "intc constraint nested"),
        ("charc " + nested(10_000, "(not ", "(= x[1] 'a')"), "charc constraint nested"),
        ("regc (in x /" + nested(10_000, "(", "a") + "/)", "pattern nested too deeply"),
    ],
    ids=["regc", "intc", "charc", "regex"],
)
def test_nesting_too_deep_is_a_parse_error(line: str, needle: str):
    with pytest.raises(ParseError) as info:
        parse_problem(DEEP_HEAD + line + "\n")
    assert info.value.line_no == 4
    assert needle in str(info.value)


#: Heads of s-expression nodes with the usual number of arguments.
_HEADS = [("", 0, 2), ("and", 1, 3), ("or", 1, 3), ("not", 1, 1), ("in", 2, 2),
          ("<=", 2, 2), ("=", 2, 2), ("+", 1, 3), ("*", 2, 2), ("len", 1, 1),
          ("count", 2, 2)]
_SEXPRS = st.recursive(
    st.sampled_from(["()", "x", "u", "/a*/", "/(a/", "'a'", '"ab"', "-3", "7", "x[u]"]),
    lambda inner: st.sampled_from(_HEADS).flatmap(
        lambda head: st.lists(inner, min_size=head[1], max_size=head[2]).map(
            lambda args: "(" + " ".join([head[0], *args]) + ")"
        )
    ),
    max_leaves=8,
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(["regc", "intc", "charc"]), _SEXPRS).map(" ".join),
    st.lists(
        st.sampled_from(
            ["x", "u", "=", ".", '"ab"', '"c"', "!=", "identity(x)", "T(x)",
             'indexof("a", x, first)', "transducer T {", "}", "states 1",
             "initial 0", "final 0", "t 0 a/b 0", "t 0 ~/a 1", "str", "int", "y"]
        ),
        max_size=6,
    ).map(" ".join),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["", 'alphabet "ab"\n', DEEP_HEAD]), _LINES)
def test_any_line_parses_or_raises_a_parse_error(head: str, line: str):
    try:
        parse_problem(head + line + "\n")
    except ParseError:
        pass
