"""Reading the ``.slp`` problem format, and quoting words for it.

A problem file is line-oriented:

.. code-block:: text

    # full-line comments only
    alphabet "ab<>&"
    str x y z
    int u
    x = y . "<b>" . z
    y = htmlEscape(x)
    regc (and (in x /a*(b|c)/) (not (in z /.*</)))
    intc (<= (+ (len x) (* -1 (len y)) u) 7)
    charc (= x[u] z[3])
    u = indexof("ab", x, first)
    x != z
    transducer copyA {
      states 1
      initial 0
      final 0
      t 0 a/a 0
    }

The ``alphabet`` directive must precede everything except comments.
Declarations (``str``/``int``) must precede uses.  Multiple
``regc``/``intc``/``charc`` lines are conjoined.  Inside ``/.../``
regexes a literal slash is written ``\\/``; inside quotes, ``\\"`` and
``\\\\`` are the only escapes.  Transducer rules write epsilon as ``~``
and quote any label that is not a single alphanumeric character.
"""

from __future__ import annotations

import re
from typing import Optional

from .automata import EPSILON, Alphabet
from .constraints import (
    And,
    BoolTree,
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
    Or,
    Problem,
    RegAtom,
    RelAtom,
    TransducerEq,
    Var,
)
from .regex import RegexSyntaxError, regex_parse
from .transducer import Transducer


class ParseError(ValueError):
    def __init__(self, line_no: Optional[int], message: str) -> None:
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Low-level pieces

_IDENT = r"[A-Za-z_]\w*"
_DQUOTE = r'"(?:\\.|[^"\\])*"'
_SQUOTE = r"'(?:\\.|[^'\\])'"

_ASSIGN_RE = re.compile(rf"^({_IDENT})\s*=\s*(.+)$")
_DISEQ_RE = re.compile(rf"^({_IDENT})\s*!=\s*({_IDENT})$")
_CALL_RE = re.compile(rf"^({_IDENT}(?:\[[^\]]*\])?)\s*\(\s*({_IDENT})\s*\)$")
_INDEXOF_RE = re.compile(
    rf"^indexof\s*\(\s*({_DQUOTE})\s*,\s*({_IDENT}|{_DQUOTE})\s*,\s*"
    r"(anywhere|first)\s*\)$"
)
_CONCAT_TOKEN_RE = re.compile(rf"\s*({_DQUOTE}|{_IDENT}|\.)\s*")
_TRANSDUCER_HEAD_RE = re.compile(rf"^transducer\s+({_IDENT})\s*\{{$")
_LABEL = rf"~|[A-Za-z0-9]|{_DQUOTE}"
_RULE_RE = re.compile(rf"^t\s+(\d+)\s+({_LABEL})/({_LABEL})\s+(\d+)$")


def unquote(token: str, line_no: Optional[int] = None) -> str:
    """Decode a double-quoted literal; ``\\"`` and ``\\\\`` are the escapes."""
    body = token[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise ParseError(line_no, "dangling backslash in string literal")
            nxt = body[i + 1]
            if nxt not in ('"', "\\"):
                raise ParseError(line_no, f"unknown escape \\{nxt} in string literal")
            out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def quote_word(word: str) -> str:
    """Encode a word as a double-quoted literal (inverse of :func:`unquote`)."""
    escaped = word.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _unquote_char(token: str, line_no: Optional[int]) -> str:
    body = token[1:-1]
    if body.startswith("\\"):
        ch = body[1]
        if ch not in ("'", "\\"):
            raise ParseError(line_no, f"unknown escape \\{ch} in character literal")
        return ch
    return body


def _int_literal(text: str, line_no: int) -> int:
    """``int(text)``, refused as a ParseError where Python refuses it.

    Python converts at most 4,300 digits from a string.
    """
    try:
        return int(text)
    except ValueError:
        shown = text if len(text) <= 20 else f"{text[:20]}... ({len(text)} characters)"
        raise ParseError(line_no, f"bad integer literal {shown}") from None


def _regex_body(token: str) -> str:
    """Strip the slashes and decode ``\\/``; other escapes pass through."""
    body = token[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        if body[i] == "\\" and i + 1 < len(body):
            if body[i + 1] == "/":
                out.append("/")
            else:
                out.append(body[i])
                out.append(body[i + 1])
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# S-expression scanner for regc / intc / charc bodies

_SEXPR_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<lp>\() | (?P<rp>\)) |
        (?P<regex>/(?:\\.|[^/\\])*/) |
        (?P<str>{_DQUOTE}) |
        (?P<char>{_SQUOTE}) |
        (?P<idx>{_IDENT}\[(?:{_IDENT}|\d+)\]) |
        (?P<id>{_IDENT}) |
        (?P<int>-?\d+) |
        (?P<op><=|=|\+|\*)
    )""",
    re.X,
)

_IDX_RE = re.compile(rf"^({_IDENT})\[({_IDENT}|\d+)\]$")


def _tokenize_sexpr(text: str, line_no: int) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _SEXPR_TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(line_no, f"cannot tokenize {rest[:20]!r}")
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
    return tokens


def _parse_sexpr(tokens: list[tuple[str, str]], line_no: int):
    """Nest the token list into lists; atoms stay as (kind, text) pairs."""

    def walk(i: int):
        if i >= len(tokens):
            raise ParseError(line_no, "unexpected end of expression")
        kind, text = tokens[i]
        if kind == "lp":
            items = []
            i += 1
            while i < len(tokens) and tokens[i][0] != "rp":
                node, i = walk(i)
                items.append(node)
            if i >= len(tokens):
                raise ParseError(line_no, "missing ')'")
            if not items:
                raise ParseError(line_no, "empty ()")
            return items, i + 1
        if kind == "rp":
            raise ParseError(line_no, "unexpected ')'")
        return (kind, text), i + 1

    node, end = walk(0)
    if end != len(tokens):
        raise ParseError(line_no, "trailing tokens after expression")
    return node


# ---------------------------------------------------------------------------
# Layer-specific interpretation of s-expressions


class _FileParser:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.alphabet: Optional[Alphabet] = None
        self.str_vars: list[str] = []
        self.int_vars: list[str] = []
        self.kind_of: dict[str, str] = {}  # declared name -> "str" or "int"
        self.relations: list[RelAtom] = []
        self.reg_parts: list[BoolTree] = []
        self.int_parts: list[BoolTree] = []
        self.char_parts: list[BoolTree] = []
        self.indexofs: list[IndexOfAtom] = []
        self.disequalities: list[Disequality] = []
        self.local_transducers: dict[str, Transducer] = {}

    # -- helpers ---------------------------------------------------------

    def need_alphabet(self, line_no: int) -> Alphabet:
        if self.alphabet is None:
            raise ParseError(line_no, "the alphabet directive must come first")
        return self.alphabet

    def check_str_var(self, name: str, line_no: int) -> None:
        if self.kind_of.get(name) != "str":
            raise ParseError(line_no, f"undeclared string variable {name!r}")

    def check_int_var(self, name: str, line_no: int) -> None:
        if self.kind_of.get(name) != "int":
            raise ParseError(line_no, f"undeclared integer variable {name!r}")

    def check_word(self, word: str, line_no: int) -> str:
        try:
            self.need_alphabet(line_no).check_word(word)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        return word

    def resolve_transducer(self, name: str, line_no: int) -> Transducer:
        if name in self.local_transducers:
            return self.local_transducers[name]
        from .websec import builtin_transducer

        try:
            return builtin_transducer(name, self.need_alphabet(line_no))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None

    # -- driver ----------------------------------------------------------

    def parse(self) -> Problem:
        i = 0
        while i < len(self.lines):
            raw = self.lines[i]
            line_no = i + 1
            line = raw.strip()
            i += 1
            if not line or line.startswith("#"):
                continue
            head = line.split(None, 1)[0]
            if head == "alphabet":
                self.parse_alphabet(line, line_no)
            elif head in ("str", "int"):
                self.parse_decl(line, line_no)
            elif head in ("regc", "intc", "charc"):
                self.parse_constraint_line(head, line, line_no)
            elif _TRANSDUCER_HEAD_RE.match(line):
                i = self.parse_transducer_block(line, i, line_no)
            elif _DISEQ_RE.match(line):
                self.parse_diseq(line, line_no)
            elif _ASSIGN_RE.match(line):
                self.parse_assignment(line, line_no)
            else:
                raise ParseError(line_no, f"cannot parse: {line!r}")
        return self.build()

    def parse_alphabet(self, line: str, line_no: int) -> None:
        if self.alphabet is not None:
            raise ParseError(line_no, "duplicate alphabet directive")
        match = re.match(rf"^alphabet\s+({_DQUOTE})$", line)
        if match is None:
            raise ParseError(line_no, 'expected: alphabet "<characters>"')
        chars = unquote(match.group(1), line_no)
        try:
            self.alphabet = Alphabet.of(chars)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None

    def parse_decl(self, line: str, line_no: int) -> None:
        self.need_alphabet(line_no)
        parts = line.split()
        names = parts[1:]
        if not names:
            raise ParseError(line_no, f"empty {parts[0]} declaration")
        for name in names:
            if not re.fullmatch(_IDENT, name):
                raise ParseError(line_no, f"bad variable name {name!r}")
            if name in self.kind_of:
                raise ParseError(line_no, f"variable {name!r} declared twice")
            self.kind_of[name] = parts[0]
            (self.str_vars if parts[0] == "str" else self.int_vars).append(name)

    def parse_diseq(self, line: str, line_no: int) -> None:
        match = _DISEQ_RE.match(line)
        assert match is not None
        left, right = match.group(1), match.group(2)
        self.check_str_var(left, line_no)
        self.check_str_var(right, line_no)
        self.disequalities.append(Disequality(left, right))

    def parse_assignment(self, line: str, line_no: int) -> None:
        match = _ASSIGN_RE.match(line)
        assert match is not None
        lhs, rhs = match.group(1), match.group(2).strip()
        indexof = _INDEXOF_RE.match(rhs)
        if indexof is not None:
            self.check_int_var(lhs, line_no)
            needle = self.check_word(unquote(indexof.group(1), line_no), line_no)
            if not needle:
                raise ParseError(line_no, "indexof needle must be nonempty")
            hay_text = indexof.group(2)
            haystack: Var | Lit
            if hay_text.startswith('"'):
                haystack = Lit(self.check_word(unquote(hay_text, line_no), line_no))
            else:
                self.check_str_var(hay_text, line_no)
                haystack = Var(hay_text)
            self.indexofs.append(
                IndexOfAtom(lhs, needle, haystack, indexof.group(3) == "first")
            )
            return

        self.check_str_var(lhs, line_no)
        call = _CALL_RE.match(rhs)
        if call is not None:
            name, arg = call.group(1), call.group(2)
            self.check_str_var(arg, line_no)
            transducer = self.resolve_transducer(name, line_no)
            self.relations.append(TransducerEq(lhs, name, transducer, arg))
            return

        items: list[Var | Lit] = []
        pos = 0
        expect_item = True
        while pos < len(rhs):
            match_tok = _CONCAT_TOKEN_RE.match(rhs, pos)
            if match_tok is None:
                raise ParseError(line_no, f"cannot parse right-hand side near {rhs[pos:][:20]!r}")
            token = match_tok.group(1)
            pos = match_tok.end()
            if token == ".":
                if expect_item:
                    raise ParseError(line_no, "misplaced '.' in concatenation")
                expect_item = True
                continue
            if not expect_item:
                raise ParseError(line_no, "missing '.' between concatenation items")
            if token.startswith('"'):
                items.append(Lit(unquote(token, line_no)))
            else:
                self.check_str_var(token, line_no)
                items.append(Var(token))
            expect_item = False
        if expect_item:
            raise ParseError(line_no, "concatenation ends with '.'")
        for item in items:
            if isinstance(item, Lit):
                self.check_word(item.text, line_no)
        self.relations.append(ConcatEq(lhs, tuple(items)))

    # -- s-expression layers --------------------------------------------

    def parse_constraint_line(self, head: str, line: str, line_no: int) -> None:
        body = line[len(head):].strip()
        if not body:
            raise ParseError(line_no, f"empty {head} constraint")
        tokens = _tokenize_sexpr(body, line_no)
        try:
            sexpr = _parse_sexpr(tokens, line_no)
            if head == "regc":
                self.reg_parts.append(self.reg_tree(sexpr, line_no))
            elif head == "intc":
                self.int_parts.append(self.int_tree(sexpr, line_no))
            else:
                self.char_parts.append(self.char_tree(sexpr, line_no))
        except RecursionError:
            raise ParseError(line_no, f"{head} constraint nested too deeply") from None

    def _boolean(self, sexpr, line_no: int, leaf) -> BoolTree:
        if isinstance(sexpr, list) and sexpr and sexpr[0] == ("id", "and"):
            if len(sexpr) < 2:
                raise ParseError(line_no, "empty (and)")
            return And(tuple(self._boolean(c, line_no, leaf) for c in sexpr[1:]))
        if isinstance(sexpr, list) and sexpr and sexpr[0] == ("id", "or"):
            if len(sexpr) < 2:
                raise ParseError(line_no, "empty (or)")
            return Or(tuple(self._boolean(c, line_no, leaf) for c in sexpr[1:]))
        if isinstance(sexpr, list) and sexpr and sexpr[0] == ("id", "not"):
            if len(sexpr) != 2:
                raise ParseError(line_no, "(not ...) takes one argument")
            return Not(self._boolean(sexpr[1], line_no, leaf))
        return leaf(sexpr)

    def reg_tree(self, sexpr, line_no: int) -> BoolTree:
        def leaf(node) -> BoolTree:
            if (
                not isinstance(node, list)
                or len(node) != 3
                or node[0] != ("id", "in")
                or node[1][0] != "id"
                or node[2][0] != "regex"
            ):
                raise ParseError(line_no, "expected (in <var> /regex/)")
            var = node[1][1]
            self.check_str_var(var, line_no)
            pattern = _regex_body(node[2][1])
            try:
                nfa = regex_parse(pattern, self.need_alphabet(line_no))
            except RegexSyntaxError as exc:
                raise ParseError(line_no, str(exc)) from None
            return Leaf(RegAtom(var, nfa, pattern))

        return self._boolean(sexpr, line_no, leaf)

    def int_tree(self, sexpr, line_no: int) -> BoolTree:
        def leaf(node) -> BoolTree:
            if not isinstance(node, list) or len(node) != 3 or node[0] != ("op", "<="):
                raise ParseError(line_no, "expected (<= <expr> <int>)")
            bound_node = node[2]
            if not (isinstance(bound_node, tuple) and bound_node[0] == "int"):
                raise ParseError(line_no, "the bound must be an integer constant")
            terms, constant = self.int_expr(node[1], line_no)
            bound = _int_literal(bound_node[1], line_no) - constant
            return Leaf(LinearAtom(tuple(terms), bound))

        return self._boolean(sexpr, line_no, leaf)

    def int_expr(self, node, line_no: int):
        """Collect (coefficient, term) pairs plus a folded constant."""
        if isinstance(node, list):
            if node and node[0] == ("op", "+"):
                terms: list = []
                constant = 0
                for child in node[1:]:
                    sub_terms, sub_const = self.int_expr(child, line_no)
                    terms.extend(sub_terms)
                    constant += sub_const
                return terms, constant
            if node and node[0] == ("op", "*"):
                if len(node) != 3 or node[1][0] != "int":
                    raise ParseError(line_no, "expected (* <int> <term>)")
                coeff = _int_literal(node[1][1], line_no)
                sub_terms, sub_const = self.int_expr(node[2], line_no)
                return (
                    [(coeff * c, t) for c, t in sub_terms],
                    coeff * sub_const,
                )
            if node and node[0] == ("id", "len"):
                if len(node) != 2 or node[1][0] != "id":
                    raise ParseError(line_no, "expected (len <var>)")
                self.check_str_var(node[1][1], line_no)
                return [(1, LenTerm(node[1][1]))], 0
            if node and node[0] == ("id", "count"):
                if len(node) != 3 or node[1][0] != "id" or node[2][0] != "char":
                    raise ParseError(line_no, "expected (count <var> '<char>')")
                self.check_str_var(node[1][1], line_no)
                char = self.check_word(_unquote_char(node[2][1], line_no), line_no)
                return [(1, CountTerm(node[1][1], char))], 0
            raise ParseError(line_no, "cannot parse integer expression")
        kind, text = node
        if kind == "int":
            return [], _int_literal(text, line_no)
        if kind == "id":
            self.check_int_var(text, line_no)
            return [(1, IntTerm(text))], 0
        raise ParseError(line_no, f"unexpected {text!r} in integer expression")

    def char_tree(self, sexpr, line_no: int) -> BoolTree:
        def side(node) -> CharPos | CharConst:
            if not isinstance(node, tuple):
                raise ParseError(line_no, "expected x[i] or '<char>'")
            kind, text = node
            if kind == "idx":
                match = _IDX_RE.match(text)
                assert match is not None
                var, index = match.group(1), match.group(2)
                self.check_str_var(var, line_no)
                if index.isdigit():
                    value = _int_literal(index, line_no)
                    if value < 1:
                        raise ParseError(line_no, "character positions start at 1")
                    return CharPos(var, value)
                self.check_int_var(index, line_no)
                return CharPos(var, index)
            if kind == "char":
                return CharConst(self.check_word(_unquote_char(text, line_no), line_no))
            raise ParseError(line_no, "expected x[i] or '<char>'")

        def leaf(node) -> BoolTree:
            if not isinstance(node, list) or len(node) != 3 or node[0] != ("op", "="):
                raise ParseError(line_no, "expected (= <side> <side>)")
            return Leaf(CharAtom(side(node[1]), side(node[2])))

        return self._boolean(sexpr, line_no, leaf)

    # -- transducer blocks ----------------------------------------------

    def parse_transducer_block(self, header: str, i: int, line_no: int) -> int:
        alphabet = self.need_alphabet(line_no)
        match = _TRANSDUCER_HEAD_RE.match(header)
        assert match is not None
        name = match.group(1)
        if name in self.local_transducers:
            raise ParseError(line_no, f"transducer {name!r} defined twice")
        n_states: Optional[int] = None
        initial: Optional[int] = None
        finals: Optional[list[int]] = None
        rules: list[tuple[int, str, str, int]] = []

        def label_text(token: str, rule_line: int) -> str:
            if token == "~":
                return EPSILON
            if token.startswith('"'):
                return unquote(token, rule_line)
            return token

        while True:
            if i >= len(self.lines):
                raise ParseError(line_no, f"unterminated transducer {name!r}")
            raw = self.lines[i].strip()
            rule_line = i + 1
            i += 1
            if not raw or raw.startswith("#"):
                continue
            if raw == "}":
                break
            parts = raw.split()
            if parts[0] == "states" and len(parts) == 2 and parts[1].isdigit():
                n_states = _int_literal(parts[1], rule_line)
            elif parts[0] == "initial" and len(parts) == 2 and parts[1].isdigit():
                initial = _int_literal(parts[1], rule_line)
            elif parts[0] == "final" and all(p.isdigit() for p in parts[1:]):
                finals = [_int_literal(p, rule_line) for p in parts[1:]]
            elif parts[0] == "t":
                rule = _RULE_RE.match(raw)
                if rule is None:
                    raise ParseError(rule_line, f"bad transducer rule: {raw!r}")
                rules.append(
                    (
                        _int_literal(rule.group(1), rule_line),
                        label_text(rule.group(2), rule_line),
                        label_text(rule.group(3), rule_line),
                        _int_literal(rule.group(4), rule_line),
                    )
                )
            else:
                raise ParseError(rule_line, f"bad transducer line: {raw!r}")

        if n_states is None or initial is None or finals is None:
            raise ParseError(
                line_no, f"transducer {name!r} needs states, initial, and final lines"
            )
        try:
            self.local_transducers[name] = Transducer(
                alphabet, n_states, rules, initial, frozenset(finals)
            )
        except ValueError as exc:
            raise ParseError(line_no, f"transducer {name!r}: {exc}") from None
        return i

    # -- assembly --------------------------------------------------------

    def build(self) -> Problem:
        if self.alphabet is None:
            raise ParseError(None, "missing alphabet directive")

        def combine(parts: list[BoolTree]) -> Optional[BoolTree]:
            if not parts:
                return None
            if len(parts) == 1:
                return parts[0]
            return And(tuple(parts))

        return Problem(
            alphabet=self.alphabet,
            str_vars=tuple(self.str_vars),
            int_vars=tuple(self.int_vars),
            relations=tuple(self.relations),
            regular=combine(self.reg_parts),
            integers=combine(self.int_parts),
            chars=combine(self.char_parts),
            indexofs=tuple(self.indexofs),
            disequalities=tuple(self.disequalities),
        )


def parse_problem(text: str) -> Problem:
    """Parse ``.slp`` source text into a :class:`~slsolve.constraints.Problem`.

    :raises ParseError: with a line number on any syntactic or scoping error.
    """
    return _FileParser(text).parse()
