"""A small regular-expression compiler targeting :class:`~slsolve.automata.Nfa`.

Supported syntax: literal characters, backslash escapes, ``.``, character
classes ``[...]`` / ``[^...]`` with ranges, grouping ``(...)``,
alternation ``|``, and the postfix operators ``*``, ``+``, ``?``.
Patterns match whole words (no anchors; none are needed).  Bounded
repetition and other PCRE conveniences are deliberately absent.
"""

from __future__ import annotations

from .automata import EPSILON, Alphabet, Nfa

_POSTFIX = {"*", "+", "?"}
_SPECIAL = {"(", ")", "[", "]", "|", "*", "+", "?", ".", "\\"}


class RegexSyntaxError(ValueError):
    """Raised for malformed patterns."""


class _Parser:
    """Recursive descent over the pattern, emitting Thompson fragments.

    A fragment is a (start, accept) state pair; accept states never have
    outgoing arcs, so fragments compose by epsilon-linking.  States and
    arcs accumulate in ``n_states`` and ``transitions``.
    """

    def __init__(self, pattern: str, alphabet: Alphabet) -> None:
        self.pattern = pattern
        self.pos = 0
        self.alphabet = alphabet
        self.n_states = 0
        self.transitions: list[tuple[int, str, int]] = []

    def new_state(self) -> int:
        self.n_states += 1
        return self.n_states - 1

    def add(self, q: int, sym: str, r: int) -> None:
        self.transitions.append((q, sym, r))

    def peek(self) -> str | None:
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None

    def take(self) -> str:
        ch = self.pattern[self.pos]
        self.pos += 1
        return ch

    def error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(f"{message} (at offset {self.pos} in /{self.pattern}/)")

    def parse(self) -> tuple[int, int]:
        frag = self.alternation()
        if self.peek() is not None:
            raise self.error(f"unexpected {self.peek()!r}")
        return frag

    def alternation(self) -> tuple[int, int]:
        branches = [self.sequence()]
        while self.peek() == "|":
            self.take()
            branches.append(self.sequence())
        if len(branches) == 1:
            return branches[0]
        start, accept = self.new_state(), self.new_state()
        for s, a in branches:
            self.add(start, EPSILON, s)
            self.add(a, EPSILON, accept)
        return start, accept

    def sequence(self) -> tuple[int, int]:
        frags = []
        while self.peek() is not None and self.peek() not in {"|", ")"}:
            frags.append(self.item())
        if not frags:
            state = self.new_state()
            return state, state
        start, accept = frags[0]
        for s, a in frags[1:]:
            self.add(accept, EPSILON, s)
            accept = a
        return start, accept

    def item(self) -> tuple[int, int]:
        frag = self.atom()
        while self.peek() in _POSTFIX:
            op = self.take()
            frag = self.repeat(frag, op)
        return frag

    def repeat(self, frag: tuple[int, int], op: str) -> tuple[int, int]:
        s, a = frag
        start, accept = self.new_state(), self.new_state()
        self.add(start, EPSILON, s)
        self.add(a, EPSILON, accept)
        if op in {"*", "+"}:
            self.add(a, EPSILON, s)
        if op in {"*", "?"}:
            self.add(start, EPSILON, accept)
        return start, accept

    def atom(self) -> tuple[int, int]:
        ch = self.peek()
        if ch is None:
            raise self.error("unexpected end of pattern")
        if ch in _POSTFIX:
            raise self.error(f"nothing to repeat before {ch!r}")
        if ch == "(":
            self.take()
            frag = self.alternation()
            if self.peek() != ")":
                raise self.error("unbalanced '('")
            self.take()
            return frag
        if ch == ")":
            raise self.error("unbalanced ')'")
        if ch == ".":
            self.take()
            return self.char_set(list(self.alphabet))
        if ch == "[":
            self.take()
            return self.char_class()
        if ch == "\\":
            self.take()
            if self.peek() is None:
                raise self.error("dangling backslash")
            return self.literal(self.take())
        self.take()
        return self.literal(ch)

    def literal(self, ch: str) -> tuple[int, int]:
        if ch not in self.alphabet:
            raise self.error(f"literal {ch!r} is not in the alphabet")
        start, accept = self.new_state(), self.new_state()
        self.add(start, ch, accept)
        return start, accept

    def char_set(self, chars: list[str]) -> tuple[int, int]:
        start, accept = self.new_state(), self.new_state()
        for ch in chars:
            self.add(start, ch, accept)
        return start, accept

    def char_class(self) -> tuple[int, int]:
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        members: set[str] = set()
        saw_any = False
        while True:
            ch = self.peek()
            if ch is None:
                raise self.error("unterminated character class")
            if ch == "]" and saw_any:
                self.take()
                break
            saw_any = True
            if ch == "\\":
                self.take()
                if self.peek() is None:
                    raise self.error("dangling backslash in class")
                lo = self.take()
            else:
                lo = self.take()
            if self.peek() == "-" and self.pos + 1 < len(self.pattern) and \
                    self.pattern[self.pos + 1] != "]":
                self.take()
                hi = self.take()
                if hi == "\\":
                    if self.peek() is None:
                        raise self.error("dangling backslash in class")
                    hi = self.take()
                if ord(hi) < ord(lo):
                    raise self.error(f"bad range {lo!r}-{hi!r}")
                for code in range(ord(lo), ord(hi) + 1):
                    members.add(chr(code))
            else:
                members.add(lo)
        # Characters outside the alphabet can never occur in a word, so a
        # class silently restricts to the alphabet; a negated class means
        # "any alphabet character not listed".
        if negated:
            chars = [c for c in self.alphabet if c not in members]
        else:
            chars = [c for c in self.alphabet if c in members]
        return self.char_set(chars)


def regex_parse(pattern: str, alphabet: Alphabet) -> Nfa:
    """Compile ``pattern`` into an NFA over ``alphabet`` (whole-word match).

    The result may contain epsilon transitions.  The automata operations
    accept such machines; a loop that reads
    :attr:`~slsolve.automata.Nfa.arcs_by_symbol` directly needs
    :func:`~slsolve.automata.nfa_eps_eliminate` first.

    :raises RegexSyntaxError: on malformed patterns, literals outside
        the alphabet, or nesting too deep for the recursive descent.
    """
    parser = _Parser(pattern, alphabet)
    try:
        start, accept = parser.parse()
    except RecursionError:
        raise RegexSyntaxError("pattern nested too deeply") from None
    return Nfa(
        alphabet,
        max(parser.n_states, 1),
        parser.transitions,
        start,
        frozenset({accept}),
    )
