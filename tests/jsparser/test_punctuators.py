"""Punctuator lookup: the lexer's set lookup of the next 4, 3, 2 and 1
characters lexes exactly what a longest-first scan of every punctuator does."""

import itertools

import pytest

from repro.jsparser import JSSyntaxError
from repro.jsparser.lexer import Lexer, tokenize
from repro.jsparser.tokens import PUNCTUATORS, Token, TokenType


class ScanLexer(Lexer):
    """The reference: try every punctuator, longest first, with ``startswith``."""

    def _lex_punctuator(self, start: int, line: int, column: int) -> Token:
        rest = self.source[self.index : self.index + 4]
        for punct in PUNCTUATORS:
            if rest.startswith(punct):
                self.index += len(punct)
                return self._make_token(TokenType.PUNCTUATOR, punct, start, line, column)
        raise self._error(f"Unexpected character {self.source[self.index]!r}")


def stream(lex, source: str):
    """``(type, value, start, end)`` per token, or the error a lexer raised."""
    try:
        return [(t.type, t.value, t.start, t.end) for t in lex(source)]
    except JSSyntaxError as error:
        return ("error", str(error), error.index)


def scan_tokenize(source: str) -> list[Token]:
    return ScanLexer(source).tokenize()


CASES = list(PUNCTUATORS) + [p + q for p, q in itertools.product(PUNCTUATORS, repeat=2)]


@pytest.mark.parametrize("prefix", ["", "a"], ids=["start", "after-identifier"])
@pytest.mark.parametrize("suffix", ["", "x"], ids=["at-end", "then-identifier"])
def test_lookup_matches_longest_first_scan(prefix, suffix):
    mismatches = [
        case for case in CASES
        if stream(tokenize, prefix + case + suffix) != stream(scan_tokenize, prefix + case + suffix)
    ]
    assert not mismatches, mismatches[:10]

