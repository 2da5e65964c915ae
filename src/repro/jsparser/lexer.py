"""A hand-written JavaScript tokenizer.

Covers the ES5.1 lexical grammar plus the ES2015 constructs the parser
supports (template literals, arrow ``=>``, spread ``...``).  The lexer keeps
enough context to disambiguate division from regular-expression literals the
same way Esprima does: a ``/`` starts a regex whenever the previous
significant token cannot end an expression.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import JSSyntaxError
from .tokens import KEYWORDS, PUNCTUATORS, Token, TokenType


@dataclass(frozen=True)
class Comment:
    """One source comment, kept for suppression directives and tooling.

    ``line`` is the 1-based line the comment *starts* on; ``own_line`` is
    True when only whitespace precedes it, so directive consumers can tell
    trailing comments (apply to this line) from standalone ones (apply to
    the next line).
    """

    text: str  # interior text, without the // or /* */ markers
    line: int
    column: int
    block: bool
    own_line: bool

_LINE_TERMINATORS = "\n\r  "
_ID_START_EXTRA = "$_"
_HEX_DIGITS = "0123456789abcdefABCDEF"
#: ASCII only — ``str.isdigit()`` also accepts superscripts and other
#: unicode digits that are not valid in JS numeric literals (and that
#: ``float()`` rejects, e.g. ``"0²"``).
_DECIMAL_DIGITS = "0123456789"


def _is_ascii_digit(ch: str) -> bool:
    # ``ch in _DECIMAL_DIGITS`` alone is wrong for ``_peek()``'s "" at EOF
    # (the empty string is a substring of everything).
    return len(ch) == 1 and ch in _DECIMAL_DIGITS

#: Tokens after which a ``/`` must be a division sign, not a regex start.
_REGEX_FORBIDDEN_PUNCTUATORS = frozenset({")", "]", "}", "++", "--"})
#: Punctuators are matched by set lookup of the next 4, 3, 2 and 1 characters.
_PUNCTUATOR_SET = frozenset(PUNCTUATORS)
_LONGEST_PUNCTUATOR = max(map(len, PUNCTUATORS))
#: Keywords after which ``/`` *does* start a regex (e.g. ``return /x/``).
_REGEX_ALLOWED_KEYWORDS = frozenset(
    {
        "return",
        "typeof",
        "instanceof",
        "in",
        "of",
        "new",
        "delete",
        "void",
        "throw",
        "case",
        "do",
        "else",
    }
)


def _is_id_start(ch: str) -> bool:
    return ch.isalpha() or ch in _ID_START_EXTRA or ord(ch) > 0x7F


def _is_id_part(ch: str) -> bool:
    return ch.isalnum() or ch in _ID_START_EXTRA or ord(ch) > 0x7F


class Lexer:
    """Tokenizes JavaScript source text.

    Usage::

        tokens = Lexer("var x = 1;").tokenize()

    The returned list always ends with a single EOF token.
    """

    def __init__(self, source: str):
        self.source = source
        self.length = len(source)
        self.index = 0
        self.line = 1
        self.line_start = 0
        self._tokens: list[Token] = []
        self._newline_before_next = False
        #: Comments encountered while skipping trivia, in source order.
        self.comments: list[Comment] = []

    # ------------------------------------------------------------------ API

    def tokenize(self) -> list[Token]:
        """Lex the entire source and return the token list (EOF-terminated)."""
        while True:
            token = self._next_token()
            self._tokens.append(token)
            if token.type is TokenType.EOF:
                return self._tokens

    # ------------------------------------------------------------- internals

    @property
    def _column(self) -> int:
        return self.index - self.line_start

    def _error(self, message: str) -> JSSyntaxError:
        return JSSyntaxError(message, self.line, self._column, self.index)

    def _peek(self, offset: int = 0) -> str:
        i = self.index + offset
        return self.source[i] if i < self.length else ""

    def _advance_line(self, ch: str) -> None:
        """Account for a line terminator at the current position."""
        if ch == "\r" and self._peek(1) == "\n":
            self.index += 1
        self.index += 1
        self.line += 1
        self.line_start = self.index
        self._newline_before_next = True

    def _skip_whitespace_and_comments(self) -> None:
        while self.index < self.length:
            ch = self.source[self.index]
            if ch in _LINE_TERMINATORS:
                self._advance_line(ch)
            elif ch.isspace():
                self.index += 1
            elif ch == "/" and self._peek(1) == "/":
                start, line, column, own_line = self.index, self.line, self._column, self._own_line()
                while self.index < self.length and self.source[self.index] not in _LINE_TERMINATORS:
                    self.index += 1
                self.comments.append(
                    Comment(self.source[start + 2 : self.index], line, column, False, own_line)
                )
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return

    def _own_line(self) -> bool:
        """Is the cursor preceded only by whitespace on its line?"""
        return self.source[self.line_start : self.index].strip() == ""

    def _skip_block_comment(self) -> None:
        start, start_line, column, own_line = self.index, self.line, self._column, self._own_line()
        self.index += 2
        while self.index < self.length:
            ch = self.source[self.index]
            if ch == "*" and self._peek(1) == "/":
                self.index += 2
                self.comments.append(
                    Comment(self.source[start + 2 : self.index - 2], start_line, column, True, own_line)
                )
                return
            if ch in _LINE_TERMINATORS:
                self._advance_line(ch)
            else:
                self.index += 1
        raise JSSyntaxError("Unterminated block comment", start_line, 0, self.index)

    def _make_token(self, type_: TokenType, value: str, start: int, line: int, column: int) -> Token:
        token = Token(
            type=type_,
            value=value,
            start=start,
            end=self.index,
            line=line,
            column=column,
            raw=self.source[start : self.index],
            preceded_by_newline=self._newline_before_next,
        )
        self._newline_before_next = False
        return token

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        start, line, column = self.index, self.line, self._column
        if self.index >= self.length:
            return self._make_token(TokenType.EOF, "", start, line, column)

        ch = self.source[self.index]
        if _is_id_start(ch):
            return self._lex_identifier(start, line, column)
        if ch in _DECIMAL_DIGITS or (ch == "." and _is_ascii_digit(self._peek(1))):
            return self._lex_number(start, line, column)
        if ch in "'\"":
            return self._lex_string(start, line, column)
        if ch == "`":
            return self._lex_template(start, line, column)
        if ch == "/" and self._regex_allowed():
            return self._lex_regex(start, line, column)
        return self._lex_punctuator(start, line, column)

    # --------------------------------------------------------------- lexers

    def _lex_identifier(self, start: int, line: int, column: int) -> Token:
        while self.index < self.length and _is_id_part(self.source[self.index]):
            self.index += 1
        word = self.source[start : self.index]
        if word in ("true", "false"):
            type_ = TokenType.BOOLEAN
        elif word == "null":
            type_ = TokenType.NULL
        elif word in KEYWORDS:
            type_ = TokenType.KEYWORD
        else:
            type_ = TokenType.IDENTIFIER
        return self._make_token(type_, word, start, line, column)

    def _lex_number(self, start: int, line: int, column: int) -> Token:
        src = self.source
        if src[self.index] == "0" and self._peek(1) in ("x", "X"):
            self.index += 2
            digits_start = self.index
            while self.index < self.length and src[self.index] in _HEX_DIGITS:
                self.index += 1
            if self.index == digits_start:
                raise self._error("Missing hexadecimal digits")
        elif src[self.index] == "0" and self._peek(1) in ("o", "O", "b", "B"):
            octal = self._peek(1) in ("o", "O")
            allowed = "01234567" if octal else "01"
            self.index += 2
            digits_start = self.index
            while self.index < self.length and src[self.index] in allowed:
                self.index += 1
            if self.index == digits_start:
                raise self._error("Missing octal digits" if octal else "Missing binary digits")
        else:
            while self.index < self.length and src[self.index] in _DECIMAL_DIGITS:
                self.index += 1
            if self._peek() == "." and self._peek(1) != ".":
                self.index += 1
                while self.index < self.length and src[self.index] in _DECIMAL_DIGITS:
                    self.index += 1
            if self._peek() in ("e", "E"):
                save = self.index
                self.index += 1
                if self._peek() in ("+", "-"):
                    self.index += 1
                if not _is_ascii_digit(self._peek()):
                    self.index = save
                else:
                    while self.index < self.length and src[self.index] in _DECIMAL_DIGITS:
                        self.index += 1
        if self.index < self.length and _is_id_start(src[self.index]):
            raise self._error("Identifier directly after number")
        return self._make_token(TokenType.NUMERIC, src[start : self.index], start, line, column)

    def _lex_string(self, start: int, line: int, column: int) -> Token:
        quote = self.source[self.index]
        self.index += 1
        chars: list[str] = []
        while True:
            if self.index >= self.length:
                raise self._error("Unterminated string literal")
            ch = self.source[self.index]
            if ch == quote:
                self.index += 1
                break
            if ch == "\\":
                chars.append(self._lex_escape())
            elif ch in _LINE_TERMINATORS:
                raise self._error("Unterminated string literal")
            else:
                chars.append(ch)
                self.index += 1
        return self._make_token(TokenType.STRING, "".join(chars), start, line, column)

    def _lex_escape(self) -> str:
        """Decode a backslash escape; the cursor sits on the backslash."""
        self.index += 1
        if self.index >= self.length:
            raise self._error("Unterminated escape sequence")
        ch = self.source[self.index]
        if ch in _LINE_TERMINATORS:  # line continuation
            self._advance_line(ch)
            self._newline_before_next = False
            return ""
        self.index += 1
        simple = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "v": "\v", "0": "\0"}
        if ch in simple and not (ch == "0" and _is_ascii_digit(self._peek())):
            return simple[ch]
        if ch == "x":
            return self._lex_hex_escape(2)
        if ch == "u":
            if self._peek() == "{":
                self.index += 1
                digits_start = self.index
                while self._peek() in _HEX_DIGITS:
                    self.index += 1
                code = int(self.source[digits_start : self.index], 16)
                if self._peek() != "}":
                    raise self._error("Invalid unicode escape")
                self.index += 1
                return chr(code)
            return self._lex_hex_escape(4)
        return ch  # identity escape, e.g. \' \" \\ \/

    def _lex_hex_escape(self, width: int) -> str:
        digits = self.source[self.index : self.index + width]
        if len(digits) < width or any(d not in _HEX_DIGITS for d in digits):
            raise self._error("Invalid hexadecimal escape")
        self.index += width
        return chr(int(digits, 16))

    def _lex_template(self, start: int, line: int, column: int) -> Token:
        """Lex a template literal *without substitutions* as a single token.

        Templates containing ``${`` are rejected — the parser targets the
        corpus subset, and the generators never emit substitutions.
        """
        self.index += 1
        chars: list[str] = []
        while True:
            if self.index >= self.length:
                raise self._error("Unterminated template literal")
            ch = self.source[self.index]
            if ch == "`":
                self.index += 1
                break
            if ch == "$" and self._peek(1) == "{":
                raise self._error("Template substitutions are not supported")
            if ch == "\\":
                chars.append(self._lex_escape())
            elif ch in _LINE_TERMINATORS:
                chars.append("\n")
                self._advance_line(ch)
                self._newline_before_next = False
            else:
                chars.append(ch)
                self.index += 1
        return self._make_token(TokenType.TEMPLATE, "".join(chars), start, line, column)

    def _regex_allowed(self) -> bool:
        """Decide whether a ``/`` at the cursor begins a regex literal."""
        for token in reversed(self._tokens):
            if token.type is TokenType.PUNCTUATOR:
                return token.value not in _REGEX_FORBIDDEN_PUNCTUATORS
            if token.type is TokenType.KEYWORD:
                return token.value in _REGEX_ALLOWED_KEYWORDS
            return token.type not in (
                TokenType.IDENTIFIER,
                TokenType.NUMERIC,
                TokenType.STRING,
                TokenType.TEMPLATE,
                TokenType.BOOLEAN,
                TokenType.NULL,
                TokenType.REGEXP,
            )
        return True  # start of file

    def _lex_regex(self, start: int, line: int, column: int) -> Token:
        self.index += 1  # opening /
        in_class = False
        while True:
            if self.index >= self.length:
                raise self._error("Unterminated regular expression")
            ch = self.source[self.index]
            if ch in _LINE_TERMINATORS:
                raise self._error("Unterminated regular expression")
            if ch == "\\":
                self.index += 2
                continue
            if ch == "[":
                in_class = True
            elif ch == "]":
                in_class = False
            elif ch == "/" and not in_class:
                self.index += 1
                break
            self.index += 1
        while self.index < self.length and _is_id_part(self.source[self.index]):
            self.index += 1  # flags
        return self._make_token(TokenType.REGEXP, self.source[start : self.index], start, line, column)

    def _lex_punctuator(self, start: int, line: int, column: int) -> Token:
        # Longest match first.  Near the end of the input a slice can be
        # shorter than its nominal size, so advance by what matched.
        rest = self.source[self.index : self.index + _LONGEST_PUNCTUATOR]
        for size in range(len(rest), 0, -1):
            punct = rest[:size]
            if punct in _PUNCTUATOR_SET:
                self.index += len(punct)
                return self._make_token(TokenType.PUNCTUATOR, punct, start, line, column)
        raise self._error(f"Unexpected character {self.source[self.index]!r}")


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: lex ``source`` and return its tokens."""
    return Lexer(source).tokenize()
