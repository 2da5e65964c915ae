"""Unit tests for the JavaScript lexer."""

import pytest

from repro.jsparser import JSSyntaxError, TokenType, parse, tokenize


def kinds(source):
    return [t.type for t in tokenize(source)[:-1]]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.type is TokenType.IDENTIFIER
        assert tok.value == "hello"

    def test_identifier_with_dollar_and_underscore(self):
        assert values("$x _y $ _") == ["$x", "_y", "$", "_"]

    def test_keywords_are_keyword_tokens(self):
        assert kinds("var if while") == [TokenType.KEYWORD] * 3

    def test_boolean_and_null_literals(self):
        assert kinds("true false null") == [
            TokenType.BOOLEAN,
            TokenType.BOOLEAN,
            TokenType.NULL,
        ]

    def test_punctuators_greedy_match(self):
        assert values("=== == = >>> >> >") == ["===", "==", "=", ">>>", ">>", ">"]

    def test_arrow_and_spread(self):
        assert values("=> ...") == ["=>", "..."]

    def test_unexpected_character_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("var x = #;")


class TestNumbers:
    @pytest.mark.parametrize(
        "src",
        ["0", "1", "42", "3.14", ".5", "1e10", "1e+10", "2.5e-3", "0x1F", "0o17", "0b101"],
    )
    def test_numeric_forms(self, src):
        (tok,) = tokenize(src)[:-1]
        assert tok.type is TokenType.NUMERIC
        assert tok.value == src

    def test_number_followed_by_dot_call(self):
        assert values("1 .toString") == ["1", ".", "toString"]

    def test_identifier_after_number_is_error(self):
        with pytest.raises(JSSyntaxError):
            tokenize("3foo")

    def test_missing_hex_digits_is_error(self):
        with pytest.raises(JSSyntaxError):
            tokenize("0x")

    @pytest.mark.parametrize("src", ["0o", "0O", "0b", "0B", "0o8", "0b2"])
    def test_missing_octal_or_binary_digits_is_a_syntax_error(self, src):
        # The parser would turn the digitless token into int("0o", 8): a
        # bare ValueError that escapes every JSSyntaxError handler.
        with pytest.raises(JSSyntaxError, match="Missing (octal|binary) digits"):
            tokenize(src)
        with pytest.raises(JSSyntaxError):
            parse(src)

    @pytest.mark.parametrize("src", ["0²", "1.²", "1e²", "3٣"])
    def test_unicode_digits_never_extend_a_number(self, src):
        # str.isdigit() accepts these; JS numeric literals are ASCII-only,
        # and float("0²") raises ValueError — must be JSSyntaxError instead.
        with pytest.raises(JSSyntaxError):
            tokenize(src)

    def test_unicode_digits_never_start_a_number(self):
        # On their own they lex as (permissive) identifiers, not numbers.
        for src in ("²", "١٢٣"):
            (tok,) = tokenize(src)[:-1]
            assert tok.type is not TokenType.NUMERIC

    def test_trailing_exponent_marker_stays_identifier_error(self):
        with pytest.raises(JSSyntaxError):
            tokenize("1e")


class TestStrings:
    def test_double_and_single_quotes(self):
        assert values("\"a\" 'b'") == ["a", "b"]

    def test_escapes_decoded(self):
        (tok,) = tokenize(r'"\n\t\x41B"')[:-1]
        assert tok.value == "\n\tAB"

    def test_unicode_brace_escape(self):
        (tok,) = tokenize(r'"\u{1F600}"')[:-1]
        assert tok.value == "\U0001f600"

    def test_identity_escape(self):
        (tok,) = tokenize(r'"\q\'"')[:-1]
        assert tok.value == "q'"

    def test_line_continuation(self):
        (tok,) = tokenize('"a\\\nb"')[:-1]
        assert tok.value == "ab"

    def test_unterminated_string_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize('"abc')

    def test_raw_preserves_original(self):
        (tok,) = tokenize(r'"\n"')[:-1]
        assert tok.raw == r'"\n"'


class TestTemplates:
    def test_simple_template(self):
        (tok,) = tokenize("`hello`")[:-1]
        assert tok.type is TokenType.TEMPLATE
        assert tok.value == "hello"

    def test_template_with_newline(self):
        (tok,) = tokenize("`a\nb`")[:-1]
        assert tok.value == "a\nb"

    def test_template_substitution_rejected(self):
        with pytest.raises(JSSyntaxError):
            tokenize("`x ${y}`")


class TestRegex:
    def test_regex_at_statement_start(self):
        (tok,) = tokenize("/abc/g")[:-1]
        assert tok.type is TokenType.REGEXP
        assert tok.value == "/abc/g"

    def test_regex_after_equals(self):
        tokens = tokenize("x = /a+/i")
        assert tokens[2].type is TokenType.REGEXP

    def test_division_after_identifier(self):
        tokens = tokenize("a / b")
        assert tokens[1].type is TokenType.PUNCTUATOR
        assert tokens[1].value == "/"

    def test_division_after_close_paren(self):
        tokens = tokenize("(a) / b")
        assert tokens[3].value == "/"
        assert tokens[3].type is TokenType.PUNCTUATOR

    def test_regex_after_return(self):
        tokens = tokenize("return /x/")
        assert tokens[1].type is TokenType.REGEXP

    def test_character_class_slash(self):
        (tok,) = tokenize("/[/]/")[:-1]
        assert tok.type is TokenType.REGEXP

    def test_escaped_slash(self):
        (tok,) = tokenize(r"/a\/b/")[:-1]
        assert tok.value == r"/a\/b/"


class TestCommentsAndNewlines:
    def test_line_comment_skipped(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("/* never ends")

    def test_newline_flag_for_asi(self):
        tokens = tokenize("a\nb")
        assert not tokens[0].preceded_by_newline
        assert tokens[1].preceded_by_newline

    def test_newline_flag_through_comment(self):
        tokens = tokenize("a /* \n */ b")
        assert tokens[1].preceded_by_newline

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 0)
        assert (tokens[1].line, tokens[1].column) == (2, 2)

    def test_crlf_counts_one_line(self):
        tokens = tokenize("a\r\nb")
        assert tokens[1].line == 2
