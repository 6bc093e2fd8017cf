"""Tests for the Aspen DSL lexer."""

import pytest

from repro.aspen.errors import AspenSyntaxError
from repro.aspen.lexer import tokenize
from repro.aspen.tokens import TokenType as T


def types(source):
    return [t.type for t in tokenize(source)]


def values(source):
    # Semantic token values only (layout newlines and EOF dropped).
    return [
        t.value for t in tokenize(source) if t.type not in (T.NEWLINE, T.EOF)
    ]


class TestBasicTokens:
    def test_identifier(self):
        assert types("foo") == [T.IDENT, T.EOF]

    def test_keyword(self):
        assert types("model") == [T.KEYWORD, T.EOF]

    def test_all_keywords(self):
        for kw in ("model", "machine", "param", "data", "kernel", "pattern", "sweep"):
            assert tokenize(kw)[0].type is T.KEYWORD

    def test_keyword_prefix_is_ident(self):
        assert tokenize("modeling")[0].type is T.IDENT

    def test_punctuation(self):
        assert types("{}()[]:,=") == [
            T.LBRACE, T.RBRACE, T.LPAREN, T.RPAREN, T.LBRACKET, T.RBRACKET,
            T.COLON, T.COMMA, T.EQUALS, T.EOF,
        ]

    def test_operators(self):
        assert types("+-*/%^") == [
            T.PLUS, T.MINUS, T.STAR, T.SLASH, T.PERCENT, T.CARET, T.EOF,
        ]


class TestNumbers:
    @pytest.mark.parametrize(
        "text", ["0", "42", "3.14", ".5", "1e9", "2.5e-3", "1E+6"]
    )
    def test_number_forms(self, text):
        tokens = tokenize(text)
        assert tokens[0].type is T.NUMBER
        assert float(tokens[0].value) == float(text)

    def test_number_then_ident(self):
        assert values("2n") == ["2", "n"]

    def test_e_without_digits_is_not_exponent(self):
        # "1e" lexes as number 1 then ident e.
        assert values("1e") == ["1", "e"]


class TestStrings:
    def test_string_literal(self):
        tokens = tokenize('"r(Ap)p"')
        assert tokens[0].type is T.STRING
        assert tokens[0].value == "r(Ap)p"

    def test_unterminated_string(self):
        with pytest.raises(AspenSyntaxError, match="unterminated"):
            tokenize('"abc')

    def test_string_with_newline_rejected(self):
        with pytest.raises(AspenSyntaxError):
            tokenize('"ab\ncd"')


class TestCommentsAndLayout:
    def test_hash_comment(self):
        assert values("a # comment\nb") == ["a", "b"]

    def test_slash_comment(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_newlines_collapse(self):
        tokens = tokenize("a\n\n\nb")
        newline_count = sum(1 for t in tokens if t.type is T.NEWLINE)
        assert newline_count == 1

    def test_no_leading_newline(self):
        assert tokenize("\n\na")[0].type is T.IDENT

    def test_no_newline_after_brace(self):
        tokens = tokenize("{\na")
        assert [t.type for t in tokens[:2]] == [T.LBRACE, T.IDENT]

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        b = [t for t in tokens if t.value == "b"][0]
        assert (b.line, b.column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(AspenSyntaxError, match="unexpected character"):
            tokenize("a @ b")

    def test_error_carries_position(self):
        with pytest.raises(AspenSyntaxError, match="line 2"):
            tokenize("ok\n  @")
