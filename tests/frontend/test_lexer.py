"""Unit tests for the Core-Java lexer."""

import pytest

from repro.frontend.lexer import LexError, Token, tokenize
from repro.lang.ast import line_col


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind != "eof"]


class TestBasics:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        assert kinds("class Foo extends Bar") == [
            ("kw", "class"),
            ("id", "Foo"),
            ("kw", "extends"),
            ("id", "Bar"),
        ]

    def test_integers(self):
        assert kinds("42 0 123456") == [("int", "42"), ("int", "0"), ("int", "123456")]

    def test_underscore_identifiers(self):
        assert kinds("_x a_b") == [("id", "_x"), ("id", "a_b")]

    def test_positions(self):
        # a token carries its start offset; line_col works out the rest
        source = "a\n  b"
        toks = tokenize(source)
        assert [t.pos for t in toks] == [0, 4, 5]
        assert line_col(source, toks[0].pos) == (1, 1)
        assert line_col(source, toks[1].pos) == (2, 3)

    def test_only_newline_breaks_a_line(self):
        source = "a\r\nb\rc\td"
        assert [line_col(source, t.pos) for t in tokenize(source)] == [
            (1, 1), (2, 1), (2, 3), (2, 5), (2, 6),
        ]

    def test_repeated_names_share_one_string(self):
        toks = tokenize("abc + abc <= abc <= x")
        assert toks[0].text is toks[2].text is toks[4].text
        assert toks[3].text is toks[5].text


class TestOperators:
    def test_multi_char_operators_maximal_munch(self):
        assert kinds("a<=b") == [("id", "a"), ("op", "<="), ("id", "b")]
        assert kinds("a==b") == [("id", "a"), ("op", "=="), ("id", "b")]
        assert kinds("a = =b") == [
            ("id", "a"),
            ("op", "="),
            ("op", "="),
            ("id", "b"),
        ]

    def test_logical_operators(self):
        assert kinds("a&&b||c") == [
            ("id", "a"),
            ("op", "&&"),
            ("id", "b"),
            ("op", "||"),
            ("id", "c"),
        ]

    def test_punctuation(self):
        assert [k for k, _ in kinds("(){};,.")] == ["op"] * 7


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("a @ b")
        assert "@" in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("ab\n  #")
        assert exc.value.pos == 5
        assert (exc.value.line, exc.value.col) == (2, 3)
        assert str(exc.value) == "2:3: unexpected character '#'"


class TestTokenHelpers:
    def test_is_kw(self):
        t = tokenize("class")[0]
        assert t.is_kw("class")
        assert not t.is_kw("extends")

    def test_is_op(self):
        t = tokenize("<=")[0]
        assert t.is_op("<=")
        assert not t.is_op("<")
