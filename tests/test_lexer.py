"""Lexer unit tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import CompileError, LexError, TokenKind, frontend, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_identifier(self):
        toks = tokenize("counter")
        assert toks[0].kind is TokenKind.IDENT
        assert toks[0].value == "counter"

    def test_identifier_with_underscore_and_digits(self):
        assert values("tosh_run_next_task2") == ["tosh_run_next_task2"]

    def test_keywords_are_distinguished(self):
        toks = tokenize("u8 u16 void if else while for return break continue const")
        assert all(t.kind is TokenKind.KEYWORD for t in toks[:-1])

    def test_keyword_prefix_is_identifier(self):
        toks = tokenize("u8x iffy")
        assert [t.kind for t in toks[:-1]] == [TokenKind.IDENT, TokenKind.IDENT]

    def test_decimal_literal(self):
        assert values("42") == [42]

    def test_zero(self):
        assert values("0") == [0]

    def test_hex_literal(self):
        assert values("0x1b") == [0x1B]

    def test_hex_uppercase(self):
        assert values("0XFF") == [0xFF]

    def test_char_literal(self):
        assert values("'A'") == [65]

    def test_char_escapes(self):
        assert values(r"'\n' '\t' '\0' '\\'") == [10, 9, 0, 92]

    def test_punctuators_maximal_munch(self):
        assert values("<<= >>= << >> <= >= == != && || ++ --") == [
            "<<=", ">>=", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--",
        ]

    def test_compound_assign_operators(self):
        assert values("+= -= *= /= %= &= |= ^=") == [
            "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
        ]


class TestTrivia:
    def test_whitespace_skipped(self):
        assert values("  a \t b \n c ") == ["a", "b", "c"]

    def test_line_comment(self):
        assert values("a // comment here\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestLocations:
    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].location.line, toks[0].location.column) == (1, 1)
        assert (toks[1].location.line, toks[1].location.column) == (2, 3)

    def test_filename_recorded(self):
        toks = tokenize("a", filename="blink.c")
        assert toks[0].location.filename == "blink.c"


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_malformed_number_suffix(self):
        with pytest.raises(LexError):
            tokenize("12ab")

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    def test_unterminated_char(self):
        with pytest.raises(LexError):
            tokenize("'a")

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")

    def test_error_carries_location(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("ok\n   @")
        assert excinfo.value.location.line == 2


class TestAsciiGrammar:
    """Outside comments the lexical grammar is ASCII: digits are [0-9],
    words [A-Za-z_][A-Za-z0-9_]*, and anything else is an unexpected
    character at its own line and column."""

    @pytest.mark.parametrize(
        "source, char, line, column",
        [
            ("u8 x = \u00b2;", "\u00b2", 1, 8),  # superscript two: isdigit()
            ("u8 x = \u0663;", "\u0663", 1, 8),  # Arabic-Indic three: isdigit()
            ("u8 caf\u00e9;", "\u00e9", 1, 7),  # a letter outside ASCII
            ("u8 x;\n  \u00e9x = 1;", "\u00e9", 2, 3),
            ("u8 x = 12\u00b2;", "\u00b2", 1, 10),
            ("u8 x = '\u00e9';", "\u00e9", 1, 9),  # inside a char literal
            ("a\u00a0b", "\u00a0", 1, 2),  # no-break space is not trivia
        ],
    )
    def test_non_ascii_is_an_unexpected_character(self, source, char, line, column):
        with pytest.raises(LexError) as excinfo:
            tokenize(source)
        err = excinfo.value
        assert err.message == f"unexpected character {char!r}"
        assert (err.location.line, err.location.column) == (line, column)

    def test_non_ascii_inside_comments_is_fine(self):
        assert values("a // \u00b2 caf\u00e9\nb /* \u0663 */ c") == ["a", "b", "c"]

    def test_ascii_digits_and_letters_still_lex(self):
        assert values("x9 _a 0x1F 42") == ["x9", "_a", 0x1F, 42]


class TestErrorLocations:
    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("a\n /* x", "unterminated block comment", 2, 2),
            ("u8 x = 12ab;", "invalid character 'a' in number", 1, 10),
            ("x = 0xg;", "malformed hex literal", 1, 5),
            ("x = 'ab';", "unterminated character literal", 1, 5),
            ("x = '\\q';", "unknown escape '\\q'", 1, 5),
            ("\n\n  $", "unexpected character '$'", 3, 3),
        ],
    )
    def test_message_and_location(self, source, message, line, column):
        with pytest.raises(LexError) as excinfo:
            tokenize(source)
        err = excinfo.value
        assert err.message == message
        assert (err.location.line, err.location.column) == (line, column)

    def test_hex_letters_end_the_literal(self):
        # Only a decimal literal rejects a letter straight after it.
        assert values("0x1g") == [1, "g"]

    def test_locations_after_multiline_trivia(self):
        # A comment and a character literal may hold a newline.
        toks = tokenize("a /* one\ntwo */ b\n\t'\n' c")
        assert [(t.location.line, t.location.column) for t in toks] == [
            (1, 1), (2, 8), (3, 2), (4, 3), (4, 4),
        ]


@settings(deadline=None)
@given(text=st.text())
def test_frontend_on_any_text_returns_or_raises_compile_error(text):
    """No input crashes the front end: it either accepts the text or
    raises a CompileError."""
    try:
        frontend(text)
    except CompileError:
        pass
