"""Lexer for ucc-C, the small C-like language used by the UCC reproduction.

ucc-C is the stand-in for the NesC/C sources the paper compiles with
avr-gcc.  The token set covers everything the shipped workloads need:
unsigned 8/16-bit scalars, fixed-size arrays, functions, the usual
C operators, and decimal/hex/char literals.

:func:`tokenize` matches one compiled master regex at the cursor.  Each
match is the trivia before a lexeme (whitespace, ``//`` and ``/* */``
comments) followed by the lexeme itself: a word, a punctuator (longest
first), a decimal or hex literal, a character literal, end of input, or
one of the error forms below.  Line and column come from the newlines
counted between lexeme starts.  The result is a flat list of
:class:`Token` ending in one EOF token.

The lexical grammar is ASCII, like C's basic source character set:
digits are ``[0-9]`` and words ``[A-Za-z_][A-Za-z0-9_]*``.  Any other
character outside a comment raises
:class:`~repro.lang.errors.LexError` ("unexpected character") at its
line and column, as do an unterminated comment or character literal,
an unknown escape, ``0x`` without hex digits, and a letter straight
after a decimal literal.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import LexError, SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories of ucc-C tokens."""

    IDENT = "ident"
    INT = "int"
    KEYWORD = "keyword"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "u8",
        "u16",
        "void",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "const",
    }
)

# Multi-character punctuators first so maximal munch works by trying
# this tuple in order.
PUNCTUATORS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "++",
    "--",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
)


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` is the lexeme text for identifiers/keywords/punctuators and
    the decoded integer value (as ``int``) for integer literals.
    """

    kind: TokenKind
    value: object
    location: SourceLocation

    @property
    def text(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.value!r}, {self.location})"


_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
}

# Trivia, then exactly one lexeme.  Every position matches some
# alternative (``bad`` takes any character, ``eof`` the end), so the
# engine never backtracks into the trivia and the matches tile the text.
_MASTER = re.compile(
    r"""
    (?:[ \t\r\n]+ | //[^\n]* | /\*.*?\*/)*
    (?:
        (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<hex>0[xX][0-9a-fA-F]+)
      | (?P<badhex>0[xX])
      | (?P<dec>[0-9]+)(?P<badnum>[A-Za-z_])?
      | (?P<char>'(?:\\[ntr0\\']|[\x00-\x5b\x5d-\x7f])')
      | (?P<badchar>')
      | (?P<open>/\*)
      | (?P<punct>"""
    + "|".join(re.escape(punct) for punct in PUNCTUATORS)
    + r""")
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.DOTALL | re.VERBOSE,
)


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Scan ``source`` and return all its tokens, ending in one EOF token."""
    tokens = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the first character of ``line``
    prev = 0  # start of the previous lexeme
    for match in _MASTER.finditer(source):
        kind = match.lastgroup
        start = match.start(kind)
        newlines = source.count("\n", prev, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", prev, start) + 1
        prev = start
        loc = SourceLocation(line, start - line_start + 1, filename)
        if kind == "word":
            text = match.group(kind)
            tok_kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            append(Token(tok_kind, text, loc))
        elif kind == "punct":
            append(Token(TokenKind.PUNCT, match.group(kind), loc))
        elif kind == "dec":
            append(Token(TokenKind.INT, int(match.group(kind)), loc))
        elif kind == "hex":
            append(Token(TokenKind.INT, int(match.group(kind), 16), loc))
        elif kind == "char":
            body = match.group(kind)[1:-1]
            value = _ESCAPES[body[1]] if len(body) == 2 else ord(body)
            append(Token(TokenKind.INT, value, loc))
        elif kind == "eof":
            append(Token(TokenKind.EOF, "", loc))
            return tokens
        else:
            raise _error(kind, source, start, loc)
    raise AssertionError("the master pattern always ends in an eof match")


def _error(kind: str, source: str, start: int, loc: SourceLocation) -> LexError:
    """The diagnostic for an error-form lexeme starting at ``start``."""
    if kind == "badnum":
        ch = source[start]
        return LexError(f"invalid character {ch!r} in number", loc)
    if kind == "badhex":
        return LexError("malformed hex literal", loc)
    if kind == "open":
        return LexError("unterminated block comment", loc)
    if kind == "badchar":
        body = source[start + 1 : start + 2]
        if body == "\\":
            esc = source[start + 2 : start + 3]
            if esc not in _ESCAPES:
                return LexError(f"unknown escape '\\{esc}'", loc)
        elif body > "\x7f":
            after = SourceLocation(loc.line, loc.column + 1, loc.filename)
            return LexError(f"unexpected character {body!r}", after)
        return LexError("unterminated character literal", loc)
    return LexError(f"unexpected character {source[start]!r}", loc)
