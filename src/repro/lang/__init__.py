"""ucc-C front end: lexer, parser, AST, and semantic analysis.

ucc-C is the reproduction's stand-in for the NesC/C dialect the paper
compiles with avr-gcc (see DESIGN.md §2).  The public surface:

>>> from repro.lang import parse, check
>>> checked = check(parse("u8 x; void main() { x = 1; }"))
"""

from .ast_nodes import Program
from .errors import CompileError, LexError, ParseError, SemanticError, SourceLocation
from .lexer import Token, TokenKind, tokenize
from .parser import Parser, parse
from .sema import (
    BUILTINS,
    CheckedFunction,
    CheckedProgram,
    FunctionSignature,
    SemanticChecker,
    Symbol,
    SymbolKind,
    check,
)
from .types import Type, U8, U16, VOID, common_type, scalar

__all__ = [
    "BUILTINS",
    "CheckedFunction",
    "CheckedProgram",
    "CompileError",
    "FunctionSignature",
    "LexError",
    "ParseError",
    "Parser",
    "Program",
    "SemanticChecker",
    "SemanticError",
    "SourceLocation",
    "Symbol",
    "SymbolKind",
    "Token",
    "TokenKind",
    "Type",
    "U16",
    "U8",
    "VOID",
    "check",
    "common_type",
    "parse",
    "scalar",
    "tokenize",
    "frontend",
]


def frontend(source: str, filename: str = "<source>") -> CheckedProgram:
    """Run the whole front end: tokenize, parse, and type-check."""
    return check(parse(source, filename))
