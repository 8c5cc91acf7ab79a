"""Diagnostics of the ucc-C compile pipeline.

Every compile failure is reported as a :class:`CompileError`.  Front-end
failures carry a source location, so callers (tests, the update planner,
examples) can show precise messages and tests can assert on the
offending line/column; back-end failures (data layout, instruction
selection, encoding, assembly) carry none.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in a ucc-C source file (1-based line and column)."""

    line: int
    column: int
    filename: str = "<source>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class CompileError(Exception):
    """Base class of every compile-pipeline error; ``location`` is
    ``None`` for back-end errors."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location
        if location is not None:
            super().__init__(f"{location}: {message}")
        else:
            super().__init__(message)


class LexError(CompileError):
    """Raised on malformed tokens (bad characters, unterminated literals)."""


class ParseError(CompileError):
    """Raised on grammar violations."""


class SemanticError(CompileError):
    """Raised on type errors, undeclared names, arity mismatches, etc."""
