"""Error types shared by every stage of the translator.

Every fault in the input or the invocation is a TranslationError and
carries a source position, so the driver prints it as one uniform
"file:line:col: message" diagnostic.  Any other exception that reaches
the driver is a bug in the translator itself, reported as an internal
error.
"""

from __future__ import annotations

from typing import NamedTuple


class Position(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


NO_POS = Position("<none>", 0, 0)


class TranslationError(Exception):
    """A problem in the user's input."""

    def __init__(self, message: str, pos: Position = NO_POS) -> None:
        super().__init__(message)
        self.message = message
        self.pos = pos

    def __str__(self) -> str:
        if self.pos is NO_POS:
            return self.message
        return f"{self.pos}: {self.message}"


class LexError(TranslationError):
    """Malformed token: bad literal, illegal character, unterminated string."""


class EvalError(TranslationError):
    """Expression could not be evaluated."""


class StructureError(TranslationError):
    """Ill-formed nesting: unmatched directives, stray braces, bad patterns."""


class EmitError(TranslationError):
    """A value cannot be written to the output image."""


class LimitError(TranslationError):
    """A configured safety limit was exceeded."""


class UserAbort(TranslationError):
    """Raised by the error directive; it names the file and line only."""

    def __str__(self) -> str:
        return f"{self.pos.file}:{self.pos.line}: {self.message}"


class UsageError(TranslationError):
    """Bad command line."""
