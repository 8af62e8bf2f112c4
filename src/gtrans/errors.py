"""Error types shared by every stage of the translator.

All user-visible failures derive from TranslationError and carry a source
position so the driver can print one uniform "file:line:col: message"
diagnostic.  InternalError deliberately does not: it marks a broken
invariant inside the translator itself, not a mistake in the input.
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


class UnresolvedNameError(EvalError):
    """A name had no value at evaluation time; `name` holds it.

    The destination phase does not treat it apart from other EvalErrors:
    any of them in a data value or reserve fill defers that value to the
    end of the run, and anywhere else it is the translation's error.
    """

    def __init__(self, name: str, pos: Position = NO_POS) -> None:
        super().__init__(f"undefined name '{name}'", pos)
        self.name = name


class StructureError(TranslationError):
    """Ill-formed nesting: unmatched directives, stray braces, bad patterns."""


class EmitError(TranslationError):
    """A value cannot be written to the output image."""


class LimitError(TranslationError):
    """A configured safety limit was exceeded."""


class UserAbort(TranslationError):
    """Raised by the error directive after its message has been reported."""


class UsageError(TranslationError):
    """Bad command line."""


class InternalError(Exception):
    """An invariant of the translator itself failed.  Never user-caused."""
