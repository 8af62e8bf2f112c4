"""Tokenizer and line taxonomy.

The scan kernel in gtrans.lexer._pylex turns one line of text into raw
(kind, text, value, column) tuples; this module wraps them as Tokens and
classifies each token line by its shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import LexError, NO_POS, Position
from ._pylex import ScanError, scan


class TokenKind(enum.IntEnum):
    IDENTIFIER = 0
    INTEGER = 1
    STRING = 2
    OPERATOR = 3
    PUNCTUATION = 4
    # first token of a line when it starts with '#' or '@'
    DIRECTIVE_KEY = 5


class LineKind(enum.Enum):
    BLANK = "blank"
    SOURCE_DIRECTIVE = "source-directive"
    DEST_DIRECTIVE = "dest-directive"
    CLASS_DEFINITION = "class-definition"
    CLASS_BODY_DELIMITER = "class-body-delimiter"
    LABEL = "label"
    SYMBOL_SUBSTITUTION = "symbol-substitution"
    ASSIGNMENT = "assignment"
    DATA_EMISSION = "data-emission"
    PLAIN = "plain"


# kind code of the scan kernel -> TokenKind, by index
_KINDS = tuple(TokenKind)


class Token:
    """One token: kind, text, integer value (0 unless INTEGER), position.

    Equality and hashing ignore the position.  Tokens are immutable.  The
    tokens of one lexed line share that line's Position object, and each
    token keeps only its own column; ``pos`` joins the two on demand.
    """

    __slots__ = ("kind", "text", "value", "_line_pos", "_col")

    kind: TokenKind
    text: str
    value: int

    def __new__(
        cls, kind: TokenKind, text: str, value: int = 0, pos: Position = NO_POS
    ) -> Token:
        return _make(kind, text, value, pos, pos.column)

    @property
    def pos(self) -> Position:
        p = self._line_pos
        col = self._col
        return p if col == p.column else Position(p.file, p.line, col)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}' of a Token")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}' of a Token")

    def __eq__(self, other):
        if other.__class__ is not Token:
            return NotImplemented
        return (self.kind, self.text, self.value) == (
            other.kind,
            other.text,
            other.value,
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.text, self.value))

    def is_op(self, text: str) -> bool:
        return self.kind is TokenKind.OPERATOR and self.text == text

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCTUATION and self.text == text

    @property
    def string_text(self) -> str:
        """Contents of a string literal, quotes stripped."""
        return self.text[1:-1]

    def __repr__(self) -> str:  # keeps test failures readable
        return f"Token({self.kind.name}, {self.text!r})"


# Slot setters write past the immutability guard; only construction uses them.
_set_kind, _set_text, _set_value, _set_line_pos, _set_col = (
    Token.__dict__[name].__set__ for name in Token.__slots__
)


def _make(kind, text, value, line_pos, col) -> Token:
    tok = object.__new__(Token)
    _set_kind(tok, kind)
    _set_text(tok, text)
    _set_value(tok, value)
    _set_line_pos(tok, line_pos)
    _set_col(tok, col)
    return tok


@dataclass(frozen=True, slots=True)
class Line:
    tokens: tuple[Token, ...]
    kind: LineKind
    pos: Position

    def render(self) -> str:
        return render(self.tokens)


DATA_KEYWORDS = frozenset(
    {"db", "dw", "dd", "dp", "dq", "rb", "rw", "rd", "rp", "rq"}
)


def tokenize(text: str, file: str = "<input>", line: int = 1) -> list[Token]:
    """Tokenize one line of text.

    The first token of the line is the only place a '#' or '@' name is a
    directive key; the same spelling later in a line is a plain
    identifier, which is what lets a class be named '#define'.
    """
    return _tokens(text, Position(file, line, 1))


def _tokens(text: str, line_pos: Position) -> list[Token]:
    """Tokens of one line, all sharing line_pos (the line's column 1)."""
    try:
        raw = scan(text)
    except ScanError as exc:
        raise LexError(
            exc.message, Position(line_pos.file, line_pos.line, exc.column)
        ) from None
    tokens = [_make(_KINDS[k], t, v, line_pos, col) for k, t, v, col in raw]
    if tokens:
        t0 = tokens[0]
        if t0.kind is TokenKind.IDENTIFIER and t0.text[0] in "#@":
            _set_kind(t0, TokenKind.DIRECTIVE_KEY)
    return tokens


def render(tokens) -> str:
    """Canonical text of a token sequence: single spaces between tokens."""
    return " ".join(t.text for t in tokens)


def dotted_name_end(tokens, start: int = 0) -> int:
    """Index just past the ident ('.' ident)* chain that starts at start."""
    j = start + 1
    while (
        j + 1 < len(tokens)
        and tokens[j].is_punct(".")
        and tokens[j + 1].kind is TokenKind.IDENTIFIER
    ):
        j += 2
    return j


def classify(tokens) -> LineKind:
    """Decide what shape a token line has.  Pure and total.

    Shapes are recognized in a fixed order; in particular a leading data
    keyword followed by '=' is an assignment to that name, not an
    emission, and only a whole line of the form 'name:' is a label.
    """
    if not tokens:
        return LineKind.BLANK
    t0 = tokens[0]
    starts_directive = t0.kind is TokenKind.DIRECTIVE_KEY or (
        t0.kind is TokenKind.IDENTIFIER and t0.text[0] in "#@"
    )
    if starts_directive:
        if t0.text[0] == "#":
            return LineKind.SOURCE_DIRECTIVE
        return LineKind.DEST_DIRECTIVE
    if t0.kind is TokenKind.PUNCTUATION and t0.text in ("{", "}"):
        return LineKind.CLASS_BODY_DELIMITER
    if t0.kind is not TokenKind.IDENTIFIER:
        return LineKind.PLAIN
    if t0.text == "class":
        return LineKind.CLASS_DEFINITION
    j = dotted_name_end(tokens)
    if j < len(tokens):
        t = tokens[j]
        if t.is_punct(":") and j == len(tokens) - 1:
            return LineKind.LABEL
        if t.is_op(":=") and j == 1:
            return LineKind.SYMBOL_SUBSTITUTION
        if t.is_op("="):
            return LineKind.ASSIGNMENT
    if t0.text in DATA_KEYWORDS:
        return LineKind.DATA_EMISSION
    return LineKind.PLAIN


def make_line(tokens, pos: Position) -> Line:
    return Line(tuple(tokens), classify(tokens), pos)


def tokenize_lines(text: str, file: str = "<input>") -> list[Line]:
    """Tokenize a whole text, one Line per physical line, numbered from 1."""
    lines: list[Line] = []
    for num, raw in enumerate(text.split("\n"), start=1):
        pos = Position(file, num, 1)
        tokens = _tokens(raw, pos)
        lines.append(Line(tuple(tokens), classify(tokens), pos))
    return lines


__all__ = [
    "DATA_KEYWORDS",
    "Line",
    "LineKind",
    "Token",
    "TokenKind",
    "classify",
    "dotted_name_end",
    "make_line",
    "render",
    "tokenize",
    "tokenize_lines",
]
