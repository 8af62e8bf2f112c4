"""Tokenizer and line taxonomy.

The scanner turns one line of text into Tokens, or raises LexError at
the first lexical fault; classify gives each token line its shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import LexError, Position


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


class Token:
    """One token: kind, text, integer value (0 unless INTEGER), position.

    Equality and hashing ignore the position.  Tokens are immutable and
    only the scanner builds them.  The tokens of one lexed line share that
    line's Position object, and each token keeps only its own column;
    ``pos`` joins the two on demand.
    """

    __slots__ = ("kind", "text", "value", "_line_pos", "_col")

    kind: TokenKind
    text: str
    value: int

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


@dataclass(frozen=True, slots=True, eq=False)
class Line:
    """Lines compare by identity, so equal-looking lines at different
    positions stay apart as keys of the engine's compiled forms."""

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


_SPACE = " \t\r\n\f\v"
_IDENT_START = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_IDENT_CONT = _IDENT_START + "0123456789"
_DIGITS = "0123456789"
_HEX_DIGITS = "0123456789abcdefABCDEF"
# two-character operators, checked before the single-character ones
_OPS2 = ("<=", ">=", "!=", "<>", "&&", "||", "<<", ">>", ":=", "..")
_OPS1 = "+-*/%<>=!&|^~"
_PUNCT = "()[]{},:;.?"


def _tokens(text: str, line_pos: Position) -> list[Token]:
    """Tokens of one line, all sharing line_pos (the line's column 1).

    This is the hot loop of the whole translator, so it is written flat
    and index based.
    """
    out: list[Token] = []
    n = len(text)
    i = 0
    while i < n:
        c = text[i]
        if c in _SPACE:
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            break
        col = i + 1
        value = 0
        if c in _IDENT_START or c == "#" or c == "@":
            kind = TokenKind.IDENTIFIER
            j = i + 1
            if c == "#" or c == "@":
                if j >= n or text[j] not in _IDENT_START:
                    raise _fault("illegal character %r" % c, line_pos, col)
                j += 1
                if not out:
                    kind = TokenKind.DIRECTIVE_KEY
            while j < n and text[j] in _IDENT_CONT:
                j += 1
        elif c in _DIGITS:
            kind = TokenKind.INTEGER
            if c == "0" and i + 1 < n and text[i + 1] in "xX":
                j = i + 2
                while j < n and text[j] in _HEX_DIGITS:
                    j += 1
                if j == i + 2:
                    raise _fault("invalid numeric literal", line_pos, col)
                value = int(text[i + 2 : j], 16)
            else:
                j = i + 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                value = decimal_value(text[i:j])
            if j < n and text[j] in _IDENT_CONT:
                raise _fault("invalid numeric literal", line_pos, col)
        elif c == "'":
            # exactly one character, no escapes
            if i + 1 >= n:
                raise _fault("unterminated character literal", line_pos, col)
            if text[i + 1] == "'":
                raise _fault("empty character literal", line_pos, col)
            if i + 2 >= n or text[i + 2] != "'":
                raise _fault("unterminated character literal", line_pos, col)
            kind, j, value = TokenKind.INTEGER, i + 3, ord(text[i + 1])
        elif c == '"':
            j = text.find('"', i + 1) + 1
            if not j:
                raise _fault("unterminated string literal", line_pos, col)
            kind = TokenKind.STRING
        elif text[i : i + 2] in _OPS2:
            kind, j = TokenKind.OPERATOR, i + 2
        elif c in _OPS1:
            kind, j = TokenKind.OPERATOR, i + 1
        elif c in _PUNCT:
            kind, j = TokenKind.PUNCTUATION, i + 1
        else:
            raise _fault("illegal character %r" % c, line_pos, col)
        word = text[i:j]
        if word == "<>":  # an alternate spelling of !=
            word = "!="
        out.append(_make(kind, word, value, line_pos, col))
        i = j
    return out


# the lowest int-string cap CPython accepts (PYTHONINTMAXSTRDIGITS)
_DECIMAL_CHUNK = 640


def decimal_value(digits: str) -> int:
    """The value of a string of decimal digits, reduced modulo 2**64 when
    it is longer than one chunk; every value wraps to 64 bits anyway.

    Any length reads in linear time, and int() never gets more digits
    than the lowest cap, whatever the interpreter's setting.
    """
    if len(digits) <= _DECIMAL_CHUNK:
        return int(digits)
    value = 0
    for k in range(0, len(digits), _DECIMAL_CHUNK):
        chunk = digits[k : k + _DECIMAL_CHUNK]
        value = (value * 10 ** len(chunk) + int(chunk)) % 2**64
    return value


def _fault(message: str, line_pos: Position, col: int) -> LexError:
    return LexError(message, Position(line_pos.file, line_pos.line, col))


def render(tokens) -> str:
    """Canonical text of a token sequence: single spaces between tokens."""
    return " ".join(t.text for t in tokens)


def dotted_name(tokens) -> str:
    """The dotted name spelled by the identifiers among tokens."""
    return ".".join(t.text for t in tokens if t.kind is TokenKind.IDENTIFIER)


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


def labeled_data_keyword(tokens) -> int | None:
    """Index of the data keyword of a labeled data line, 'name [:] keyword
    values' with a dotted name, or None for a line of any other shape."""
    if tokens[0].kind is not TokenKind.IDENTIFIER:
        return None
    k = dotted_name_end(tokens)
    if k < len(tokens) and tokens[k].is_punct(":"):
        k += 1
    if (k < len(tokens) and tokens[k].kind is TokenKind.IDENTIFIER
            and tokens[k].text in DATA_KEYWORDS):
        return k
    return None


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
    "Line",
    "LineKind",
    "Token",
    "TokenKind",
    "classify",
    "decimal_value",
    "dotted_name",
    "dotted_name_end",
    "labeled_data_keyword",
    "make_line",
    "render",
    "tokenize",
    "tokenize_lines",
]
