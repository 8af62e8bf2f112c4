"""Second phase: '@' directives, labels, and byte emission.

The intermediate stream is executed once.  Every expression sees the
symbols assigned so far, then the labels defined so far.  Conditions,
assignment right sides and reserve counts never look forward, so each
label's offset and each line's size are known when the line runs.

Data values and reserve fills may name a later label.  A value whose
evaluation fails is written as zero units and recorded as a fixup: where
its bytes are, its tokens, the values its names had at that moment, and
the length of the diagnostics log.  When the run ends, normally or at
'@error', the fixups are evaluated in order against those values and the
labels defined by then, range-checked under strict, and written in place.
The first that fails is the translation's error, and the log is cut back
to what it held when that value's line ran.  An error raised by a line
during the run ends the translation before any fixup is evaluated.

Before the run, '@if [name]' blocks are treated as guarded regions:
a region stays only while its name is referenced from somewhere outside
every region of that name.  Starting from all regions included, regions
whose names lose their references are dropped until nothing changes,
which removes procedures that are only used by other removed procedures.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from typing import Optional

from .engine import ControlEngine, Limits, build_structure
from .errors import (
    EmitError,
    EvalError,
    InternalError,
    LimitError,
    Position,
    StructureError,
    TranslationError,
    UserAbort,
)
from .expr import SymbolTable, Value, eval_values, evaluate, split_values, truthy
from .lexer import DATA_KEYWORDS, Line, LineKind, Token, TokenKind, dotted_name_end

_SIZES = {"b": 1, "w": 2, "d": 4, "p": 6, "q": 8}


@dataclass(slots=True)
class Span:
    """Byte range produced by one stream line."""

    line: Line
    start: int
    end: int


@dataclass
class EmitImage:
    endian: str = "little"
    strict: bool = False
    data: bytearray = field(default_factory=bytearray)
    labels: dict[str, int] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)


def _guard_name(args) -> Optional[str]:
    """The name in an exactly '[ name ]' argument list, else None."""
    if (
        len(args) == 3
        and args[0].is_punct("[")
        and args[1].kind is TokenKind.IDENTIFIER
        and args[2].is_punct("]")
    ):
        return args[1].text
    return None


def _collect_guards(lines, blocks_by_open):
    """All guarded regions as (name, open_idx, close_idx)."""
    regions = []
    for idx, line in enumerate(lines):
        if line.kind is not LineKind.DEST_DIRECTIVE:
            continue
        base = line.tokens[0].text[1:]
        name = _guard_name(line.tokens[1:])
        if name is None:
            continue
        if base == "if":
            block = blocks_by_open[idx]
            if block.arms or block.else_idx is not None:
                raise StructureError(
                    "a guarded block cannot take elif or else", line.pos
                )
            regions.append((name, idx, block.close_idx))
        elif base in ("elif", "while", "until"):
            raise StructureError(
                "a guard can only open its own block", line.pos
            )
    return regions


def resolve_guarded_regions(lines) -> tuple[list[int], set[str]]:
    """Decide which lines survive guard elimination.

    Returns (visible line indices, included guard names).  Starts with
    every region included and repeatedly drops regions whose names are
    no longer referenced outside same-named regions, until stable.
    """
    blocks_by_open, _ = build_structure(
        lines, LineKind.DEST_DIRECTIVE, track_braces=False
    )
    regions = _collect_guards(lines, blocks_by_open)
    cover: list[set[str]] = [set() for _ in lines]
    for name, lo, hi in regions:
        for k in range(lo, hi + 1):
            cover[k].add(name)
    guard_names = {name for name, _, _ in regions}
    included = set(guard_names)
    for _ in range(len(guard_names) + 1):
        refs: set[str] = set()
        for k, line in enumerate(lines):
            if cover[k] - included:
                continue  # inside a dropped region
            for t in line.tokens:
                if (
                    t.kind is TokenKind.IDENTIFIER
                    and t.text in guard_names
                    and t.text not in cover[k]
                ):
                    refs.add(t.text)
        if refs == included:
            break
        included = refs
    else:
        raise InternalError("guard resolution did not converge")
    visible = [k for k in range(len(lines)) if not (cover[k] - included)]
    return visible, included


class _DestHandler:
    def __init__(self, env, image, diagnostics, limits):
        self.env: SymbolTable = env
        self.image: EmitImage = image
        self.labels: dict[str, int] = image.labels
        self.diagnostics = diagnostics
        self.limits: Limits = limits
        # (id(line), value index) -> (tokens, names, unit size, line pos)
        self.deferred: dict[tuple[int, int], tuple] = {}
        # (start, end, same line run as the previous, deferred entry,
        #  values of the entry's names then, log length then)
        self.fixups: list[tuple] = []

    def lookup(self, name: str) -> Optional[Value]:
        value = self.env.get(name)
        return self.labels.get(name) if value is None else value

    def condition(self, args, pos: Position, keyword: str) -> bool:
        if _guard_name(args) is not None:
            # a guard line that survived elimination is included
            return True
        if not args:
            raise EvalError("missing condition", pos)
        return truthy(evaluate(args, self.lookup))

    def count(self, args, pos: Position, what: str) -> int:
        value = evaluate(args, self.lookup)
        if not isinstance(value, int):
            raise EvalError(f"{what} must be an integer", pos)
        return value

    def values(self, args, pos: Position) -> list[Value]:
        return eval_values(args, self.lookup)

    def report(self, message: str) -> None:
        self.diagnostics.append(message)

    def unknown(self, line: Line, engine) -> Optional[int]:
        raise StructureError(
            f"unknown directive '{line.tokens[0].text}'", line.tokens[0].pos
        )

    def content(self, line: Line, engine) -> Optional[int]:
        kind = line.kind
        if kind is LineKind.ASSIGNMENT:
            self._assignment(line)
        elif kind is LineKind.LABEL:
            self._define_label(_name(line.tokens[:-1]), line.pos)
        elif kind is LineKind.DATA_EMISSION:
            self._data_line(line, list(line.tokens))
        elif kind is LineKind.PLAIN:
            self._labeled_data(line)
        else:
            raise StructureError(
                f"a {kind.value} line has no meaning in the intermediate "
                "stream",
                line.pos,
            )
        return None

    # -- pieces --

    def _assignment(self, line: Line) -> None:
        tokens = line.tokens
        eq = next(i for i, t in enumerate(tokens) if t.is_op("="))
        self.env.assign(_name(tokens[:eq]), evaluate(tokens[eq + 1 :], self.lookup))

    def _define_label(self, name: str, pos: Position) -> None:
        if name in self.labels:
            raise TranslationError(f"duplicate label '{name}'", pos)
        self.labels[name] = len(self.image.data)

    def _labeled_data(self, line: Line) -> None:
        tokens = list(line.tokens)
        j = dotted_name_end(tokens)
        k = j + 1 if j < len(tokens) and tokens[j].is_punct(":") else j
        if (
            k < len(tokens)
            and tokens[k].kind is TokenKind.IDENTIFIER
            and tokens[k].text in DATA_KEYWORDS
        ):
            self._define_label(_name(tokens[:j]), line.pos)
            self._data_line(line, tokens[k:])
            return
        raise TranslationError("unrecognized statement", line.pos)

    def _data_line(self, line: Line, tokens: list[Token]) -> None:
        keyword = tokens[0].text
        size = _SIZES[keyword[1]]
        args = tokens[1:]
        data = self.image.data
        start = len(data)
        if keyword[0] == "r":
            self._reserve(line, args, size)
        elif not args:
            raise EmitError(f"'{keyword}' needs at least one value", line.pos)
        else:
            # every value is evaluated before any is written
            parts = list(split_values(args))
            values = [0 if p is None else self._now(p) for p in parts]
            joined = False
            for idx, value in enumerate(values):
                if value is None:
                    self._defer(line, idx, parts[idx], size, size, joined)
                    joined = True
                elif isinstance(value, str):
                    self._emit_string(value, keyword, line.pos)
                else:
                    data += self._unit_bytes(value, size, line.pos)
        end = len(data)
        if end > start:
            self.image.spans.append(Span(line, start, end))

    def _reserve(self, line: Line, args, size: int) -> None:
        """count [,] [value].  The count never looks forward; the value
        may, like any data value."""
        pos = line.pos
        if not args:
            raise EmitError("reserve needs a count", pos)
        parts = split_values(args)
        try:
            count_tokens = next(parts)
        except TranslationError:
            count_tokens = None
        if count_tokens is None:
            # a '?' or malformed count: fail where evaluating while parsing
            # does, at the first value fault or parse fault
            evaluate(args, self.lookup)
        count = evaluate(count_tokens, self.lookup)
        if not isinstance(count, int):
            raise EmitError("reserve count must be an integer", pos)
        if count < 0:
            raise EmitError("negative reserve count", pos)
        if count > self.limits.max_loop:
            raise LimitError(
                f"reserve count exceeds {self.limits.max_loop}", pos
            )
        rest = args[len(count_tokens) :]
        if rest and rest[0].is_punct(","):
            rest = rest[1:]
            if not rest:
                raise EvalError("expected a value after ','", pos)
        fill_tokens = next(parts) if rest else None
        if len(rest) > (1 if fill_tokens is None else len(fill_tokens)):
            raise EmitError("reserve takes a count and at most one value", pos)
        fill = 0 if fill_tokens is None else self._now(fill_tokens)
        if fill is None:
            self._defer(line, 1, fill_tokens, size, size * count, False)
        elif not isinstance(fill, int):
            raise EmitError("reserve value must be an integer", pos)
        else:
            self.image.data += self._unit_bytes(fill, size, pos) * count

    def _now(self, tokens) -> Optional[Value]:
        """The value of tokens now, or None when it has to wait."""
        try:
            return evaluate(tokens, self.lookup)
        except EvalError:
            return None

    def _defer(self, line, idx, tokens, size, nbytes, joined) -> None:
        """Write nbytes of zeros and record a fixup for them."""
        key = (id(line), idx)
        entry = self.deferred.get(key)
        if entry is None:
            entry = self.deferred[key] = (tokens, _names(tokens), size, line.pos)
        start = len(self.image.data)
        saved = tuple(map(self.env.get, entry[1]))
        self.fixups.append(
            (start, start + nbytes, joined, entry, saved, len(self.diagnostics))
        )
        self.image.data += bytes(nbytes)

    def patch(self) -> None:
        """Evaluate the fixups in order and write them in place.

        Within one run of a line every value is evaluated before any is
        range-checked, as when the line's values are written directly.
        """
        labels, data = self.labels, self.image.data
        unfit = None  # (error, log length) of the current line run
        for start, end, joined, entry, saved, mark in self.fixups:
            if unfit is not None and not joined:
                break
            tokens, names, size, pos = entry
            seen = {n: v for n, v in zip(names, saved) if v is not None}
            try:
                value = evaluate(tokens, ChainMap(seen, labels).get)
            except EvalError:
                del self.diagnostics[mark:]
                raise
            try:
                unit = self._unit_bytes(value, size, pos)
            except EmitError as exc:
                unfit = unfit or (exc, mark)
                continue
            data[start:end] = unit * ((end - start) // size)
        if unfit is not None:
            del self.diagnostics[unfit[1] :]
            raise unfit[0]

    def _unit_bytes(self, v: int, size: int, pos: Position) -> bytes:
        bits = 8 * size
        if self.image.strict and not -(1 << bits - 1) <= v < 1 << bits:
            raise EmitError(f"value {v} does not fit in {size} byte(s)", pos)
        return (v & ((1 << bits) - 1)).to_bytes(size, self.image.endian)

    def _emit_string(self, s: str, keyword: str, pos: Position) -> None:
        if keyword != "db":
            raise EmitError("strings can only be emitted with 'db'", pos)
        try:
            self.image.data += s.encode("latin-1")
        except UnicodeEncodeError:
            raise EmitError("string has characters above 0xFF", pos) from None


def _name(tokens) -> str:
    """The dotted name spelled by the identifiers among tokens."""
    return ".".join(t.text for t in tokens if t.kind is TokenKind.IDENTIFIER)


def _names(tokens) -> tuple[str, ...]:
    """Every name a value mentions, live or in a skipped branch."""
    names = {}
    i = 0
    while i < len(tokens):
        if tokens[i].kind is TokenKind.IDENTIFIER:
            j = dotted_name_end(tokens, i)
            names[_name(tokens[i:j])] = None
            i = j
        else:
            i += 1
    return tuple(names)


def run_dest_phase(
    stream,
    defines: Optional[dict] = None,
    *,
    endian: str = "little",
    strict: bool = False,
    diagnostics: Optional[list] = None,
    limits: Optional[Limits] = None,
) -> EmitImage:
    lines = list(stream.lines if hasattr(stream, "lines") else stream)
    diagnostics = diagnostics if diagnostics is not None else []
    limits = limits or Limits()
    visible_idx, _ = resolve_guarded_regions(lines)
    image = EmitImage(endian=endian, strict=strict)
    handler = _DestHandler(
        SymbolTable(dict(defines or {})), image, diagnostics, limits
    )
    engine = ControlEngine("@", handler, limits, track_braces=False)
    try:
        engine.run([lines[k] for k in visible_idx])
    except UserAbort:
        handler.patch()
        raise
    handler.patch()
    return image


__all__ = [
    "EmitImage",
    "Span",
    "resolve_guarded_regions",
    "run_dest_phase",
]
