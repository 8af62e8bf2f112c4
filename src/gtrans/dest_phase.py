"""Second phase: '@' directives, labels, and byte emission.

The intermediate stream is executed once.  The engine hands every line
that is not one of its directives to compile, its one hook, which turns
it into a closure that runs it; an '@' key the engine does not know is
an error there.  One builder compiles data and reserve lines: a reserve
is a data line whose first value is a count and whose one fill is
written count times.  Expressions look names up in one table: an
assignment writes it and a label only adds a name it lacks, so a symbol
shadows a label in either order.  Conditions, assignment right sides and
reserve counts never look forward, so each label's offset and each
line's size are known when the line runs.

Data values and reserve fills may name a later label.  A value whose
evaluation fails, or would (it reads an undefined name outside the
right side of every '&&' and '||'), is written as zero units, and each
run of a line that defers values leaves one fixup record, even a
zero-count reserve's, whose record is what checks its fill.  A record is
one flat tuple, since a long loop keeps one per pass until the end:

    (log length, names, value of each name then,
     entry, start, nbytes for each deferred value)

names is the line's names, shared by all its runs; a value is None for
a name that was undefined.  entry is the value's (compiled expression,
unit size, position, reads), also shared; its zero units are
data[start : start + nbytes].  No other object is kept per run, and the
image keeps each emitting line run as its line and start offset only.

When the run ends, normally or at '@error', the records are patched in
order against those values and the labels defined by then: every value
of one is evaluated before any is range-checked under strict and
written in place.  The first that fails is the translation's error, and
the log is cut back to what it held when that line ran.  An error
raised by a line during the run ends the translation before any fixup
is evaluated.

Before the run, '@if [name]' blocks are treated as guarded regions:
a region stays only while its name is referenced from somewhere outside
every region of that name.  One scan counts each name's references from
lines outside its own regions.  A name at zero drops: each live line of
its regions dies once and lowers the count of each name it references,
so procedures used only by removed procedures go too, in linear time.
Helpers that only reference each other stay.  A dropped region leaves
no line behind.  An included region is just its body: its '@if [name]'
and '@endif' lines are left out too, so the run never sees a guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .engine import ControlEngine, Limits, build_structure
from .errors import (
    EmitError,
    EvalError,
    LimitError,
    Position,
    StructureError,
    TranslationError,
    UserAbort,
)
from .expr import Value, compile_expr, computed, failing, split_values
from .lexer import Line, LineKind, TokenKind, dotted_name, dotted_name_end
from .lexer import labeled_data_keyword

_SIZES = {"b": 1, "w": 2, "d": 4, "p": 6, "q": 8}


@dataclass(slots=True)
class Span:
    """Byte range produced by one run of a stream line, built on demand."""

    line: Line
    start: int
    end: int


@dataclass
class EmitImage:
    endian: str = "little"
    strict: bool = False
    data: bytearray = field(default_factory=bytearray)
    labels: dict[str, int] = field(default_factory=dict)
    # Each line run that emitted bytes, and the offset of its first byte.
    # Every byte of data is appended inside exactly one line's run, and
    # fixups only overwrite in place, so a run ends where the next one
    # starts and the last one ends at len(data).
    lines: list[Line] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)

    @property
    def spans(self) -> list[Span]:
        """The byte range of each emitting line run, in order."""
        ends = [*self.starts[1:], len(self.data)]
        return list(map(Span, self.lines, self.starts, ends))


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


def _collect_guards(lines, structure):
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
            block = structure[idx]
            if block.arms:
                raise StructureError(
                    "a guarded block cannot take elif or else", line.pos
                )
            regions.append((name, idx, block.close_idx))
        elif base in ("elif", "while", "repeat", "until", "break"):
            raise StructureError(
                "a guard can only open its own block", line.pos
            )
    return regions


def resolve_guarded_regions(lines) -> tuple[list[int], set[str]]:
    """Decide which lines survive guard elimination.

    Returns (visible line indices, included guard names).  The guard
    lines of an included region are not visible: only its body is.
    """
    structure = build_structure(lines, LineKind.DEST_DIRECTIVE)
    regions = _collect_guards(lines, structure)
    if not regions:
        return list(range(len(lines))), set()
    count = {name: 0 for name, _, _ in regions}
    inside = dict(count)  # how many regions of each name cover line k
    spans = {name: [] for name in count}
    refs = {}  # names read by each line in a region, own regions aside
    stack, opens = [], {region[1]: region for region in regions}
    for k, line in enumerate(lines):
        while stack and stack[-1][2] < k:
            inside[stack.pop()[0]] -= 1
        region = opens.get(k)
        if region:
            stack.append(region)
            spans[region[0]].append(region)
            inside[region[0]] += 1
        names = [
            t.text
            for t in line.tokens
            if t.text in count
            and t.kind is TokenKind.IDENTIFIER
            and not inside[t.text]
        ]
        for name in names:
            count[name] += 1
        if stack:
            refs[k] = names
    dropped = [name for name, n in count.items() if n == 0]
    dead = bytearray(len(lines))
    for name in dropped:  # grows while it is walked
        for _, lo, hi in spans[name]:
            for k in range(lo, hi + 1):
                if not dead[k]:
                    dead[k] = 1
                    for ref in refs[k]:
                        count[ref] -= 1
                        if count[ref] == 0:
                            dropped.append(ref)
    for _, lo, hi in regions:
        dead[lo] = dead[hi] = 1
    visible = [k for k, gone in enumerate(dead) if not gone]
    return visible, set(count).difference(dropped)


class _DestHandler:
    def __init__(self, env, image, diagnostics, limits):
        # every name defined so far: a symbol's value, or else a label's
        self.seen: dict[str, Value] = env
        self.lookup = self.seen.get
        self.image: EmitImage = image
        self.labels: dict[str, int] = image.labels
        self.diagnostics = diagnostics
        self.limits: Limits = limits
        # one flat record per line run that deferred values: log length,
        # names, their values then, then entry, start, nbytes per value
        self.fixups: list[tuple] = []

    # -- the engine's compile hook: a line into a closure that runs it --

    def compile(self, line: Line):
        kind = line.kind
        if kind is LineKind.ASSIGNMENT:
            return self._assignment(line)
        if kind is LineKind.LABEL:
            name = dotted_name(line.tokens[:-1])
            return lambda: self._define_label(name, line.pos)
        if kind is LineKind.DATA_EMISSION or kind is LineKind.PLAIN:
            tokens, k = line.tokens, 0  # k: the data keyword, after the label
            if kind is LineKind.PLAIN:
                k = labeled_data_keyword(tokens)
                if k is None:
                    raise TranslationError("unrecognized statement", line.pos)
            return self._units(line, k, dotted_name(tokens[:k]) if k else None)
        if kind is LineKind.DEST_DIRECTIVE:
            t0 = line.tokens[0]
            raise StructureError(f"unknown directive '{t0.text}'", t0.pos)
        raise StructureError(
            f"a {kind.value} line has no meaning in the intermediate stream",
            line.pos,
        )

    def _assignment(self, line: Line):
        tokens = line.tokens
        eq = dotted_name_end(tokens)
        name, rhs = dotted_name(tokens[:eq]), compile_expr(tokens[eq + 1 :])
        seen, lookup = self.seen, self.lookup

        def assign():
            seen[name] = rhs(lookup)

        return assign

    def _define_label(self, name: str, pos: Position) -> None:
        if name in self.labels:
            raise TranslationError(f"duplicate label '{name}'", pos)
        offset = self.labels[name] = len(self.image.data)
        self.seen.setdefault(name, offset)

    def _units(self, line: Line, k: int, label: Optional[str]):
        """The closure of a data or reserve line.  A reserve, 'count [,]
        [fill]', is a data line whose first value is a count and whose one
        fill, a zero when there is none, is written count times.  In order,
        the closure defines the label; for a reserve, evaluates the count,
        which never looks forward, and checks that it is an integer, not
        negative and at most max_loop; raises the parse or arity fault;
        evaluates every value before writing any; writes each value now, or
        writes zeros and defers it; records its run if it wrote a byte."""
        tokens, pos = line.tokens, line.pos
        keyword, args = tokens[k].text, tokens[k + 1 :]
        size = _SIZES[keyword[1]]
        values, fault = split_values(args)
        count = None
        if keyword[0] == "r":
            if not values:
                count = failing(EmitError, "reserve needs a count", pos)
            else:
                fn, end, *_ = values.pop(0)
                count = computed(fn, args, end)
            if len(values) > 1:
                message = "reserve takes a count and at most one value"
                fault = failing(EmitError, message, pos)
            values = values[:1] or [(None, None, (), ())]  # no fill: a zero
        elif not args:
            fault = failing(
                EmitError, f"'{keyword}' needs at least one value", pos
            )
        # fixup entry of each value: (closure, unit size, pos, reads)
        entries = [(fn, size, pos, reads) for fn, _, _, reads in values]
        names = tuple(dict.fromkeys(n for _, _, ns, _ in values for n in ns))
        image = self.image
        data, lines, starts = image.data, image.lines, image.starts

        def emit():
            nonlocal data  # += on a bytearray grows image.data in place
            if label is not None:
                self._define_label(label, pos)
            n = 1  # times each value is written
            if count is not None:
                n = count(self.lookup)
                if not isinstance(n, int):
                    raise EmitError("reserve count must be an integer", pos)
                if n < 0:
                    raise EmitError("negative reserve count", pos)
                if n > self.limits.max_loop:
                    raise LimitError(
                        f"reserve count exceeds {self.limits.max_loop}", pos
                    )
            if fault is not None:
                fault(self.lookup)
            # every value is evaluated before any is written
            got = [0 if fn is None else self._now(fn, reads)
                   for fn, _, _, reads in entries]
            start, waiting = len(data), []
            for entry, value in zip(entries, got):
                if value is None:
                    waiting += entry, len(data), size * n
                    data += bytes(size * n)
                elif isinstance(value, int):
                    data += self._unit_bytes(value, size, pos) * n
                elif count is not None:
                    raise EmitError("reserve value must be an integer", pos)
                elif keyword != "db":
                    message = "strings can only be emitted with 'db'"
                    raise EmitError(message, pos)
                else:
                    try:
                        data += value.encode("latin-1")
                    except UnicodeEncodeError:
                        message = "string has characters above 0xFF"
                        raise EmitError(message, pos) from None
            if waiting:
                self.fixups.append((len(self.diagnostics), names,
                                    *map(self.lookup, names), *waiting))
            if len(data) > start:
                lines.append(line)
                starts.append(start)

        return emit

    # -- running values --

    def _now(self, fn, reads) -> Optional[Value]:
        """The value of fn now, or None when it has to wait: without
        running it when a name in reads is not defined yet."""
        if None in map(self.lookup, reads):
            return None
        try:
            return fn(self.lookup)
        except EvalError:
            return None

    def patch(self) -> None:
        """Evaluate the fixups in order and write them in place.

        Within one run of a line every value is evaluated before any is
        range-checked, as when the line's values are written directly.
        The first that fails cuts the log back to that line run's mark.
        """
        labels, data = self.labels, self.image.data
        for mark, names, *rest in self.fixups:
            # a name undefined when the line ran reads the final labels
            lookup = {n: labels.get(n) if v is None else v
                      for n, v in zip(names, rest)}.get
            flat = iter(rest[len(names) :])  # entry, start, nbytes, ...
            waiting = list(zip(flat, flat, flat))
            try:
                got = [entry[0](lookup) for entry, _, _ in waiting]
                for ((_, size, pos, _), at, n), value in zip(waiting, got):
                    unit = self._unit_bytes(value, size, pos)
                    data[at : at + n] = unit * (n // size)
            except TranslationError:
                del self.diagnostics[mark:]
                raise

    def _unit_bytes(self, v: int, size: int, pos: Position) -> bytes:
        bits = 8 * size
        if self.image.strict and not -(1 << bits - 1) <= v < 1 << bits:
            raise EmitError(f"value {v} does not fit in {size} byte(s)", pos)
        return (v & ((1 << bits) - 1)).to_bytes(size, self.image.endian)


def run_dest_phase(
    stream,
    defines: Optional[dict] = None,
    *,
    endian: str = "little",
    strict: bool = False,
    diagnostics: Optional[list] = None,
    limits: Optional[Limits] = None,
) -> EmitImage:
    lines = list(stream)
    diagnostics = diagnostics if diagnostics is not None else []
    limits = limits or Limits()
    visible_idx, _ = resolve_guarded_regions(lines)
    image = EmitImage(endian=endian, strict=strict)
    handler = _DestHandler(dict(defines or {}), image, diagnostics, limits)
    engine = ControlEngine(LineKind.DEST_DIRECTIVE, handler.compile,
                           handler.lookup, diagnostics, limits)
    try:
        engine.run([lines[k] for k in visible_idx])
    except UserAbort:
        handler.patch()
        raise
    handler.patch()
    return image


__all__ = [
    "EmitImage",
    "resolve_guarded_regions",
    "run_dest_phase",
]
