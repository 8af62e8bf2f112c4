"""Directive control flow, shared by both phases.

One interpreter executes the structural directives (if/elif/else/endif,
while/endw, repeat/until, break) plus print and error, whatever the
prefix character.  It evaluates their conditions, counts and values
itself, through the lookup the phase hands it, and appends print and
error reports to the phase's diagnostics list.  A phase supplies only
what is its own, through a handler: what a content line means and what
an unknown directive does.  The source phase runs this engine over '#'
lines, the destination phase over '@' lines; a class expansion is pushed
as a nested program on an explicit stack, so expansion depth never
touches the Python recursion limit and a break cannot cross an
expansion boundary.

The engine is phase-neutral and knows no class bodies.  A program
reaches it with each body already folded into the line that defines it,
so every line is a directive of the engine's prefix, a blank, or content
for the handler.

Block structure is resolved before a program runs: every open directive
is matched with its arms and its closing line up front, so a dangling
'#endif' fails fast even when execution would never reach it.

A line is compiled when it runs: a directive to its key and its compiled
condition, count or values, a content line to whatever the phase builds
for it (ControlEngine.compiled).  Only lines inside a while or repeat
block, whose ranges build_structure gives, keep their compiled form, in
a per-program cache by pc; any other line is compiled each time it runs
and then dropped, since most lines run once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

from .errors import (
    EvalError,
    InternalError,
    LimitError,
    NO_POS,
    Position,
    StructureError,
    UserAbort,
)
from .expr import Lookup, compile_expr, compile_values, failing, truthy
from .lexer import Line, LineKind


@dataclass
class Limits:
    max_loop: int = 1_000_000
    max_depth: int = 1024


@dataclass
class Block:
    kind: str                      # "if" | "while" | "repeat"
    open_idx: int
    arms: list[int] = field(default_factory=list)
    else_idx: Optional[int] = None
    close_idx: int = -1


@dataclass
class Frame:
    """One active loop."""

    block: Block
    iterations: int
    times: Optional[int] = None


class PhaseHandler(Protocol):
    def content(self, line: Line, engine: "ControlEngine") -> None:
        """Handle a non-directive, non-blank line."""

    def unknown(self, line: Line, engine: "ControlEngine") -> None:
        """Handle a directive key the engine does not know."""


_OPENERS = {"if": "endif", "while": "endw", "repeat": "until"}


def build_structure(lines, directive_kind: LineKind):
    """Match every structural directive with its closing line.

    Returns (blocks_by_open, owner) where owner maps each elif, else and
    closing line back to its block.  Only lines of directive_kind take
    part; every other line is content to the engine.
    """
    blocks_by_open: dict[int, Block] = {}
    owner: dict[int, Block] = {}
    stack: list[Block] = []
    for idx, line in enumerate(lines):
        if line.kind is not directive_kind:
            continue
        name = line.tokens[0].text
        base = name[1:]
        pos = line.tokens[0].pos
        if base in _OPENERS:
            stack.append(Block(base, idx))
        elif base == "elif":
            if not stack or stack[-1].kind != "if":
                raise StructureError(f"'{name}' without a matching if", pos)
            if stack[-1].else_idx is not None:
                raise StructureError(f"'{name}' after else", pos)
            stack[-1].arms.append(idx)
            owner[idx] = stack[-1]
        elif base == "else":
            if not stack or stack[-1].kind != "if":
                raise StructureError(f"'{name}' without a matching if", pos)
            if stack[-1].else_idx is not None:
                raise StructureError(f"duplicate '{name}'", pos)
            stack[-1].else_idx = idx
            owner[idx] = stack[-1]
        elif base in ("endif", "endw", "until"):
            want = {"endif": "if", "endw": "while", "until": "repeat"}[base]
            if not stack or stack[-1].kind != want:
                raise StructureError(f"unexpected '{name}'", pos)
            block = stack.pop()
            block.close_idx = idx
            blocks_by_open[block.open_idx] = block
            owner[idx] = block
    if stack:
        block = stack[-1]
        name = lines[block.open_idx].tokens[0].text
        raise StructureError(
            f"'{name}' was never closed", lines[block.open_idx].pos
        )
    return blocks_by_open, owner


@dataclass
class _Program:
    lines: list[Line]
    blocks: dict[int, Block]
    owner: dict[int, Block]
    # compiled ops of the lines inside while and repeat blocks, by pc;
    # None until the line first runs
    ops: dict[int, object]
    pc: int = 0
    frames: list[Frame] = field(default_factory=list)


class ControlEngine:
    """Runs one phase's programs over its directive set."""

    def __init__(
        self,
        directive_kind: LineKind,
        handler: PhaseHandler,
        lookup: Lookup,
        diagnostics: list[str],
        limits: Limits,
    ) -> None:
        self.directive_kind = directive_kind
        self.handler = handler
        self.lookup = lookup
        self.diagnostics = diagnostics
        self.limits = limits
        self.stack: list[_Program] = []

    # -- program stack --

    def push(self, lines: Sequence[Line], pos: Position) -> None:
        # the new program's depth is len(self.stack): the top level is 0
        if len(self.stack) > self.limits.max_depth:
            raise LimitError(
                f"expansion depth exceeds {self.limits.max_depth}", pos
            )
        blocks, owner = build_structure(lines, self.directive_kind)
        ops: dict[int, object] = {}
        for block in blocks.values():
            if block.kind != "if":
                loop = range(block.open_idx, block.close_idx + 1)
                ops.update(dict.fromkeys(loop))
        self.stack.append(_Program(list(lines), blocks, owner, ops))

    def run(self, lines: Sequence[Line]) -> None:
        self.stack = []
        self.push(lines, NO_POS)
        while self.stack:
            prog = self.stack[-1]
            if prog.pc >= len(prog.lines):
                if prog.frames:
                    raise InternalError("loop frames left at program end")
                self.stack.pop()
                continue
            line = prog.lines[prog.pc]
            if line.kind is self.directive_kind:
                self._directive(prog, *self.compiled(self._compile))
            else:
                if line.kind is not LineKind.BLANK:
                    self.handler.content(line, self)
                prog.pc += 1

    def compiled(self, build, pc: Optional[int] = None):
        """The compiled form of line pc of the running program, by default
        the running line, as build(line) makes it.

        A line inside a while or repeat block is built once and kept with
        its program; any other line is built each time it is asked for.
        """
        prog = self.stack[-1]
        pc = prog.pc if pc is None else pc
        op = prog.ops.get(pc)
        if op is None:
            op = build(prog.lines[pc])
            if pc in prog.ops:
                prog.ops[pc] = op
        return op

    # -- directive semantics --

    def _compile(self, line: Line) -> tuple:
        """(key without its prefix, compiled argument or None, position)."""
        key, args = line.tokens[0], line.tokens[1:]
        base, pos = key.text[1:], key.pos
        if base in ("print", "error"):
            return base, compile_values(args), pos
        if base in ("if", "elif", "while") and not args:
            return base, failing(EvalError, "missing condition", pos), pos
        if args and base in ("if", "elif", "while", "until", "repeat", "break"):
            return base, compile_expr(args), pos
        return base, None, pos

    def _directive(self, prog: _Program, base: str, arg, pos: Position) -> None:
        if base == "if":
            self._enter_conditional(prog, arg)
        elif base in ("elif", "else"):
            # reached by falling out of the arm that ran
            prog.pc = prog.owner[prog.pc].close_idx + 1
        elif base == "endif":
            prog.pc += 1
        elif base == "while":
            self._while(prog, arg, pos)
        elif base == "endw":
            prog.pc = prog.owner[prog.pc].open_idx
        elif base == "repeat":
            self._repeat(prog, arg, pos)
        elif base == "until":
            self._until(prog, arg, pos)
        elif base == "break":
            self._break(prog, arg, pos)
        elif base == "print":
            self.diagnostics.append(self._format(arg))
            prog.pc += 1
        elif base == "error":
            message = self._format(arg)
            self.diagnostics.append(f"{pos.file}:{pos.line}: {message}")
            raise UserAbort(message, pos)
        else:
            self.handler.unknown(prog.lines[prog.pc], self)
            prog.pc += 1

    def _count(self, count, pos: Position, what: str) -> int:
        value = count(self.lookup)
        if not isinstance(value, int):
            raise EvalError(f"{what} must be an integer", pos)
        return value

    def _format(self, values) -> str:
        return " ".join(
            v if isinstance(v, str) else str(v) for v in values(self.lookup)
        )

    def _enter_conditional(self, prog: _Program, cond) -> None:
        block = prog.blocks[prog.pc]
        if truthy(cond(self.lookup)):
            prog.pc += 1
            return
        for arm_idx in block.arms:
            _, arm_cond, _ = self.compiled(self._compile, arm_idx)
            if truthy(arm_cond(self.lookup)):
                prog.pc = arm_idx + 1
                return
        if block.else_idx is not None:
            prog.pc = block.else_idx + 1
        else:
            prog.pc = block.close_idx + 1

    def _while(self, prog: _Program, cond, pos: Position) -> None:
        block = prog.blocks[prog.pc]
        top = prog.frames[-1] if prog.frames else None
        if top is not None and top.block is block:
            frame = top
        else:
            frame = Frame(block, 0)
            prog.frames.append(frame)
        if truthy(cond(self.lookup)):
            frame.iterations += 1
            if frame.iterations > self.limits.max_loop:
                raise LimitError(
                    f"loop iteration limit exceeded ({self.limits.max_loop})",
                    pos,
                )
            prog.pc += 1
        else:
            prog.frames.pop()
            prog.pc = block.close_idx + 1

    def _repeat(self, prog: _Program, count, pos: Position) -> None:
        block = prog.blocks[prog.pc]
        times: Optional[int] = None
        if count is not None:
            times = self._count(count, pos, "repeat count")
            if times < 0:
                raise EvalError("negative repeat count", pos)
            if times == 0:
                prog.pc = block.close_idx + 1
                return
        elif len(prog.lines[block.close_idx].tokens) == 1:
            raise StructureError(
                "repeat needs a count or a condition on its closing line", pos
            )
        prog.frames.append(Frame(block, 1, times))
        prog.pc += 1

    def _until(self, prog: _Program, cond, pos: Position) -> None:
        block = prog.owner[prog.pc]
        if not prog.frames or prog.frames[-1].block is not block:
            raise InternalError("loop frame mismatch at until")
        frame = prog.frames[-1]
        done = cond is not None and truthy(cond(self.lookup))
        if not done and frame.times is not None:
            done = frame.iterations >= frame.times
        if done:
            prog.frames.pop()
            prog.pc += 1
            return
        frame.iterations += 1
        if frame.iterations > self.limits.max_loop:
            raise LimitError(
                f"loop iteration limit exceeded ({self.limits.max_loop})", pos
            )
        prog.pc = block.open_idx + 1

    def _break(self, prog: _Program, count, pos: Position) -> None:
        level = 1
        if count is not None:
            level = self._count(count, pos, "break level")
        if not prog.frames:
            raise StructureError("break outside of a loop", pos)
        if level < 0:
            raise StructureError("negative break level", pos)
        if level == 0:
            # continue: hand control to the innermost closing line
            prog.pc = prog.frames[-1].block.close_idx
            return
        if level > len(prog.frames):
            raise StructureError(
                f"break level {level} exceeds loop nesting {len(prog.frames)}",
                pos,
            )
        for _ in range(level):
            frame = prog.frames.pop()
        prog.pc = frame.block.close_idx + 1


__all__ = [
    "Block",
    "ControlEngine",
    "Frame",
    "Limits",
    "PhaseHandler",
    "build_structure",
]
