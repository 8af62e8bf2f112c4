"""Directive control flow, shared by both phases.

One interpreter executes the structural directives (if/elif/else/endif,
while/endw, repeat/until, break) plus print and error, whatever the
prefix character.  It evaluates their conditions, counts and values
itself, through the lookup the phase hands it, and appends print and
error reports to the phase's diagnostics list.  A phase meets the engine
at one point, its compile hook: compile_line(line) turns any other line,
including a directive key the engine does not know, into an op.  Running
an op does what the line means to the phase and returns the Program to
push next, or None; the engine does the push, so no phase holds the
engine.  The source phase runs this engine over '#' lines, the
destination phase over '@' lines; a class expansion is pushed as a nested
program on an explicit stack, so expansion depth never touches the Python
recursion limit and a break cannot cross an expansion boundary.

The engine is phase-neutral and knows no class bodies.  A program
reaches it with each body already folded into the line that defines it,
so every line is a directive of the engine's prefix, a blank, or a line
for the phase.

Block structure is resolved before a program runs: every open directive
is matched with its arms and its closing line up front, so a dangling
'#endif', a bare '#repeat ... #until' or an '#else' with arguments fails
fast even when execution would never reach it.  build_structure
returns one map from each structural line (opener, arm, else, closer,
break) to its block, a break's block being the innermost loop around
it, so a running loop keeps only its pass counter.  A loop's opening
line runs once, on entry; its closing line ('#endw' re-testing the
while condition, or '#until') decides the next pass.

A line is compiled when it runs, by _compiled: one of the engine's
directives to its (key, compiled argument, position) tuple, any other
line to the op the phase's hook builds.  Each program keeps its compiled
forms by Line object, which compares by identity, so a line the stream
holds at many positions is one entry.  An expansion keeps each op from
its first run, as long as the Program lives: a kept plan pushes that
same Program again.  The top-level program lives for the whole run and
most of its lines run once, so it keeps an op only from its line's
second sighting and marks the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .errors import (
    EvalError,
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
    outer: Optional[Block] = None  # the innermost loop around this block


_OPENERS = {"if": "endif", "while": "endw", "repeat": "until"}
_CLOSERS = {close: opener for opener, close in _OPENERS.items()}
# the directives the engine runs itself
_KEYS = {*_OPENERS, *_CLOSERS, "elif", "else", "break", "print", "error"}
# a top-level line's entry in Program.ops after its first sighting
_SEEN = object()


def build_structure(lines, directive_kind: LineKind) -> dict[int, Block]:
    """Match every structural directive with its closing line.

    Returns a map from each opening, elif, else and closing line to its
    block, and from each break line to the innermost loop around it.
    Only lines of directive_kind take part; every other line is content
    to the engine.  An else, endif or endw line with anything after its
    key is a fault here too.
    """
    structure: dict[int, Block] = {}
    stack: list[Block] = []
    loop: Optional[Block] = None
    for idx, line in enumerate(lines):
        if line.kind is not directive_kind:
            continue
        name = line.tokens[0].text
        base = name[1:]
        pos = line.tokens[0].pos
        if base in ("else", "endif", "endw") and len(line.tokens) > 1:
            raise StructureError(
                f"'{name}' takes no arguments", line.tokens[1].pos
            )
        if base in _OPENERS:
            stack.append(Block(base, idx, outer=loop))
            if base != "if":
                loop = stack[-1]
        elif base == "break":
            if loop is not None:
                structure[idx] = loop
        elif base in ("elif", "else"):
            if not stack or stack[-1].kind != "if":
                raise StructureError(f"'{name}' without a matching if", pos)
            block = structure[idx] = stack[-1]
            if block.else_idx is not None:
                raise StructureError(
                    f"duplicate '{name}'" if base == "else"
                    else f"'{name}' after else", pos
                )
            if base == "else":
                block.else_idx = idx
            else:
                block.arms.append(idx)
        elif base in _CLOSERS:
            if not stack or stack[-1].kind != _CLOSERS[base]:
                raise StructureError(f"unexpected '{name}'", pos)
            block = stack.pop()
            head = lines[block.open_idx].tokens
            if base == "until" and len(head) == 1 and len(line.tokens) == 1:
                raise StructureError(
                    "repeat needs a count or a condition on its closing line",
                    head[0].pos,
                )
            block.close_idx = idx
            structure[block.open_idx] = structure[idx] = block
            loop = block.outer
    if stack:
        block = stack[-1]
        name = lines[block.open_idx].tokens[0].text
        raise StructureError(
            f"'{name}' was never closed", lines[block.open_idx].pos
        )
    return structure


@dataclass(eq=False, slots=True)
class Program:
    """Lines to push, with what the engine derives from them: block
    structure on the first push, and compiled forms as lines run.
    Pushing it again reuses both; only one push of it runs at a time."""

    lines: list[Line]
    structure: Optional[dict[int, Block]] = None
    # compiled forms by line, kept as the module docstring says
    ops: dict[Line, object] = field(default_factory=dict)
    pc: int = 0
    # [passes, repeat count or None] of each running loop, by open line
    loops: dict[int, list] = field(default_factory=dict)


class ControlEngine:
    """Runs one phase's programs over its directive set."""

    def __init__(
        self,
        directive_kind: LineKind,
        compile_line: Callable[[Line], Callable[[], Optional[Program]]],
        lookup: Lookup,
        diagnostics: list[str],
        limits: Limits,
    ) -> None:
        self.directive_kind = directive_kind
        self.compile_line = compile_line
        self.lookup = lookup
        self.diagnostics = diagnostics
        self.limits = limits
        self.stack: list[Program] = []

    # -- program stack --

    def push(self, program: Program, pos: Position) -> None:
        # the new program's depth is len(self.stack): the top level is 0
        if len(self.stack) > self.limits.max_depth:
            raise LimitError(
                f"expansion depth exceeds {self.limits.max_depth}", pos
            )
        if program.structure is None:  # its first push
            program.structure = build_structure(program.lines,
                                                self.directive_kind)
        program.pc = 0
        self.stack.append(program)

    def run(self, lines: Sequence[Line]) -> None:
        self.stack = []
        self.push(Program(list(lines)), NO_POS)
        while self.stack:
            prog = self.stack[-1]
            pc = prog.pc
            if pc >= len(prog.lines):
                self.stack.pop()
                continue
            line = prog.lines[pc]
            if line.kind is LineKind.BLANK:
                prog.pc = pc + 1
                continue
            op = self._compiled(prog, pc)
            if type(op) is tuple:
                self._directive(prog, *op)
                continue
            program = op()
            if program is not None:
                self.push(program, line.pos)
            prog.pc = pc + 1

    def _compiled(self, prog: Program, pc: int):
        """The compiled form of line pc of prog: kept with prog from the
        line's first run in an expansion, from its second sighting in the
        top-level program (see the module docstring)."""
        line = prog.lines[pc]
        op = prog.ops.get(line)
        if op is None or op is _SEEN:
            keep = op is _SEEN or prog is not self.stack[0]
            if line.kind is self.directive_kind:
                op = self._compile_directive(line)
            else:
                op = self.compile_line(line)
            prog.ops[line] = op if keep else _SEEN
        return op

    def _compile_directive(self, line: Line):
        """One of the engine's directives as (key without its prefix,
        compiled argument or None, position); a key it does not know as
        the op the phase compiles the line to, like any other line."""
        key, args = line.tokens[0], line.tokens[1:]
        base, pos = key.text[1:], key.pos
        if base not in _KEYS:
            return self.compile_line(line)
        if base in ("print", "error"):
            return base, compile_values(args), pos
        if base in ("if", "elif", "while") and not args:
            return base, failing(EvalError, "missing condition", pos), pos
        if args and base in ("if", "elif", "while", "until", "repeat", "break"):
            return base, compile_expr(args), pos
        return base, None, pos

    # -- directive semantics --

    def _directive(self, prog: Program, base: str, arg, pos: Position) -> None:
        if base == "if":
            self._enter_conditional(prog, arg)
        elif base in ("elif", "else"):
            # reached by falling out of the arm that ran
            prog.pc = prog.structure[prog.pc].close_idx + 1
        elif base == "endif":
            prog.pc += 1
        elif base == "while":
            prog.loops[prog.pc] = [0, None]
            self._while(prog, prog.structure[prog.pc])
        elif base == "endw":
            self._while(prog, prog.structure[prog.pc])
        elif base == "repeat":
            self._repeat(prog, arg, pos)
        elif base == "until":
            self._until(prog, arg, pos)
        elif base == "break":
            self._break(prog, arg, pos)
        elif base == "print":
            self.diagnostics.append(self._format(arg))
            prog.pc += 1
        else:  # error
            message = self._format(arg)
            self.diagnostics.append(f"{pos.file}:{pos.line}: {message}")
            raise UserAbort(message, pos)

    def _count(self, count, pos: Position, what: str) -> int:
        value = count(self.lookup)
        if not isinstance(value, int):
            raise EvalError(f"{what} must be an integer", pos)
        return value

    def _format(self, values) -> str:
        return " ".join(
            v if isinstance(v, str) else str(v) for v in values(self.lookup)
        )

    def _enter_conditional(self, prog: Program, cond) -> None:
        block = prog.structure[prog.pc]
        if truthy(cond(self.lookup)):
            prog.pc += 1
            return
        for arm_idx in block.arms:
            _, arm_cond, _ = self._compiled(prog, arm_idx)
            if truthy(arm_cond(self.lookup)):
                prog.pc = arm_idx + 1
                return
        if block.else_idx is not None:
            prog.pc = block.else_idx + 1
        else:
            prog.pc = block.close_idx + 1

    def _while(self, prog: Program, block: Block) -> None:
        _, cond, pos = self._compiled(prog, block.open_idx)
        self._next_pass(prog, block, truthy(cond(self.lookup)), pos)

    def _repeat(self, prog: Program, count, pos: Position) -> None:
        times: Optional[int] = None
        if count is not None:
            times = self._count(count, pos, "repeat count")
            if times < 0:
                raise EvalError("negative repeat count", pos)
        prog.loops[prog.pc] = [0, times]
        self._next_pass(prog, prog.structure[prog.pc], times != 0, pos)

    def _until(self, prog: Program, cond, pos: Position) -> None:
        block = prog.structure[prog.pc]
        passes, times = prog.loops[block.open_idx]
        done = cond is not None and truthy(cond(self.lookup))
        again = not done and (times is None or passes < times)
        self._next_pass(prog, block, again, pos)

    def _next_pass(self, prog: Program, block: Block, again: bool, pos):
        """Start the loop's next pass if again holds, else leave the loop.

        Every pass of every loop is counted here, against max_loop.
        """
        if not again:
            prog.pc = block.close_idx + 1
            return
        counter = prog.loops[block.open_idx]
        counter[0] += 1
        if counter[0] > self.limits.max_loop:
            raise LimitError(
                f"loop iteration limit exceeded ({self.limits.max_loop})", pos
            )
        prog.pc = block.open_idx + 1

    def _break(self, prog: Program, count, pos: Position) -> None:
        level = 1
        if count is not None:
            level = self._count(count, pos, "break level")
        loop = prog.structure.get(prog.pc)
        if loop is None:
            raise StructureError("break outside of a loop", pos)
        if level < 0:
            raise StructureError("negative break level", pos)
        if level == 0:
            # continue: hand control to the innermost closing line
            prog.pc = loop.close_idx
            return
        loops = [loop]
        while loops[-1].outer is not None:
            loops.append(loops[-1].outer)
        if level > len(loops):
            raise StructureError(
                f"break level {level} exceeds loop nesting {len(loops)}", pos
            )
        prog.pc = loops[level - 1].close_idx + 1


__all__ = [
    "ControlEngine",
    "Limits",
    "Program",
    "build_structure",
]
