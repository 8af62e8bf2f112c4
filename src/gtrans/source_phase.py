"""First pass: '#' directives and class expansion.

Consumes source lines, executes '#' control flow, registers and expands
classes, applies symbol substitutions, and collects everything that
survives into the intermediate stream, a plain list of lines.  '@'
lines, labels and anything it cannot interpret pass through untouched;
that keeps the stream a faithful copy of the input when no source-level
features are used.

Filling a class body and rewriting a line are one operation,
classes.splice.  An expansion follows the layout resolution gives: it
shares one Line per body line that names no parameter, and splices each
other under the binding.  A rewrite is one round of embedded calls,
each splicing a one-line body, then one substitution step, a splice
under the substitutions.  A rewrite leaves a line's data keyword, label and
assignment target alone, so a labeled data line has only its values
rewritten, as an unlabeled one does.

Assignment lines pass through for the second phase to execute, but they
are also bound here on a best-effort basis so '#' conditions can see
them; a right side this phase cannot evaluate (say it uses a label) is
simply left unbound.

Brace blocks are found here, before the engine runs a program: the
input and each class expansion are framed first, which folds every
block into the line that opens it.  So a program's brace faults come
before its directive faults, and a '#while' stored in a class body is
matched only when the class expands.

The engine hands each other line to compile, its one hook, which picks
an op by the line's kind, once.  A line the rewrite covers, and a '#' key
the engine does not know, gets a plan: push this framed expansion, emit
this line (binding its compiled right side if it assigns), or drop it.
The plan depends only on the line and the class table, so its op holds
it stamped with the table's version and plans again only when that has
moved.  The engine keeps ops by line: a looped line of the input keeps
its op from its second pass, and a line of an expansion from its first
run.  A kept expansion is the same Program each time, so its lines keep
their ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .classes import BRACED, ClassTable, expand_calls, splice
from .engine import ControlEngine, Limits, Program
from .errors import EvalError, StructureError
from .expr import Value, compile_expr
from .lexer import Line, LineKind, Token, TokenKind, classify, make_line
from .lexer import dotted_name, dotted_name_end, labeled_data_keyword

# what a rewritten line may become and still reach the stream
_EMITTED = (
    LineKind.PLAIN,
    LineKind.ASSIGNMENT,
    LineKind.DATA_EMISSION,
    LineKind.LABEL,
    LineKind.DEST_DIRECTIVE,
)
# lines run by a plan: those the rewrite covers, and '#' keys the engine
# does not know, which may name a class
_PLANNED = (LineKind.PLAIN, LineKind.DATA_EMISSION, LineKind.ASSIGNMENT,
            LineKind.SOURCE_DIRECTIVE)


class _SourceHandler:
    def __init__(self, env, table, out, limits):
        self.env: dict[str, Value] = env
        self.table: ClassTable = table
        self.out: list[Line] = out
        self.limits: Limits = limits

    # -- the engine's compile hook --

    def compile(self, line: Line):
        """The op that runs line: see the module docstring."""
        kind = line.kind
        if kind in _PLANNED:
            plan = self._plan(line)

            def run() -> Optional[Program]:
                nonlocal plan
                if plan[0] != self.table.version:  # stale: plan it again
                    plan = self._plan(line)
                _, program, emitted, bind = plan
                if emitted is not None:
                    if bind is not None:
                        target, rhs = bind
                        try:
                            self.env[target] = rhs(self.env.get)
                        except EvalError:
                            pass  # left to the second phase
                    self.out.append(emitted)
                return program

            return run
        if kind is LineKind.CLASS_DEFINITION:
            return partial(self._define, line)
        if kind is LineKind.CLASS_BODY_DELIMITER:
            raise StructureError("'{' outside of a class definition", line.pos)
        if kind is LineKind.SYMBOL_SUBSTITUTION:
            name, tokens = line.tokens[0].text, line.tokens[2:]
            return partial(self.table.set_substitution, name, tokens)
        return partial(self.out.append, line)  # a label or an '@' line

    # -- plans --

    def _plan(self, line: Line) -> tuple:
        """(table version, Program to push, line to emit, (name, compiled
        right side) to bind), None where absent; with neither a program
        nor a line, the line is dropped.

        A plain or '#' line may invoke a class; otherwise the line is
        rewritten once (the values of a data line, labeled or not, the
        right side of an assignment, any other plain line whole) and
        dispatched by its new shape.
        Replacements advance one step per scan, so the rewrite is not
        repeated; class resolution is, as that is the point of substituting.
        """
        version, kind, tokens = self.table.version, line.kind, line.tokens
        if kind is LineKind.PLAIN or kind is LineKind.SOURCE_DIRECTIVE:
            program = self._invoke(line)
            if program is not None:
                return version, program, None, None
            if kind is LineKind.SOURCE_DIRECTIVE:
                t0 = tokens[0]
                raise StructureError(f"unknown directive '{t0.text}'", t0.pos)
            keyword = labeled_data_keyword(tokens)  # its values, if labeled
            start = 0 if keyword is None else keyword + 1
        elif kind is LineKind.DATA_EMISSION:
            start = 1
        else:  # an assignment
            start = dotted_name_end(tokens) + 1
        part = list(tokens[start:])
        expanded = expand_calls(part, self.table, self.limits.max_depth)
        final = splice(expanded, self.table.substitutions)
        if final != part:
            line = make_line([*tokens[:start], *final], line.pos)
            kind, tokens = line.kind, line.tokens
            program = self._invoke(line) if kind is LineKind.PLAIN else None
            if program is not None or kind is LineKind.BLANK:
                return version, program, None, None
            if kind not in _EMITTED:
                raise StructureError(
                    f"substitution produced a {kind.value} line", line.pos
                )
        if kind is not LineKind.ASSIGNMENT:
            return version, None, line, None
        eq = dotted_name_end(tokens)
        rhs = compile_expr(tokens[eq + 1 :])
        return version, None, line, (dotted_name(tokens[:eq]), rhs)

    def _invoke(self, line: Line) -> Optional[Program]:
        """The framed expansion of a command-style invocation, or None."""
        resolved = self.table.resolve(line.tokens[0].text, line.tokens[1:])
        if resolved is None:
            return None
        _, binding, (body, framed) = resolved
        lines = []
        for item in body:
            if type(item) is tuple:  # a line that names a parameter
                tokens, kind, pos = item
                t = tuple(splice(tokens, binding))
                item = Line(t, kind or classify(t), pos or (t[0].pos if t else line.pos))
            lines.append(item)
        return Program(_frame(lines) if framed else lines)

    def _define(self, line: Line) -> None:
        """Register the class a definition line spells."""
        header = line.tokens
        if len(header) < 2 or header[1].kind is not TokenKind.IDENTIFIER:
            raise StructureError("expected a class name", line.pos)
        name = header[1].text
        if not isinstance(line, _Framed):
            raise StructureError(
                f"expected '{{' to open the body of class '{name}'", line.pos
            )
        # names, each optionally followed by one comma
        aliases = []
        after_name = False
        for t in line.tail:
            if t.kind is TokenKind.IDENTIFIER:
                aliases.append(t.text)
            elif not (after_name and t.is_punct(",")):
                raise StructureError(
                    f"invalid alias list after class '{name}'", t.pos
                )
            after_name = t.kind is TokenKind.IDENTIFIER
        self.table.define(name, header[2:], line.bodies, aliases, line.pos)


@dataclass(frozen=True, slots=True, eq=False)
class _Framed(Line):
    """A line with the brace block it opens folded in: its tokens stop
    before the '{', then come the body fragments, one per line, and the
    tokens after the closing '}'."""

    bodies: tuple[tuple[Token, ...], ...]
    tail: tuple[Token, ...]


def _frame(lines: Sequence[Line]) -> list[Line]:
    """Fold each brace block into the line that opens it.

    A block opens at the first '{' of a class definition, or of a line
    that starts with '{'.  A definition with no '{' takes the block of
    the next non-blank line if that line starts with '{'.  Braces nest
    and only the outermost pair delimits; braces on any other line are
    left alone.
    """
    out: list[Line] = []
    i, n = 0, len(lines)
    while i < n:
        line = lines[i]
        i += 1
        if line.kind not in BRACED:
            out.append(line)
            continue
        head = line.tokens
        if head[0].is_punct("}"):
            raise StructureError("unbalanced '}'", line.pos)
        at = next((k for k, t in enumerate(head) if t.is_punct("{")), None)
        if at is not None:
            opener, head = line, head[:at]
        else:
            j = i
            while j < n and lines[j].kind is LineKind.BLANK:
                j += 1
            if j == n or not lines[j].tokens[0].is_punct("{"):
                out.append(line)
                continue
            opener, at, i = lines[j], 0, j + 1
        bodies, tail, i = _block(lines, i, opener, at)
        out.append(_Framed(head, line.kind, line.pos, bodies, tail))
    return out


def _block(lines: Sequence[Line], i: int, opener: Line, at: int):
    """(body fragments, tail, index of the next line) of the block whose
    '{' is opener.tokens[at]; lines[i] is the line after opener."""
    fragments = []
    toks, depth = opener.tokens, 1
    at += 1
    while True:
        for k in range(at, len(toks)):
            if toks[k].is_punct("{"):
                depth += 1
            elif toks[k].is_punct("}"):
                depth -= 1
                if depth == 0:
                    fragments.append(toks[at:k])
                    return tuple(f for f in fragments if f), toks[k + 1 :], i
        fragments.append(toks[at:])
        if i == len(lines):
            raise StructureError("unclosed '{'", opener.pos)
        toks, at, i = lines[i].tokens, 0, i + 1


def run_source_phase(
    lines,
    env: dict[str, Value],
    table: ClassTable,
    diagnostics: list[str],
    limits: Limits,
) -> list[Line]:
    """Run the '#' phase; returns the intermediate stream.  Assignments
    it can evaluate are bound in env, which the caller owns."""
    out: list[Line] = []
    handler = _SourceHandler(env, table, out, limits)
    engine = ControlEngine(LineKind.SOURCE_DIRECTIVE, handler.compile,
                           env.get, diagnostics, limits)
    engine.run(_frame(lines))
    return out


__all__ = ["run_source_phase"]
