"""First pass: '#' directives and class expansion.

Consumes source lines, executes '#' control flow, registers and expands
classes, applies symbol substitutions, and collects everything that
survives into the intermediate stream, a plain list of lines.  '@'
lines, labels and anything it cannot interpret pass through untouched;
that keeps the stream a faithful copy of the input when no source-level
features are used.

Assignment lines pass through for the second phase to execute, but they
are also bound here on a best-effort basis so '#' conditions can see
them; a right side this phase cannot evaluate (say it uses a label) is
simply left unbound.
"""

from __future__ import annotations

from typing import Optional

from .classes import ClassTable, expand_body, expand_calls
from .engine import ControlEngine, Limits
from .errors import EvalError, StructureError
from .expr import Value, evaluate
from .lexer import Line, LineKind, Token, TokenKind, make_line
from .lexer import dotted_name, dotted_name_end

# what a rewritten line may become and still reach the stream
_EMITTED = (
    LineKind.PLAIN,
    LineKind.ASSIGNMENT,
    LineKind.DATA_EMISSION,
    LineKind.LABEL,
    LineKind.DEST_DIRECTIVE,
)


class _SourceHandler:
    def __init__(self, env, table, out, limits):
        self.env: dict[str, Value] = env
        self.table: ClassTable = table
        self.out: list[Line] = out
        self.limits: Limits = limits

    # -- engine callbacks --

    def unknown(self, line: Line, engine: ControlEngine) -> Optional[int]:
        # an unrecognized '#' key may name a class used command-style
        if self._try_invoke(line, engine):
            return None
        raise StructureError(
            f"unknown directive '{line.tokens[0].text}'", line.tokens[0].pos
        )

    def content(self, line: Line, engine: ControlEngine) -> Optional[int]:
        kind = line.kind
        if kind is LineKind.CLASS_DEFINITION:
            return self._collect_class(line, engine)
        if kind is LineKind.CLASS_BODY_DELIMITER:
            raise StructureError(
                f"'{line.tokens[0].text}' outside of a class definition",
                line.pos,
            )
        if kind is LineKind.SYMBOL_SUBSTITUTION:
            self.table.set_substitution(line.tokens[0].text, line.tokens[2:])
            return None
        # rewrite once: a plain line whole, the values of a data line,
        # the right side of an assignment; never a label or an '@' line
        tokens = line.tokens
        if kind is LineKind.PLAIN:
            if self._try_invoke(line, engine):
                return None
            start = 0
        elif kind is LineKind.DATA_EMISSION:
            start = 1
        elif kind is LineKind.ASSIGNMENT:
            start = dotted_name_end(tokens) + 1
        else:
            self._emit(line, False)
            return None
        part = list(tokens[start:])
        expanded = expand_calls(part, self.table, self.limits.max_depth)
        substituted = self.table.substitute(expanded)
        final = expanded if substituted is None else substituted
        if final == part:
            self._emit(line, kind is LineKind.ASSIGNMENT)
        else:
            self._retry(make_line([*tokens[:start], *final], line.pos), engine)
        return None

    # -- line shapes --

    def _try_invoke(self, line: Line, engine: ControlEngine) -> bool:
        # class names are identifiers, so no other token can match one
        t0 = line.tokens[0]
        if not self.table.has_name(t0.text):
            return False
        resolved = self.table.resolve(t0.text, line.tokens[1:])
        if resolved is None:
            return False
        cls, binding = resolved
        pos = line.pos
        expansion = []
        for toks in expand_body(cls, binding):
            expansion.append(make_line(toks, toks[0].pos if toks else pos))
        engine.push(expansion, pos)
        return True

    def _retry(self, line: Line, engine: ControlEngine) -> None:
        """Dispatch a line that a rewrite just changed, by its new shape.

        The rewrite itself is not repeated: replacements advance one
        step per scan.  Class resolution does run again, since that is
        the whole point of substituting first.
        """
        kind = line.kind
        if kind is LineKind.PLAIN and self._try_invoke(line, engine):
            return
        if kind in _EMITTED:
            self._emit(line, kind is LineKind.ASSIGNMENT)
        elif kind is not LineKind.BLANK:
            raise StructureError(
                f"substitution produced a {kind.value} line", line.pos
            )

    def _emit(self, line: Line, bind: bool) -> None:
        """Append line to the stream; bind it first if it assigns."""
        if bind:
            eq = dotted_name_end(line.tokens)
            try:
                value = evaluate(line.tokens[eq + 1 :], self.env.get)
            except EvalError:
                pass  # not computable yet; the second phase will evaluate it
            else:
                self.env[dotted_name(line.tokens[:eq])] = value
        self.out.append(line)

    def _collect_class(self, line: Line, engine: ControlEngine) -> int:
        """Parse a class definition, inline or spanning lines.

        Returns the pc just past the closing brace.  Nested braces in
        the body belong to the body; only the outermost pair delimits.
        """
        prog = engine.stack[-1]
        lines = prog.lines
        idx = prog.pc
        header = list(line.tokens)
        if len(header) < 2 or header[1].kind is not TokenKind.IDENTIFIER:
            raise StructureError("expected a class name", line.pos)
        name = header[1].text
        brace_at = next(
            (k for k, t in enumerate(header) if t.is_punct("{")), None
        )
        if brace_at is not None:
            pattern = header[2:brace_at]
            toks = header
            ti = brace_at
            li = idx
        else:
            pattern = header[2:]
            li = idx + 1
            while li < len(lines) and lines[li].kind is LineKind.BLANK:
                li += 1
            if li >= len(lines) or not lines[li].tokens[0].is_punct("{"):
                raise StructureError(
                    f"expected '{{' to open the body of class '{name}'",
                    line.pos,
                )
            toks = list(lines[li].tokens)
            ti = 0
        bodies: list[list[Token]] = []
        fragment: list[Token] = []
        depth = 0
        tail: Optional[list[Token]] = None
        while tail is None:
            if ti >= len(toks):
                if fragment:
                    bodies.append(fragment)
                    fragment = []
                li += 1
                if li >= len(lines):
                    raise StructureError(
                        f"the body of class '{name}' is never closed",
                        line.pos,
                    )
                toks = list(lines[li].tokens)
                ti = 0
                continue
            t = toks[ti]
            if t.is_punct("{"):
                depth += 1
                if depth > 1:
                    fragment.append(t)
            elif t.is_punct("}"):
                depth -= 1
                if depth == 0:
                    if fragment:
                        bodies.append(fragment)
                    tail = toks[ti + 1 :]
                else:
                    fragment.append(t)
            else:
                fragment.append(t)
            ti += 1
        # names, each optionally followed by one comma
        aliases = []
        after_name = False
        for t in tail:
            if t.kind is TokenKind.IDENTIFIER:
                aliases.append(t.text)
            elif not (after_name and t.is_punct(",")):
                raise StructureError(
                    f"invalid alias list after class '{name}'", t.pos
                )
            after_name = t.kind is TokenKind.IDENTIFIER
        self.table.define(name, pattern, bodies, aliases, line.pos)
        return li + 1


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
    engine = ControlEngine(
        LineKind.SOURCE_DIRECTIVE, handler, env.get, diagnostics, limits
    )
    engine.run(list(lines))
    return out


__all__ = ["run_source_phase"]
