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
from .errors import EvalError, Position, StructureError
from .expr import Value, evaluate
from .lexer import Line, LineKind, Token, TokenKind, make_line


class _SourceHandler:
    def __init__(self, env, table, out, limits):
        self.env: dict[str, Value] = env
        self.table: ClassTable = table
        self.out: list[Line] = out
        self.limits: Limits = limits

    # -- engine callbacks --

    def unknown(self, line: Line, engine: ControlEngine) -> Optional[int]:
        # an unrecognized '#' key may name a class used command-style
        if self._try_invoke(list(line.tokens), engine, line.pos):
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
        if kind is LineKind.ASSIGNMENT:
            return self._assignment(line, transformed=False)
        if kind is LineKind.DATA_EMISSION:
            return self._data(line)
        if kind in (LineKind.LABEL, LineKind.DEST_DIRECTIVE):
            self.out.append(line)
            return None
        return self._plain(line, engine)

    # -- line shapes --

    def _transform(self, tokens: list[Token]) -> list[Token]:
        """One round of embedded calls, then one substitution step."""
        expanded = expand_calls(tokens, self.table, self.limits.max_depth)
        substituted = self.table.substitute(expanded)
        return substituted if substituted is not None else expanded

    def _try_invoke(self, tokens, engine: ControlEngine, pos: Position) -> bool:
        t0 = tokens[0]
        if t0.kind not in (TokenKind.IDENTIFIER, TokenKind.DIRECTIVE_KEY):
            return False
        if not self.table.has_name(t0.text):
            return False
        resolved = self.table.resolve(t0.text, tokens[1:])
        if resolved is None:
            return False
        cls, binding = resolved
        expansion = []
        for toks in expand_body(cls, binding):
            expansion.append(make_line(toks, toks[0].pos if toks else pos))
        engine.push(expansion, pos)
        return True

    def _plain(self, line: Line, engine: ControlEngine) -> Optional[int]:
        tokens = list(line.tokens)
        if self._try_invoke(tokens, engine, line.pos):
            return None
        final = self._transform(tokens)
        if final == tokens:
            self.out.append(line)
            return None
        return self._retry(make_line(final, line.pos), engine)

    def _retry(self, line: Line, engine: ControlEngine) -> Optional[int]:
        """Dispatch a line that substitution just rewrote.

        The rewrite itself is not repeated: replacements advance one
        step per scan.  Class resolution does run again, since that is
        the whole point of substituting first.
        """
        kind = line.kind
        if kind is LineKind.BLANK:
            return None
        if kind is LineKind.PLAIN:
            if self._try_invoke(list(line.tokens), engine, line.pos):
                return None
            self.out.append(line)
            return None
        if kind is LineKind.ASSIGNMENT:
            return self._assignment(line, transformed=True)
        if kind in (
            LineKind.DATA_EMISSION,
            LineKind.LABEL,
            LineKind.DEST_DIRECTIVE,
        ):
            self.out.append(line)
            return None
        raise StructureError(
            f"substitution produced a {kind.value} line", line.pos
        )

    def _assignment(self, line: Line, transformed: bool) -> Optional[int]:
        tokens = list(line.tokens)
        eq = next(i for i, t in enumerate(tokens) if t.is_op("="))
        if not transformed:
            rhs = tokens[eq + 1 :]
            rhs_final = self._transform(rhs)
            if rhs_final != rhs:
                tokens = tokens[: eq + 1] + rhs_final
                line = make_line(tokens, line.pos)
        name = ".".join(
            t.text for t in tokens[:eq] if t.kind is TokenKind.IDENTIFIER
        )
        try:
            value = evaluate(tokens[eq + 1 :], self.env.get)
        except EvalError:
            pass  # not computable yet; the second phase will evaluate it
        else:
            self.env[name] = value
        self.out.append(line)
        return None

    def _data(self, line: Line) -> Optional[int]:
        tokens = list(line.tokens)
        values = tokens[1:]
        final = self._transform(values)
        if final != values:
            line = make_line([tokens[0]] + final, line.pos)
        self.out.append(line)
        return None

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
        aliases = []
        k = 0
        while k < len(tail):
            t = tail[k]
            if t.kind is not TokenKind.IDENTIFIER:
                raise StructureError(
                    f"invalid alias list after class '{name}'", t.pos
                )
            aliases.append(t.text)
            k += 1
            if k < len(tail) and tail[k].is_punct(","):
                k += 1
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
