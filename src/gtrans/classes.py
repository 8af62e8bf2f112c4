"""User-defined pattern classes.

A class is a named rewrite rule: a pattern of parameters and separator
tokens, and a body of token lines.  Invocations are matched against the
pattern; parameters capture token runs, the body is emitted with those
runs spliced in.  Definitions are resolved newest first, so a later
class with the same name shadows an earlier one wherever both match,
and chains of operator-like classes get their precedence from
definition order alone.

Matching rules, in full:

* Separators must occur at top level in the arguments: a separator
  token inside any (), [] or {} nesting does not count.
* Without a variadic tail the pattern is matched right to left.  The
  last separator anchors at the end (the first at the start), interior
  separators take the rightmost top-level occurrence inside the part
  not yet consumed, and there is no backtracking.  Rightmost splitting
  is what makes a chain like 'x + y' associate to the left.
* Each parameter captures at least one token.  When several parameters
  sit between two separators, all but the last take exactly one token
  and the last takes the rest of the segment.
* A '..' in the pattern introduces one trailing variadic parameter.
  The fixed part before it is then matched left to right, each
  separator taking its leftmost top-level occurrence, and the tail
  captures whatever remains, possibly nothing.  Nothing past the fixed
  part's last separator is read.

Each direction is matched in one pass over the pattern.  Parameters
wait in a pending run until the next separator is placed, and then take
the segment between it and the part already matched.

Resolution skips a candidate without a variadic tail, unmatched, when
one of its separator texts occurs nowhere in the arguments.  Such a
pattern can never match, so the winner is the one trying them all gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence, Union

from .errors import LimitError, Position, StructureError
from .lexer import Token, TokenKind

_OPEN = ("(", "[", "{")
_CLOSE = (")", "]", "}")


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Sep:
    texts: tuple[str, ...]


Element = Union[Param, Sep]
Binding = dict[str, tuple[Token, ...]]


@dataclass(frozen=True)
class ClassDef:
    name: str
    fixed: tuple[Element, ...]
    variadic: Optional[str]
    body: tuple[tuple[Token, ...], ...]
    aliases: tuple[str, ...]
    seq: int
    pos: Position
    seps: frozenset[str]  # every separator text of the fixed part


def parse_pattern(tokens: Sequence[Token], pos: Position):
    """Header tokens after the class name -> (fixed elements, variadic).

    Identifiers are parameters, everything else joins the current
    separator run.  Literals make no sense in a pattern and '{'/'}' are
    reserved for the body, so those are rejected here.
    """
    fixed: list[Element] = []
    params: set[str] = set()
    sep_run: list[str] = []
    variadic: Optional[str] = None
    seen_marker = False

    def flush():
        if sep_run:
            fixed.append(Sep(tuple(sep_run)))
            sep_run.clear()

    for tok in tokens:
        if variadic is not None:
            raise StructureError(
                "nothing may follow the variadic parameter", tok.pos
            )
        if seen_marker and tok.kind is not TokenKind.IDENTIFIER:
            raise StructureError("expected a parameter name after '..'", tok.pos)
        if tok.kind is TokenKind.IDENTIFIER:
            if tok.text in params:
                raise StructureError(
                    f"duplicate parameter '{tok.text}'", tok.pos
                )
            params.add(tok.text)
            if seen_marker:
                variadic = tok.text
            else:
                flush()
                fixed.append(Param(tok.text))
        elif tok.is_op(".."):
            flush()
            seen_marker = True
        elif tok.kind in (TokenKind.INTEGER, TokenKind.STRING):
            raise StructureError(
                f"literal '{tok.text}' is not allowed in a pattern", tok.pos
            )
        elif tok.text in ("{", "}"):
            raise StructureError("braces cannot be pattern separators", tok.pos)
        else:
            sep_run.append(tok.text)
    flush()
    if seen_marker and variadic is None:
        raise StructureError("expected a parameter name after '..'", pos)
    return tuple(fixed), variadic


def _iter_depths(args: Sequence[Token]) -> Iterator[int]:
    """Nesting depth per token, lazily; a bracket sits at the depth of
    its pair."""
    depth = 0
    for tok in args:
        if tok.text in _OPEN:
            yield depth
            depth += 1
        elif tok.text in _CLOSE:
            depth -= 1
            yield depth
        else:
            yield depth


def _run_at(args, depths, s: int, texts) -> bool:
    return all(
        args[s + j].text == texts[j] and depths[s + j] == 0
        for j in range(len(texts))
    )


def _bind_run(binding: Binding, run: list[str], seg: Sequence[Token]) -> bool:
    """Distribute a segment over a parameter run, one token each except
    the last, which takes the remainder.  Every parameter needs one, and
    an empty run takes only an empty segment."""
    if not run:
        return not seg
    if len(seg) < len(run):
        return False
    for k, name in enumerate(run[:-1]):
        binding[name] = (seg[k],)
    binding[run[-1]] = tuple(seg[len(run) - 1 :])
    return True


def _match_full(elements, args) -> Optional[Binding]:
    """Right to left in one pass: each separator is placed below hi, the
    start of what is already matched, and the parameters between the
    two take args[end:hi]."""
    depths = list(_iter_depths(args))
    binding: Binding = {}
    run: list[str] = []  # parameters after the next separator
    hi = len(args)
    last = len(elements) - 1
    for k in range(last, -1, -1):
        e = elements[k]
        if isinstance(e, Param):
            run.insert(0, e.name)
            continue
        starts = range(hi - len(e.texts), -1, -1)  # rightmost first
        if k == last:
            starts = starts[:1]  # anchored at the end
        elif k == 0:
            starts = starts[-1:]  # anchored at the start
        s = next((s for s in starts if _run_at(args, depths, s, e.texts)), None)
        if s is None or not _bind_run(binding, run, args[s + len(e.texts) : hi]):
            return None
        run, hi = [], s
    return binding if _bind_run(binding, run, args[:hi]) else None


def _match_variadic(fixed, tail: str, args) -> Optional[Binding]:
    """Left to right in one pass, the mirror of _match_full: each
    separator takes its leftmost top-level run that leaves a token for
    every parameter before it, and those parameters take args[lo:start].
    Depths are computed only as far as the scan reaches, and the tail is
    sliced off unread."""
    depths: list[int] = []
    lazy = _iter_depths(args)

    def top_run_at(s: int, texts) -> bool:
        depths.extend(islice(lazy, s + len(texts) - len(depths)))
        return _run_at(args, depths, s, texts)

    binding: Binding = {}
    run: list[str] = []  # parameters after the last separator
    lo = 0
    for e in fixed:
        if isinstance(e, Param):
            run.append(e.name)
            continue
        starts = range(lo + len(run), len(args) - len(e.texts) + 1)
        if not run:
            starts = starts[:1]  # anchored where the last one ended
        s = next((s for s in starts if top_run_at(s, e.texts)), None)
        if s is None or not _bind_run(binding, run, args[lo:s]):
            return None
        run, lo = [], s + len(e.texts)
    # trailing parameters take one token each, the tail all after them
    end = lo + len(run)
    if not _bind_run(binding, run, args[lo:end]):
        return None
    binding[tail] = tuple(args[end:])
    return binding


def match(cls: ClassDef, args: Sequence[Token]) -> Optional[Binding]:
    if cls.variadic is None:
        return _match_full(cls.fixed, args)
    return _match_variadic(cls.fixed, cls.variadic, args)


def expand_body(cls: ClassDef, binding: Binding) -> list[list[Token]]:
    """Body lines with parameter identifiers replaced by captured runs."""
    out = []
    for body_line in cls.body:
        toks: list[Token] = []
        for t in body_line:
            if t.kind is TokenKind.IDENTIFIER and t.text in binding:
                toks.extend(binding[t.text])
            else:
                toks.append(t)
        out.append(toks)
    return out


class ClassTable:
    """All class definitions plus the symbol substitutions.  version
    counts changes to either: a rewrite holds while the version stands."""

    def __init__(self) -> None:
        self.defs: list[ClassDef] = []
        self._by_name: dict[str, list[ClassDef]] = {}
        self.substitutions: dict[str, tuple[Token, ...]] = {}
        self.version = 0

    def define(
        self,
        name: str,
        pattern_tokens: Sequence[Token],
        body: Sequence[Sequence[Token]],
        aliases: Sequence[str],
        pos: Position,
    ) -> ClassDef:
        fixed, variadic = parse_pattern(pattern_tokens, pos)
        cls = ClassDef(
            name=name,
            fixed=fixed,
            variadic=variadic,
            body=tuple(tuple(line) for line in body),
            aliases=tuple(aliases),
            seq=len(self.defs),
            pos=pos,
            seps=frozenset(t for e in fixed if isinstance(e, Sep) for t in e.texts),
        )
        self.defs.append(cls)
        self.version += 1
        for key in (name, *aliases):
            self._by_name.setdefault(key, []).append(cls)
        return cls

    def has_name(self, name: str) -> bool:
        return name in self._by_name

    def resolve(self, name: str, args: Sequence[Token]):
        """Newest matching definition under this name, or None.

        Definitions are tried last to first; the first whose pattern
        matches the arguments wins.  One without a variadic tail is skipped
        unmatched when a separator text of it is absent from the arguments
        (a variadic one is not: the check would read its whole tail).
        """
        present = None
        for cls in reversed(self._by_name.get(name, ())):
            if cls.variadic is None and cls.seps:
                if present is None:
                    present = {t.text for t in args}
                if not cls.seps <= present:
                    continue
            binding = match(cls, args)
            if binding is not None:
                return cls, binding
        return None

    def set_substitution(self, name: str, replacement: Sequence[Token]) -> None:
        self.substitutions[name] = tuple(replacement)
        self.version += 1

    def substitute(self, tokens: Sequence[Token]) -> Optional[list[Token]]:
        """One substitution step over a token line.  None if unchanged.

        Replacement tokens are spliced in as they are and not looked at
        again, so mutually referring substitutions advance one step per
        scan instead of looping.
        """
        if not self.substitutions:
            return None
        out: list[Token] = []
        changed = False
        for t in tokens:
            if t.kind is TokenKind.IDENTIFIER and t.text in self.substitutions:
                out.extend(self.substitutions[t.text])
                changed = True
            else:
                out.append(t)
        return out if changed else None


def _matching_paren(tokens, open_idx: int) -> Optional[int]:
    depth = 0
    for i in range(open_idx, len(tokens)):
        if tokens[i].is_punct("("):
            depth += 1
        elif tokens[i].is_punct(")"):
            depth -= 1
            if depth == 0:
                return i
    return None


def expand_calls(tokens: Sequence[Token], table: ClassTable, budget: int) -> list[Token]:
    """Replace embedded 'name ( ... )' groups with single-line bodies.

    Scans left to right.  An outer call is matched first, on its raw
    arguments, calls nested in them included; the scan moves into its
    arguments only if it does not match.  A splice is rescanned from the
    same spot, so calls its body makes expand too.  Only classes whose
    body is one line can sit inside another line.
    """
    toks = list(tokens)
    spliced = 0
    i = 0
    while i < len(toks):
        t = toks[i]
        if (
            t.kind is TokenKind.IDENTIFIER
            and i + 1 < len(toks)
            and toks[i + 1].is_punct("(")
            and table.has_name(t.text)
        ):
            close = _matching_paren(toks, i + 1)
            if close is not None:
                m = table.resolve(t.text, toks[i + 1 : close + 1])
                if m is not None:
                    cls, binding = m
                    if len(cls.body) != 1:
                        raise StructureError(
                            f"class '{t.text}' cannot expand inside a line: "
                            "its body is not a single line",
                            t.pos,
                        )
                    spliced += 1
                    if spliced > budget:
                        raise LimitError(
                            "too many expansions on one line "
                            f"(limit {budget})",
                            t.pos,
                        )
                    toks[i : close + 1] = expand_body(cls, binding)[0]
                    continue
        i += 1
    return toks


__all__ = [
    "ClassDef",
    "ClassTable",
    "Param",
    "Sep",
    "expand_body",
    "expand_calls",
    "match",
    "parse_pattern",
]
