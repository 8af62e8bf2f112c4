"""User-defined pattern classes.

A class is a named rewrite rule: a pattern of parameters and separator
tokens, and a body of token lines.  A pattern element is a parameter's
name (a str) or a run of adjacent separator texts (a tuple of str).
Invocations are matched against the pattern; parameters capture token
runs, and splice fills each body line with them.  A substitution step
is the same splice under the table of substitutions.  Definitions are
resolved newest first, so a later class with the same name shadows an
earlier one wherever both match, and chains of operator-like classes
get their precedence from definition order alone.

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

Matching reads only separator texts and bracket nesting, so its outcome
depends only on the arguments' shape: operator and punctuation texts and
the kinds of other tokens.  Until the next define under a name, the table
keeps its winner per shape, with its parameters' spans (index ranges) and
the body's layout (see _layout).  A name with a variadic definition is
resolved afresh each time, its layout leaving every line to the binding:
its shape would read the tail.  The separator check stays beside that
table, which keeps only winners: a shape that matches nothing, and any
shape the first time it is seen, is tried against the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence, Union

from .errors import LimitError, Position, StructureError
from .lexer import Line, LineKind, Token, TokenKind, classify

_OPEN = ("(", "[", "{")
_CLOSE = (")", "]", "}")
# kinds of line that may open a brace block
BRACED = (LineKind.CLASS_DEFINITION, LineKind.CLASS_BODY_DELIMITER)
Element = Union[str, tuple[str, ...]]  # a parameter or a separator run
Binding = dict[str, Sequence[Token]]
Spans = list[tuple[str, slice]]  # each parameter's range in the arguments


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


def parse_pattern(tokens: Sequence[Token]):
    """Header tokens after the class name -> (fixed elements, variadic).

    Identifiers are parameters, everything else joins the current
    separator run.  Literals make no sense in a pattern and '{'/'}' are
    reserved for the body, so those are rejected here.
    """
    fixed: list[Element] = []
    params: set[str] = set()
    sep_run: list[str] = []
    variadic: Optional[str] = None
    marker: Optional[Token] = None  # the '..' token, once read

    def flush():
        if sep_run:
            fixed.append(tuple(sep_run))
            sep_run.clear()

    for tok in tokens:
        if variadic is not None:
            raise StructureError(
                "nothing may follow the variadic parameter", tok.pos
            )
        if marker is not None and tok.kind is not TokenKind.IDENTIFIER:
            raise StructureError("expected a parameter name after '..'", tok.pos)
        if tok.kind is TokenKind.IDENTIFIER:
            if tok.text in params:
                raise StructureError(
                    f"duplicate parameter '{tok.text}'", tok.pos
                )
            params.add(tok.text)
            if marker is not None:
                variadic = tok.text
            else:
                flush()
                fixed.append(tok.text)
        elif tok.is_op(".."):
            flush()
            marker = tok
        elif tok.kind in (TokenKind.INTEGER, TokenKind.STRING):
            raise StructureError(
                f"literal '{tok.text}' is not allowed in a pattern", tok.pos
            )
        elif tok.text in ("{", "}"):
            raise StructureError("braces cannot be pattern separators", tok.pos)
        else:
            sep_run.append(tok.text)
    flush()
    if marker is not None and variadic is None:
        raise StructureError("expected a parameter name after '..'", marker.pos)
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


def _bind_run(spans: Spans, run: list[str], lo: int, hi: int) -> bool:
    """Distribute args[lo:hi] over a parameter run, one token each except
    the last, which takes the remainder.  Every parameter needs one, and
    an empty run takes only an empty segment."""
    if not run:
        return lo == hi
    if hi - lo < len(run):
        return False
    for k, name in enumerate(run[:-1], lo):
        spans.append((name, slice(k, k + 1)))
    spans.append((run[-1], slice(lo + len(run) - 1, hi)))
    return True


def _match_full(elements, args) -> Optional[Spans]:
    """Right to left in one pass: each separator is placed below hi, the
    start of what is already matched, and the parameters between the
    two take args[end:hi]."""
    depths = list(_iter_depths(args))
    spans: Spans = []
    run: list[str] = []  # parameters after the next separator
    hi = len(args)
    last = len(elements) - 1
    for k in range(last, -1, -1):
        e = elements[k]
        if type(e) is str:
            run.insert(0, e)
            continue
        starts = range(hi - len(e), -1, -1)  # rightmost first
        if k == last:
            starts = starts[:1]  # anchored at the end
        elif k == 0:
            starts = starts[-1:]  # anchored at the start
        s = next((s for s in starts if _run_at(args, depths, s, e)), None)
        if s is None or not _bind_run(spans, run, s + len(e), hi):
            return None
        run, hi = [], s
    return spans if _bind_run(spans, run, 0, hi) else None


def _match_variadic(fixed, tail: str, args) -> Optional[Spans]:
    """Left to right in one pass, the mirror of _match_full: each
    separator takes its leftmost top-level run that leaves a token for
    every parameter before it, and those parameters take args[lo:start].
    Depths are computed only as far as the scan reaches, and the tail is
    never read."""
    depths: list[int] = []
    lazy = _iter_depths(args)

    def top_run_at(s: int, texts) -> bool:
        depths.extend(islice(lazy, s + len(texts) - len(depths)))
        return _run_at(args, depths, s, texts)

    spans: Spans = []
    run: list[str] = []  # parameters after the last separator
    lo = 0
    for e in fixed:
        if type(e) is str:
            run.append(e)
            continue
        starts = range(lo + len(run), len(args) - len(e) + 1)
        if not run:
            starts = starts[:1]  # anchored where the last one ended
        s = next((s for s in starts if top_run_at(s, e)), None)
        if s is None or not _bind_run(spans, run, lo, s):
            return None
        run, lo = [], s + len(e)
    # trailing parameters take one token each, the tail all after them
    end = lo + len(run)
    if not _bind_run(spans, run, lo, min(end, len(args))):
        return None
    spans.append((tail, slice(end, None)))
    return spans


def _spans(cls: ClassDef, args: Sequence[Token]) -> Optional[Spans]:
    if cls.variadic is None:
        return _match_full(cls.fixed, args)
    return _match_variadic(cls.fixed, cls.variadic, args)


def match(cls: ClassDef, args: Sequence[Token]) -> Optional[Binding]:
    spans = _spans(cls, args)
    return None if spans is None else {p: args[s] for p, s in spans}


def splice(tokens: Sequence[Token], runs: Binding) -> Sequence[Token]:
    """tokens with each identifier that runs names replaced by its run: a
    body line under its binding, or any line under the substitutions;
    tokens itself if runs is empty.  A run goes in as it is and is not
    looked at again, so substitutions that name each other advance one
    step per call instead of looping."""
    if not runs:
        return tokens
    out: list[Token] = []
    for t in tokens:
        if t.kind is TokenKind.IDENTIFIER and t.text in runs:
            out.extend(runs[t.text])
        else:
            out.append(t)
    return out


def _layout(cls: ClassDef, binding: Binding):
    """cls's body for the shape of binding's arguments: per line, its one
    Line if it names no parameter, else (tokens, kind, position), both
    None if a parameter starts it; then whether a line may open a block."""
    items, kinds = [], []
    for tokens in cls.body:
        named = [t.kind is TokenKind.IDENTIFIER and t.text in binding for t in tokens]
        kind = None if any(named[:1]) else classify(splice(tokens, binding))
        pos = kind and (tokens[0].pos if tokens else cls.pos)
        items.append((tokens, kind, pos) if any(named) else Line(tokens, kind, pos))
        kinds.append(kind)
    return tuple(items), any(k is None or k in BRACED for k in kinds)


class ClassTable:
    """All class definitions plus the symbol substitutions.  version
    counts changes to either: a rewrite holds while the version stands."""

    def __init__(self) -> None:
        self.defs: list[ClassDef] = []
        self._by_name: dict[str, list[ClassDef]] = {}
        self._variadic: set[str] = set()  # names with a variadic definition
        self._open: list = []  # each definition's layout for a variadic name
        self._entries: dict[str, dict] = {}  # name: {shape: (cls, spans, layout)}
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
        fixed, variadic = parse_pattern(pattern_tokens)
        cls = ClassDef(
            name=name,
            fixed=fixed,
            variadic=variadic,
            body=tuple(tuple(line) for line in body),
            aliases=tuple(aliases),
            seq=len(self.defs),
            pos=pos,
            seps=frozenset(t for e in fixed if type(e) is not str for t in e),
        )
        self.defs.append(cls)
        self._open.append((tuple((t, None, None) for t in cls.body), True))
        self.version += 1
        for key in (name, *aliases):
            self._by_name.setdefault(key, []).append(cls)
            self._entries.pop(key, None)
        if variadic is not None:
            self._variadic.update((name, *aliases))
        return cls

    def has_name(self, name: str) -> bool:
        return name in self._by_name

    def resolve(self, name: str, args: Sequence[Token]):
        """(newest matching definition under this name, its binding, the
        body's layout for the arguments' shape), or None.

        Definitions are tried last to first; the first whose pattern
        matches the arguments wins.  One without a variadic tail is skipped
        unmatched when a separator text of it is absent from the arguments
        (a variadic one is not: the check would read its whole tail).
        A winner is kept per shape (see the module docstring).
        """
        shape = None if name in self._variadic else tuple([
            t.text if t.kind >= TokenKind.OPERATOR else t.kind for t in args])
        entry = self._entries.get(name, {}).get(shape)
        if entry is None:
            present = None
            for cls in reversed(self._by_name.get(name, ())):
                if cls.variadic is None and cls.seps:
                    if present is None:
                        present = {t.text for t in args}
                    if not cls.seps <= present:
                        continue
                spans = _spans(cls, args)
                if spans is not None:
                    entry = cls, spans, None
                    break
            else:
                return None
        cls, spans, layout = entry
        binding = {p: args[s] for p, s in spans}
        if shape is not None and layout is None:  # a new shape
            layout = _layout(cls, binding)
            self._entries.setdefault(name, {})[shape] = cls, spans, layout
        return cls, binding, layout or self._open[cls.seq]

    def set_substitution(self, name: str, replacement: Sequence[Token]) -> None:
        self.substitutions[name] = tuple(replacement)
        self.version += 1


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
                    cls, binding, _ = m
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
                    toks[i : close + 1] = splice(cls.body[0], binding)
                    continue
        i += 1
    return toks


__all__ = [
    "BRACED",
    "ClassTable",
    "expand_calls",
    "match",
    "parse_pattern",
    "splice",
]
