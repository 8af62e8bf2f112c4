"""Span tracing of gtrans from outside the program.

The traced run replaces public names of gtrans with wrappers while one
translation runs, then puts the originals back.  Each call through a
wrapper records a span: kind, start, end, parent span and translation
id.  Spans live in compact arrays for the whole run; ``write_spans``
dumps them as JSON lines when asked.  Counts that need a call's
arguments or result (tokens lexed, stream lines, bytes, expression
sites) are computed after the translation ends, from references the
wrappers keep, so that work does not fall inside any span.

A name that a later version of gtrans no longer has is reported as
absent and its metrics read 0; the run does not fail for it.

Blind spots, by construction: work that reaches a layer without going
through one of the wrapped names is charged to the caller.  Known cases:
``dest_phase._reserve_args`` evaluates reserve counts and fills through
the private ``expr._Evaluator``, so that time is ``dest_phase`` self time
and those evaluations are missing from ``expr.calls``; ``classes.
expand_body`` and ``substitute`` are part of ``source_phase`` self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from array import array
from collections import defaultdict

ROOT = "cli"


def _result(args, result):
    return result


def _tokens(args, result):
    return args[0]


# (module, attribute path, span kind, what to keep for post-hoc counts:
# a function of the call's positional arguments and its result)
TARGETS = (
    ("gtrans.cli", "tokenize_lines", "lexer", _result),
    ("gtrans.cli", "run_source_phase", "source_phase", _result),
    ("gtrans.cli", "run_dest_phase", "dest_phase", _result),
    ("gtrans.cli", "format_output", "cli.format", None),
    ("gtrans.dest_phase", "resolve_guarded_regions", "dest_phase.guards",
     lambda args, result: (args[0], result)),
    ("gtrans.classes", "ClassTable.resolve", "classes.resolve",
     lambda args, result: result is not None),
    ("gtrans.classes", "match", "classes.match", None),
    ("gtrans.source_phase", "expand_calls", "classes.expand_calls", None),
    # depth of the engine's program stack just after the push
    ("gtrans.engine", "ControlEngine.push", "engine.push",
     lambda args, result: len(args[0].stack)),
    ("gtrans.engine", "build_structure", "engine.build_structure", None),
    ("gtrans.dest_phase", "build_structure", "engine.build_structure", None),
    ("gtrans.source_phase", "evaluate", "expr", _tokens),
    ("gtrans.source_phase", "eval_values", "expr", _tokens),
    ("gtrans.dest_phase", "evaluate", "expr", _tokens),
    ("gtrans.dest_phase", "eval_values", "expr", _tokens),
)


class TraceError(Exception):
    """The recorded spans do not form a proper tree."""


class Tracer:
    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.kind = array("i")
        self.parent = array("q")
        self.tid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.translation = -1
        self.kept: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _kind_id(self, name: str) -> int:
        if name not in self.kinds:
            self.kinds.append(name)
        return self.kinds.index(name)

    def _wrap(self, kind_name: str, fn, keep):
        k = self._kind_id(kind_name)
        kinds, parents, tids = self.kind, self.parent, self.tid
        starts, ends, stack = self.start, self.end, self.stack
        kept = self.kept[kind_name]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kinds)
            kinds.append(k)
            parents.append(stack[-1])
            tids.append(tracer.translation)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep is not None:
                kept.append(keep(args, result))
            return result

        return traced

    # -- installing --

    def install(self) -> None:
        """Wrap every target that exists; remember the absent ones."""
        self.absent = []
        for module_name, path, kind_name, keep in TARGETS:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (AttributeError, KeyError, TypeError):
                original = None
            if not callable(original):
                self.absent.append(label)
                continue
            wrapped = self._wrap(kind_name, original, keep)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- one translation --

    def run(self, translation: int, fn, *args):
        """Call fn under a root span with wrappers installed.

        Returns (result, seconds); seconds is the root span's duration.
        """
        self.translation = translation
        self.install()
        try:
            traced = self._wrap(ROOT, fn, None)
            first = len(self.kind)
            result = traced(*args)
        finally:
            self.uninstall()
        return result, self.end[first] - self.start[first]

    def summarize(self, translation: int) -> dict:
        """Per-layer figures of one translation; releases what it kept.

        Raises TraceError when spans do not nest: a child that starts
        before or ends after its parent, children longer than their
        parent, or self times that do not add up to the root span.
        """
        lo = self.tid.index(translation)
        hi = lo
        while hi < len(self.tid) and self.tid[hi] == translation:
            hi += 1
        kinds, parents = self.kind, self.parent
        starts, ends = self.start, self.end
        n_kinds = len(self.kinds)
        calls = [0] * n_kinds
        incl = [0.0] * n_kinds
        child = [0.0] * (hi - lo)
        roots = 0
        for i in range(lo, hi):
            dur = ends[i] - starts[i]
            k = kinds[i]
            calls[k] += 1
            p = parents[i]
            if p < 0:
                roots += 1
                continue
            if not lo <= p < i:
                raise TraceError(f"span {i} has a parent outside its translation")
            if starts[i] < starts[p] or ends[i] > ends[p]:
                raise TraceError(
                    f"{self.kinds[k]} span {i} exceeds its parent "
                    f"{self.kinds[kinds[p]]}"
                )
            child[p - lo] += dur
            incl[k] += dur
        root = lo
        if roots != 1 or kinds[root] != self._kind_id(ROOT):
            raise TraceError("a translation must have exactly one root span")
        self_s = [0.0] * n_kinds
        for i in range(lo, hi):
            own = ends[i] - starts[i] - child[i - lo]
            if own < -1e-9:
                raise TraceError(
                    f"{self.kinds[kinds[i]]} span {i}: children outlast it"
                )
            self_s[kinds[i]] += own
        total = ends[root] - starts[root]
        incl[kinds[root]] = total
        if abs(sum(self_s) - total) > 1e-6 * max(total, 1.0):
            raise TraceError("self times do not add up to the translation")

        def kind(name):
            return self.kinds.index(name) if name in self.kinds else None

        def get(arr, name):
            k = kind(name)
            return 0 if k is None else arr[k]

        kept = self.kept
        tokens = sum(len(line.tokens) for r in kept["lexer"] for line in r)
        stream_lines = sum(len(getattr(r, "lines", r)) for r in kept["source_phase"])
        image_bytes = sum(len(r.data) for r in kept["dest_phase"])
        regions = dropped = 0
        for lines, result in kept["dest_phase.guards"]:
            names = _guard_region_names(lines)
            regions += len(names)
            dropped += sum(1 for n in names if n not in result[1])
        hits = sum(kept["classes.resolve"])
        max_depth = max(kept["engine.push"], default=0)
        sites = {tuple(map(id, toks)) for toks in kept["expr"]}
        for values in kept.values():
            values.clear()

        resolves = get(calls, "classes.resolve")
        matches = get(calls, "classes.match")
        expr_calls = get(calls, "expr")
        lex_s = get(incl, "lexer")
        return {
            "self_s": {name: self_s[k] for k, name in enumerate(self.kinds)},
            "metrics": {
                "lexer.s": lex_s,
                "lexer.tokens": tokens,
                "lexer.tokens_per_s": tokens / lex_s if lex_s else 0.0,
                "source_phase.self_s": get(self_s, "source_phase"),
                "source_phase.stream_lines": stream_lines,
                "classes.resolve.calls": resolves,
                "classes.resolve.s": get(incl, "classes.resolve"),
                "classes.match.calls": matches,
                "classes.match_per_resolve": matches / resolves if resolves else 0.0,
                "classes.resolve.hit_ratio": hits / resolves if resolves else 0.0,
                "classes.expand_calls.calls": get(calls, "classes.expand_calls"),
                "classes.expand_calls.s": get(incl, "classes.expand_calls"),
                "engine.push.calls": get(calls, "engine.push"),
                "engine.max_depth": max_depth,
                "engine.build_structure.calls": get(calls, "engine.build_structure"),
                "engine.build_structure.s": get(incl, "engine.build_structure"),
                "expr.calls": expr_calls,
                "expr.s": get(incl, "expr"),
                "expr.reuse_ratio": expr_calls / len(sites) if sites else 0.0,
                "dest_phase.self_s": get(self_s, "dest_phase"),
                "dest_phase.bytes": image_bytes,
                "dest_phase.guards.s": get(incl, "dest_phase.guards"),
                "dest_phase.guards.regions": regions,
                "dest_phase.guards.dropped": dropped,
                "cli.format.s": get(incl, "cli.format"),
                "cli.self_s": get(self_s, ROOT),
            },
        }

    def write_spans(self, path: str) -> None:
        """All spans of the run, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.kind)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.kinds[self.kind[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "translation": self.tid[i],
                }) + "\n")


def _guard_region_names(lines) -> list[str]:
    """Names of the '@if [name]' regions in a stream, one per region.

    Read from the token shapes the README specifies, not from gtrans'
    private helpers.
    """
    names = []
    for line in lines:
        toks = line.tokens
        if (
            len(toks) == 4
            and toks[0].text == "@if"
            and toks[1].text == "["
            and toks[3].text == "]"
        ):
            names.append(toks[2].text)
    return names


# metrics that count work; they must repeat exactly for one seed
COUNT_METRICS = (
    "lexer.tokens",
    "source_phase.stream_lines",
    "classes.resolve.calls",
    "classes.match.calls",
    "classes.expand_calls.calls",
    "engine.push.calls",
    "engine.max_depth",
    "engine.build_structure.calls",
    "expr.calls",
    "dest_phase.bytes",
    "dest_phase.guards.regions",
    "dest_phase.guards.dropped",
)


def combine(summaries: list[dict]) -> dict:
    """Medians of the timed figures; counts must agree exactly."""
    out = {}
    for name in summaries[0]["metrics"]:
        values = [s["metrics"][name] for s in summaries]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                raise TraceError(f"{name} differs between translations: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
