"""ControlEngine's keep rule for compiled lines, driven through a compile
hook that counts its calls and watches the ops it returns."""

import weakref
from collections import Counter

from gtrans.engine import ControlEngine, Limits, Program
from gtrans.lexer import LineKind, tokenize_lines


class _Hook:
    """A compile hook whose ops push pushes[line], if any, and which
    records, at each call, how many of the ops it returned are alive."""

    def __init__(self, pushes=None):
        self.pushes = pushes or {}
        self.calls = Counter()
        self.refs = []
        self.alive = []

    def __call__(self, line):
        self.calls[line] += 1
        self.alive.append(sum(ref() is not None for ref in self.refs))
        program = self.pushes.get(line)

        def op():
            return program

        self.refs.append(weakref.ref(op))
        return op


def _run(hook, lines):
    engine = ControlEngine(LineKind.SOURCE_DIRECTIVE, hook, {}.get, [],
                           Limits())
    engine.run(lines)


def _distinct(n):
    return tokenize_lines("\n".join(f"db {k}" for k in range(n)))


def test_a_repeated_top_level_line_is_compiled_twice():
    line = _distinct(1)[0]
    hook = _Hook()
    _run(hook, [line] * 1000)
    assert hook.calls == {line: 2}


def test_top_level_lines_seen_once_keep_no_op():
    lines = _distinct(1000)
    hook = _Hook()
    _run(hook, lines)
    assert len(hook.calls) == 1000 and set(hook.calls.values()) == {1}
    assert max(hook.alive) <= 2


def test_an_expansion_pushed_twice_compiles_each_line_once():
    body = _distinct(5)
    expansion = Program(body)
    first, second = tokenize_lines("go 1\ngo 2")
    hook = _Hook({first: expansion, second: expansion})
    _run(hook, [first, second])
    assert all(hook.calls[line] == 1 for line in body)
    assert hook.calls[first] == hook.calls[second] == 1
