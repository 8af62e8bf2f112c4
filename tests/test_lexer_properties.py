"""Lexer round trip (needs Hypothesis).

Rendering a lexed line joins its tokens with single spaces.  Lexing the
rendered text again gives the same tokens (kind, text and value) and the
same line kinds, whatever spacing and comments the original had.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from gtrans.errors import LexError  # noqa: E402
from gtrans.lexer import tokenize_lines  # noqa: E402

_PIECES = st.sampled_from(
    [
        "a", "b_2", "x", "db", "class", "#if", "@while", "#define", "@",
        "0", "42", "0x1F", "'A'", "' '", "'/'", '"s t"', '""', '"//"',
        "+", "-", "*", "/", "<", "<=", "<>", "!=", "&&", "||", "<<", ":=",
        "..", "=", "!", "~", "(", ")", "[", "]", "{", "}", ",", ":", ";",
        ".", "?", "// note",
    ]
)
_GAPS = st.sampled_from(["", " ", "  ", "\t", "\n", " \n "])
TEXTS = st.lists(st.tuples(_PIECES, _GAPS), max_size=30).map(
    lambda parts: "".join(piece + gap for piece, gap in parts)
)


def shape(lines):
    return [(line.tokens, line.kind) for line in lines]


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_render_round_trips(text):
    try:
        lines = tokenize_lines(text, "t.s")
    except LexError:
        assume(False)
    rendered = "\n".join(line.render() for line in lines)
    again = tokenize_lines(rendered, "t.s")
    assert shape(again) == shape(lines)
    assert "\n".join(line.render() for line in again) == rendered
