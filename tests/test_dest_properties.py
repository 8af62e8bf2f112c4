"""Property tests for the destination phase (needs Hypothesis).

Random '@' programs built from labels, forward-referencing data and
reserve fills, assignments, '@if'/'@while', '@print' and '@error' must
either translate or fail with a TranslationError.  Any other exception
is a translator bug, which the driver reports as an internal error.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gtrans.dest_phase import run_dest_phase  # noqa: E402
from gtrans.engine import Limits  # noqa: E402
from gtrans.errors import TranslationError  # noqa: E402
from gtrans.lexer import tokenize_lines  # noqa: E402

_LABELS = ["L0", "L1", "L2", "io.port"]
_NAMES = st.sampled_from(_LABELS + ["a", "b", "n0", "n1"])
_OPS = st.sampled_from(["+", "-", "*", "/", "%", "<<", "&&", "||", "<", "="])


@st.composite
def expressions(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(
            st.one_of(
                st.integers(-300, 70000).map(str),
                _NAMES,
                st.sampled_from(['"s"', "'A'", "(", "?"]),
            )
        )
    left = draw(expressions(depth - 1))
    right = draw(expressions(depth - 1))
    return "%s %s %s" % (left, draw(_OPS), right)


@st.composite
def programs(draw):
    lines = []
    loops = [0]

    def block(depth):
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(
                st.sampled_from(
                    ["label", "data", "data", "reserve", "assign", "if",
                     "while", "print", "error"]
                )
            )
            if kind == "label":
                lines.append("%s :" % draw(st.sampled_from(_LABELS)))
            elif kind == "data":
                keyword = draw(st.sampled_from(["db", "dw", "dd", "dq"]))
                values = draw(st.lists(expressions(), min_size=1, max_size=3))
                lines.append("%s %s" % (keyword, " , ".join(values)))
            elif kind == "reserve":
                count = draw(st.sampled_from(["0", "1", "3", "a", "L0"]))
                lines.append("rw %s , %s" % (count, draw(expressions())))
            elif kind == "assign":
                name = draw(st.sampled_from(["a", "b"]))
                lines.append("%s = %s" % (name, draw(expressions())))
            elif kind == "print":
                lines.append("@print %s" % draw(expressions()))
            elif kind == "error":
                lines.append('@error "stop" %s' % draw(expressions()))
            elif depth < 2 and kind == "if":
                lines.append("@if %s" % draw(expressions()))
                block(depth + 1)
                lines.append("@endif")
            elif depth < 2:
                var = "n%d" % (loops[0] % 2)
                loops[0] += 1
                lines.append("%s = 0" % var)
                lines.append("@while %s < %d" % (var, draw(st.integers(0, 3))))
                lines.append("%s = %s + 1" % (var, var))
                block(depth + 1)
                lines.append("@endw")

    block(0)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(programs(), st.booleans())
def test_any_program_translates_or_fails_cleanly(source, strict):
    lines = tokenize_lines(source, "t.s")
    try:
        run_dest_phase(lines, {}, strict=strict, limits=Limits(max_loop=50))
    except TranslationError:
        pass
