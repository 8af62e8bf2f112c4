"""Property test for the whole pipeline (needs Hypothesis).

Random lines of token soup, drawn from directive keys of both phases,
data keywords, 'class', brackets and braces, ':=', '..', names and
literals (some of thousands of digits), go through cli.translate() with
small limits.  Whatever the
text, the run ends "ok" or "user-error"; "internal-error" (exit 2) is
reserved for translator bugs.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gtrans.cli import TranslatorConfig, translate  # noqa: E402
from gtrans.engine import Limits  # noqa: E402

_DIRECTIVES = [
    p + key
    for p in "#@"
    for key in (
        "if", "elif", "else", "endif", "while", "endw", "repeat", "until",
        "break", "print", "error", "org",
    )
]
_WORDS = st.sampled_from(
    _DIRECTIVES
    + ["db", "dw", "dd", "dp", "dq", "rb", "rw", "rd", "rp", "rq", "class"]
    + ["{", "}", "[", "]", "(", ")", ":=", "..", ",", ":", "=", "?"]
    + ["+", "-", "*", "/", "<", "&&", "!"]
    + ["a", "b", "f", "L", "x.y", "n"]
    + ["0", "1", "3", "255", "0x100", '"s"', "'A'"]
    # decimal literals longer than CPython's default int-string cap
    + ["1" + "0" * 699, "9" * 5000]
)


@st.composite
def programs(draw):
    lines = draw(
        st.lists(st.lists(_WORDS, min_size=0, max_size=7), max_size=10)
    )
    return "\n".join(" ".join(words) for words in lines) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("soup")


@settings(max_examples=300, deadline=None)
@given(
    source=programs(),
    format=st.sampled_from(["raw", "hex", "listing"]),
    strict=st.booleans(),
)
def test_translate_never_fails_internally(workdir, source, format, strict):
    path = workdir / "prog.src"
    path.write_text(source)
    report = translate(
        TranslatorConfig(
            source=str(path),
            output=str(workdir / "prog.out"),
            format=format,
            strict_overflow=strict,
            limits=Limits(max_loop=3, max_depth=8),
        )
    )
    assert report.status in ("ok", "user-error"), report.diagnostics
