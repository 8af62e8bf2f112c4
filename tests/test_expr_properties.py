"""Property tests for expressions against the AST oracle (needs Hypothesis).

The oracle in tests/oracles.py scans, parses and walks a tree of its
own.  On any expression text the two agree: equal values, or a fault on
both sides.  Well-formed expressions exercise values and run-time
faults; token soup over the same vocabulary exercises parse faults.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from gtrans.errors import EvalError  # noqa: E402
from gtrans.expr import evaluate  # noqa: E402
from gtrans.lexer import TokenKind, tokenize  # noqa: E402

from oracles import OracleError, oracle_eval  # noqa: E402

ENV = {"a": 3, "b": -7, "big": 2**63 - 1, "s": "xy", "e": ""}
_BINARY = [
    "+", "-", "*", "/", "%", "<<", ">>", "<", "<=", ">", ">=", "=", "!=",
    "<>", "&", "^", "|", "&&", "||",
]
_ATOMS = st.one_of(
    st.integers(0, 2**64 - 1).map(str),
    st.integers(0, 2**64 - 1).map(hex),
    st.integers(0, 70).map(str),
    st.sampled_from(["'A'", "'z'", '"ab"', '""', "a", "b", "big", "s", "e", "nope"]),
)
EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["-", "!", "~"]), inner).map(" ".join),
        inner.map(lambda e: "( " + e + " )"),
        st.tuples(inner, st.sampled_from(_BINARY), inner).map(" ".join),
    ),
    max_leaves=30,
)
SOUP = st.lists(
    st.sampled_from(_BINARY + ["(", ")", "!", "~", "1", "0", "7", "a", "nope", '"q"']),
    max_size=14,
).map(" ".join)


def outcome(run):
    try:
        return ("value", run())
    except (EvalError, OracleError):
        return ("fault",)


def check(text):
    got = outcome(lambda: evaluate(tokenize(text), ENV.get))
    want = outcome(lambda: oracle_eval(text, ENV))
    assert got == want, text


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS)
def test_evaluate_matches_oracle(text):
    check(text)


@settings(max_examples=400, deadline=None)
@given(SOUP)
def test_evaluate_matches_oracle_on_token_soup(text):
    check(text)


_VALUES = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(["", "ab"]))
_INTEGERS = st.one_of(
    st.integers(0, 2**64 - 1).map(str),
    st.integers(0, 2**64 - 1).map(hex),
    st.sampled_from(["'B'", "'q'", "0", "63", "64"]),
)
_STRINGS = st.sampled_from(['""', '"a"', '"zz"', '"xy"'])


def _shape(tokens):
    return [t.text if t.kind >= TokenKind.OPERATOR else t.kind for t in tokens]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(EXPRESSIONS, SOUP), st.data())
def test_a_shape_parsed_once_takes_each_lines_own_leaves(text, data):
    """A token list of a shape already parsed is built from its own
    names, literals and positions: compile an expression, then a re-lexed
    variant with fresh names, other literals and shifted columns, and
    both agree with the oracle."""
    tokens = tokenize(text)
    fresh = {}  # each name: its fresh name
    env = {}
    parts = []
    for t in tokens:
        if t.kind is TokenKind.IDENTIFIER:
            if t.text not in fresh:
                fresh[t.text] = "v_%d_%s" % (len(fresh), t.text)
                if t.text in ENV:
                    env[fresh[t.text]] = data.draw(_VALUES)
            parts.append(fresh[t.text])
        elif t.kind is TokenKind.INTEGER:
            parts.append(data.draw(_INTEGERS))
        elif t.kind is TokenKind.STRING:
            parts.append(data.draw(_STRINGS))
        else:
            parts.append(t.text)
    variant = " " * data.draw(st.integers(1, 9)) + " ".join(parts)
    again = tokenize(variant, "v.s", 7)
    assert _shape(again) == _shape(tokens)
    assert outcome(lambda: evaluate(tokens, ENV.get)) == outcome(
        lambda: oracle_eval(text, ENV)), text
    assert outcome(lambda: evaluate(again, env.get)) == outcome(
        lambda: oracle_eval(variant, env)), variant

