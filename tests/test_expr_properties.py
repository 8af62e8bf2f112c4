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
from gtrans.lexer import tokenize  # noqa: E402

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
