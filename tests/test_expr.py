"""Expression evaluator tests, checked against the AST oracle."""

import random

import pytest

from gtrans.errors import EvalError, UnresolvedNameError
from gtrans.expr import (
    INT64_MAX,
    INT64_MIN,
    eval_values,
    evaluate,
    split_values,
    truthy,
    wrap64,
)
from gtrans.lexer import tokenize

from helpers import gen_expr
from oracles import OracleError, oracle_eval


def ev(text, env=None):
    lookup = env.get if isinstance(env, dict) else env
    return evaluate(tokenize(text), lookup)


def test_pinned_results():
    assert ev("1 << 4 | 3") == 19
    assert ev("2 + 3 * 4") == 14
    assert ev("'A' + 1") == 66


def test_equality_is_single_equals():
    assert ev("1 + 1 = 2") == 1
    assert ev("3 = 4") == 0
    assert ev("3 != 4") == 1
    assert ev("3 <> 4") == 1


def test_precedence_shape():
    assert ev("2 + 3 << 1") == 10          # shift binds looser than +
    assert ev("1 | 2 = 2") == 1            # = binds tighter than |
    assert ev("4 & 2 * 2") == 4
    assert ev("1 < 2 = 1") == 1


def test_unary_binds_tightest():
    assert ev("-2 * 3") == -6
    assert ev("- - 5") == 5
    assert ev("~0") == -1
    assert ev("!5") == 0
    assert ev("!0 + 1") == 2


def test_wraparound():
    assert ev("0x7FFFFFFFFFFFFFFF + 1") == INT64_MIN
    assert ev("0xFFFFFFFFFFFFFFFF") == -1
    assert ev("1 << 63") == INT64_MIN
    assert wrap64(INT64_MAX + 1) == INT64_MIN
    assert ev("0 - 1 - 0x7FFFFFFFFFFFFFFF - 1") == INT64_MAX


def test_division_truncates_toward_zero():
    assert ev("7 / 2") == 3
    assert ev("0 - 7 / 2") == -3
    assert ev("(0 - 7) / 2") == -3
    assert ev("7 / (0 - 2)") == -3
    assert ev("(0 - 7) % 2") == -1
    assert ev("7 % (0 - 2)") == 1


@pytest.mark.parametrize(
    "text",
    ["1 / 0", "1 % 0", "1 << 64", "1 >> 100", "1 << (0 - 1)"],
)
def test_arithmetic_faults(text):
    with pytest.raises(EvalError):
        ev(text)


def test_strings():
    assert ev('"ab" + "cd"') == "abcd"
    assert truthy("x") and not truthy("")
    assert ev('"" || 0') == 0
    assert ev('"a" && 1') == 1
    for bad in ('"a" < "b"', '"a" = "a"', '"a" != "b"', '"x" * 2', '"x" + 1'):
        with pytest.raises(EvalError):
            ev(bad)


def test_short_circuit_skips_faults():
    assert ev("0 && 1 / 0") == 0
    assert ev("1 || 1 / 0") == 1
    assert ev("0 && missing") == 0
    assert ev("1 || missing + 2 * missing") == 1
    with pytest.raises(EvalError):
        ev("1 && 1 / 0")


def test_undefined_name():
    with pytest.raises(UnresolvedNameError) as exc:
        ev("q + 1")
    assert exc.value.name == "q"


def test_dotted_name_lookup():
    env = {"Q.x": 5, "Q": 99}
    assert ev("Q.x + 1", env) == 6
    assert ev("Q", env) == 99


def test_parse_faults():
    for bad in ("1 +", "(1", "1 )", "* 3", "1 2 +", ""):
        with pytest.raises(EvalError):
            ev(bad)


def test_eval_values_greedy():
    def vals(text):
        return [
            None if part is None else evaluate(part)
            for part in split_values(tokenize(text))
        ]

    assert vals("1, 2 3") == [1, 2, 3]
    assert vals("5 - 3, 2") == [2, 2]
    assert vals("'A' 'B'") == [65, 66]
    assert vals('"AB", 1 + 1') == ["AB", 2]
    assert vals("?, 1, ?") == [None, 1, None]
    assert vals("") == []
    with pytest.raises(EvalError):
        vals("1,")
    with pytest.raises(EvalError):
        eval_values(tokenize("?"))
    assert eval_values(tokenize("5 - 3, 2 'A'")) == [2, 2, 65]


def test_split_values_parses_without_evaluating():
    parts = list(split_values(tokenize("missing / 0, ( 1 ) 2")))
    assert [[t.text for t in p] for p in parts] == [
        ["missing", "/", "0"],
        ["(", "1", ")"],
        ["2"],
    ]
    # a parse fault raises only when iteration reaches it
    parts = split_values(tokenize("1 , 2 +"))
    assert [t.text for t in next(parts)] == ["1"]
    with pytest.raises(EvalError, match="expected a value"):
        next(parts)


def test_matches_oracle_on_random_expressions():
    rng = random.Random(40917)
    env = {"a": 3, "b": 10, "c": -4}
    agree_values = 0
    agree_faults = 0
    for _ in range(400):
        text = gen_expr(rng, rng.randrange(1, 5))
        try:
            expect = ("ok", oracle_eval(text, env))
        except OracleError:
            expect = ("fault",)
        try:
            got = ("ok", ev(text, env))
        except EvalError:
            got = ("fault",)
        assert got == expect, "diverged on %r" % text
        if expect[0] == "ok":
            agree_values += 1
        else:
            agree_faults += 1
    # the generator must exercise both outcomes to mean anything
    assert agree_values > 100
    assert agree_faults > 20
