"""Expression evaluator tests, checked against the AST oracle."""

import random
import re

import pytest

from gtrans.errors import EvalError, LimitError, TranslationError
from gtrans.expr import (
    INT64_MAX,
    INT64_MIN,
    compile_values,
    evaluate,
    split_values,
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
    assert ev('!"x"') == 0 and ev('!""') == 1
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
    with pytest.raises(EvalError, match="undefined name 'q'"):
        ev("q + 1")


def test_dotted_name_lookup():
    env = {"Q.x": 5, "Q": 99}
    assert ev("Q.x + 1", env) == 6
    assert ev("Q", env) == 99


def test_parse_faults():
    for bad in ("1 +", "(1", "1 )", "* 3", "1 2 +", ""):
        with pytest.raises(EvalError):
            ev(bad)


_OPEN_201 = "( " * 201 + "1"


@pytest.mark.parametrize(
    "text,outcome",
    [
        ("1 / 0 )", "t.s:1:3: division by zero"),
        ("x || ( 1 +", "t.s:1:1: undefined name 'x'"),
        ("0 && ( 1 +", "t.s:1:10: expected a value"),
        ("1 || ( 1 +", "t.s:1:10: expected a value"),
        ("( 1 / 0", "t.s:1:5: division by zero"),
        ('- "s" + )', "t.s:1:1: operator '-' needs an integer operand"),
        ("1 1", "t.s:1:3: unexpected '1'"),
        ("0 && y", 0),
        # MAX_NESTING: an earlier value fault wins over the limit, a skipped
        # side still hits it, and the limit stops the parse where it is
        ("1 / 0 + " + _OPEN_201, "t.s:1:3: division by zero"),
        ("0 && " + _OPEN_201, "t.s:1:404: expression nesting exceeds 200 levels"),
        ("x + " + "- " * 250 + "1", "t.s:1:1: undefined name 'x'"),
        ("( " * 199 + "1 / 0", "t.s:1:403: expression nesting exceeds 200 levels"),
        ("(" * 201 + "1" + ")" * 201, "t.s:1:201: expression nesting exceeds 200 levels"),
    ],
)
def test_fault_order(text, outcome):
    """The first fault in reading order wins: evaluation faults of what
    was read before a parse fault or the nesting limit come first."""
    try:
        got = evaluate(tokenize(text, "t.s"), {}.get)
    except TranslationError as exc:
        assert isinstance(exc, LimitError) == ("nesting" in outcome)
        got = str(exc)
    assert got == outcome


def test_eval_values_greedy():
    def vals(text):
        values, _ = split_values(tokenize(text))
        return [None if fn is None else fn({}.get) for fn, *_ in values]

    assert vals("1, 2 3") == [1, 2, 3]
    assert vals("5 - 3, 2") == [2, 2]
    assert vals("'A' 'B'") == [65, 66]
    assert vals('"AB", 1 + 1') == ["AB", 2]
    assert vals("?, 1, ?") == [None, 1, None]
    assert vals("") == []
    with pytest.raises(EvalError):
        vals("1,")
    with pytest.raises(EvalError):
        compile_values(tokenize("?"))({}.get)
    assert compile_values(tokenize("5 - 3, 2 'A'"))({}.get) == [2, 2, 65]


def test_split_values_parses_without_evaluating():
    tokens = tokenize("missing / 0, ( 1 ) 2")
    values, fault = split_values(tokens)
    assert fault is None
    # each value's tokens end where the next value's start
    ends = [end for _, end, *_ in values]
    starts = [0] + [e + tokens[e].is_punct(",") for e in ends[:-1]]
    assert [[t.text for t in tokens[a:b]] for a, b in zip(starts, ends)] == [
        ["missing", "/", "0"],
        ["(", "1", ")"],
        ["2"],
    ]
    assert [names for _, _, names, _ in values] == [("missing",), (), ()]
    with pytest.raises(EvalError, match="undefined name 'missing'"):
        values[0][0]({}.get)
    assert [fn({}.get) for fn, *_ in values[1:]] == [1, 2]
    # reads: the names read on every run, none right of '&&' or '||'
    values, _ = split_values(tokenize("a && b || c.d + e, (f || g) - h"))
    assert [v[2:] for v in values] == [
        (("a", "b", "c.d", "e"), ("a",)),
        (("f", "g", "h"), ("f", "h")),
    ]
    # a parse fault raises only when the value holding it runs, or alone
    values, fault = split_values(tokenize("1 , 2 +"))
    assert values[0][0]({}.get) == 1
    with pytest.raises(EvalError, match="expected a value"):
        values[1][0]({}.get)
    with pytest.raises(EvalError, match="expected a value"):
        fault({}.get)


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


def test_operator_steps_wrap_join_and_keep_messages():
    # each of + - * & | ^ wraps to 64 bits, in any position of a chain
    assert ev("0x7FFFFFFFFFFFFFFF + 1") == INT64_MIN
    assert ev("-9223372036854775808 * -1") == INT64_MIN
    assert ev("1 + (-9223372036854775808 - 1)") == INT64_MIN
    assert ev("3 & 6 | 8 ^ 1") == 11
    assert ev('"a" + "b"') == "ab"
    for text, message in (
        ('"a" * 2', "operator '*' needs integer operands"),
        ('1 + "a"', "operator '+' needs two integers or two strings"),
        ('"a" & 1', "operator '&' needs integer operands"),
    ):
        with pytest.raises(EvalError, match=re.escape(message)):
            ev(text)


_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


def test_comparisons_and_logic_give_ints_not_bools():
    # the oracle comparison cannot catch a bool result, since True == 1
    env = {"x": 3, "s": "t"}
    texts = [
        f"{left} {op} {right}"
        for op in _COMPARISONS
        for left, right in (("x", "2"), ("x", "x"), ("3", "x"), ("2", "3"))
    ]
    texts += ["!x", "!0", '!""', "!s", "!(x < 2)"]
    texts += [
        f"{left} {op} {right}"
        for op in ("&&", "||")
        for left, right in (("x", "0"), ("0", "x"), ("s", "1"), ('""', "s"),
                            ("1", "1"), ("0", "0"), ("x", "x < 2"))
    ]
    for text in texts:
        value = ev(text, env)
        assert type(value) is int and value in (0, 1), text


_EDGE_LEFT = ("7", "-7", "x", "-9223372036854775808")
_EDGE_RIGHT = ("0", "1", "63", "64", "9223372036854775808",
               "0xFFFFFFFFFFFFFFFF")


@pytest.mark.parametrize(
    "text",
    [
        f"{left} {op} {right}"
        for op in ("/", "%", "<<", ">>")
        for left in _EDGE_LEFT
        for right in _EDGE_RIGHT
    ]
    + ["-7 / 2", "-7 % 2", "7 % -2", "-9223372036854775808 / 1",
       "x / -3", "x % -3", "x / 3 / 2", "x % 3 = 2", "x * 2 % 5"],
)
def test_literal_right_operands_match_the_oracle(text):
    """A literal right operand is held, not run: every edge agrees with
    the oracle and with the same operand run as '( literal )'."""
    env = {"x": -9}
    try:
        expect = ("ok", oracle_eval(text, env))
    except OracleError:
        expect = ("fault",)
    results = []
    for form in (text, re.sub(r"(\S+)$", r"( \1 )", text)):
        try:
            results.append(("ok", ev(form, env)))
        except EvalError:
            results.append(("fault",))
    assert results == [expect, expect]


@pytest.mark.parametrize(
    "text,outcome",
    [
        ('"a" < 1', "t.s:1:5: operator '<' needs integer operands"),
        ('"a" % 3', "t.s:1:5: operator '%' needs integer operands"),
        ('"a" / 0', "t.s:1:5: operator '/' needs integer operands"),
        ('"a" << 1', "t.s:1:5: operator '<<' needs integer operands"),
        ('"a" + 1', "t.s:1:5: operator '+' needs two integers or two strings"),
        ("1 / 0", "t.s:1:3: division by zero"),
        ("1 % 0", "t.s:1:3: modulo by zero"),
        ("1 << 64", "t.s:1:3: shift count out of range"),
        ("1 >> 9223372036854775808", "t.s:1:3: shift count out of range"),
        ("-9223372036854775808 / 0xFFFFFFFFFFFFFFFF", -(2**63)),
        ("7 / -3", -2),
        # a fault left of a literal '/ 0' is the one reported
        ("q / 0", "t.s:1:1: undefined name 'q'"),
        ("1 % 0 / 0", "t.s:1:3: modulo by zero"),
        ('( "a" < 1 ) / 0', "t.s:1:7: operator '<' needs integer operands"),
        ('"a" + 1 / 0', "t.s:1:9: division by zero"),
        ("1 / 0 +", "t.s:1:3: division by zero"),
    ],
)
def test_literal_operand_faults(text, outcome):
    try:
        got = evaluate(tokenize(text, "t.s"), {}.get)
    except EvalError as exc:
        got = str(exc)
    assert got == outcome
