"""Expression evaluator tests, checked against the AST oracle."""

import random
import re
from functools import partial

import pytest

from gtrans import expr
from gtrans.errors import EvalError, LimitError, TranslationError
from gtrans.expr import (
    INT64_MAX,
    INT64_MIN,
    compile_expr,
    compile_values,
    evaluate,
    split_values,
    wrap64,
)
from gtrans.lexer import Token, TokenKind, tokenize

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


# -- one parse per shape: everything but the shape is the line's own --


def _shape(tokens):
    return [t.text if t.kind >= TokenKind.OPERATOR else t.kind for t in tokens]


def _same_shape(first, second):
    """first and second lexed on other lines and columns; one shape."""
    a = tokenize(first, "a.s", 1)
    b = tokenize("    " + second, "b.s", 9)
    assert _shape(a) == _shape(b)
    return a, b


def _run(tokens, env):
    try:
        return evaluate(tokens, env.get)
    except TranslationError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "first,second,got_first,got_second",
    [
        # integer values, one above INT64_MAX, inside and as a held literal
        ("1 + 2", "18446744073709551615 + 9223372036854775809", 3, INT64_MIN),
        ("x - 3", "x - 18446744073709551615", 2, 6),
        ("( 7 ) * 2", "( 9223372036854775808 ) * 1", 14, INT64_MIN),
        # string texts
        ('"ab" + "c"', '"xyz" + ""', "abc", "xyz"),
        # dotted names
        ("P.q + 1", "R.s + 1", 11, 21),
        # fault texts and positions
        ("1 x", "1 y", "a.s:1:3: unexpected 'x'", "b.s:9:7: unexpected 'y'"),
        ("( 1 + 2", "( 3 + 4", "a.s:1:7: missing ')'", "b.s:9:11: missing ')'"),
        ("q + 1", "r + 1", "a.s:1:1: undefined name 'q'",
         "b.s:9:5: undefined name 'r'"),
        ("1 / ( x - 5 )", "1 / ( x - 6 )", "a.s:1:3: division by zero", -1),
        # the nesting limit's position
        ("( " * 201 + "1", "( " * 201 + "2",
         "a.s:1:401: expression nesting exceeds 200 levels",
         "b.s:9:405: expression nesting exceeds 200 levels"),
    ],
)
def test_one_shape_keeps_each_lines_own_leaves(first, second, got_first, got_second):
    env = {"x": 5, "P.q": 10, "R.s": 20}
    a, b = _same_shape(first, second)
    for _ in range(2):  # in a fixed order, and again once both are kept
        assert _run(a, env) == got_first
        assert _run(b, env) == got_second


@pytest.mark.parametrize(
    "first,second,want_first,want_second",
    [
        ("a + a", "a + b", [(("a",), ("a",))], [(("a", "b"), ("a", "b"))]),
        ("x || y", "x || x", [(("x", "y"), ("x",))], [(("x",), ("x",))]),
        ("P.q && R.s, d", "R.s && R.s, e",
         [(("P.q", "R.s"), ("P.q",)), (("d",), ("d",))],
         [(("R.s",), ("R.s",)), (("e",), ("e",))]),
    ],
)
def test_one_shape_keeps_each_lines_own_names(first, second, want_first, want_second):
    a, b = _same_shape(first, second)
    for _ in range(2):
        for tokens, want in ((a, want_first), (b, want_second)):
            values, fault = split_values(tokens)
            assert fault is None
            assert [v[2:] for v in values] == want


def test_one_shape_keeps_each_lines_own_value_list():
    def vals(tokens):
        values, fault = split_values(tokens)
        return [None if fn is None else fn({}.get) for fn, *_ in values], fault

    a, b = _same_shape('1, ?, "s" 0x10', '2, ?, "tu" 0xFFFFFFFFFFFFFFFF')
    for _ in range(2):
        assert vals(a) == ([1, None, "s", 16], None)
        assert vals(b) == ([2, None, "tu", -1], None)
    with pytest.raises(EvalError, match=re.escape("a.s:1:4: unexpected '?'")):
        compile_values(a)({}.get)
    with pytest.raises(EvalError, match=re.escape("b.s:9:8: unexpected '?'")):
        compile_values(b)({}.get)
    a, b = _same_shape("1 ,", "22 ,")
    for tokens, where in ((a, "a.s:1:3"), (b, "b.s:9:8")):
        with pytest.raises(EvalError, match=re.escape(
                f"{where}: expected a value after ','")):
            vals(tokens)[1]({}.get)


def _holds_a_token(obj, seen) -> bool:
    """Whether obj reaches a Token through tuples, lists, partials and
    closure cells."""
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, Token):
        return True
    if isinstance(obj, (tuple, list)):
        parts = obj
    elif isinstance(obj, partial):
        parts = (obj.func, *obj.args)
    elif callable(obj) and getattr(obj, "__closure__", None):
        parts = [cell.cell_contents for cell in obj.__closure__]
    else:
        return False
    return any(_holds_a_token(part, seen) for part in parts)


def test_shape_table_is_bounded_and_holds_no_token():
    expr._SHAPES.clear()
    bound = expr._MAX_SHAPES
    for k in range(1, bound + 10):  # k terms: a shape of its own
        assert evaluate(tokenize(" - ".join(["1"] * k))) == 2 - k
        assert len(expr._SHAPES) <= bound
    assert len(expr._SHAPES) == 9  # cleared once, at shape bound + 1
    # a shape parsed before the clear is parsed again, right
    assert evaluate(tokenize("7 - 3")) == 4
    for text in ("a + 'A' * ( b || 2 ) - \"s\"", "1 )", "( 1", "a.b, ?, 3 +"):
        for compile_ in (compile_expr, split_values):
            compile_(tokenize(text))
    assert not _holds_a_token(list(expr._SHAPES.items()), set())
