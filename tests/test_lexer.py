"""Scanner and line-taxonomy tests."""

import random
import sys

import pytest

from gtrans.errors import LexError, Position
from gtrans.expr import wrap64
from gtrans.lexer import (
    LineKind,
    Token,
    TokenKind,
    classify,
    dotted_name_end,
    render,
    tokenize,
    tokenize_lines,
)


def kinds_texts(tokens):
    return [(t.kind, t.text) for t in tokens]


def test_basic_scan():
    toks = tokenize("mov r0, r0 + 8")
    assert kinds_texts(toks) == [
        (TokenKind.IDENTIFIER, "mov"),
        (TokenKind.IDENTIFIER, "r0"),
        (TokenKind.PUNCTUATION, ","),
        (TokenKind.IDENTIFIER, "r0"),
        (TokenKind.OPERATOR, "+"),
        (TokenKind.INTEGER, "8"),
    ]
    assert toks[-1].value == 8


def test_integer_forms():
    toks = tokenize("255 0xFF 0xe1a00000 'A'")
    assert [t.value for t in toks] == [255, 255, 0xE1A00000, 65]
    assert [t.kind for t in toks] == [TokenKind.INTEGER] * 4
    assert toks[3].text == "'A'"


def test_long_decimal_literal_wraps_under_the_lowest_int_string_cap():
    # 640 is the lowest cap sys.set_int_max_str_digits() accepts
    rng = random.Random(640)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for size in (640, 641, 700, 5000):
            rest = (rng.choice("0123456789") for _ in range(size - 1))
            digits = "7" + "".join(rest)
            exact = 0
            for d in digits:
                exact = exact * 10 + ord(d) - ord("0")
            (tok,) = tokenize(digits)
            assert (tok.kind, tok.text) == (TokenKind.INTEGER, digits)
            assert wrap64(tok.value) == wrap64(exact)
    finally:
        sys.set_int_max_str_digits(old)


def test_string_literal_keeps_quotes():
    (tok,) = tokenize('"hi there"')
    assert tok.kind is TokenKind.STRING
    assert tok.text == '"hi there"'
    assert tok.string_text == "hi there"


def test_string_may_contain_slashes():
    toks = tokenize('"a//b" // real comment')
    assert len(toks) == 1
    assert toks[0].string_text == "a//b"


def test_comment_stripped():
    assert tokenize("db 1 // emit one byte") == tokenize("db 1")
    assert tokenize("// only a comment") == []


def test_directive_key_only_at_line_start():
    toks = tokenize("#if x")
    assert toks[0].kind is TokenKind.DIRECTIVE_KEY
    toks = tokenize("class #define a b")
    assert toks[1].kind is TokenKind.IDENTIFIER
    assert toks[1].text == "#define"


def test_two_char_operators():
    toks = tokenize("a <= b >= c != d << e >> f && g || h := i .. j")
    ops = [t.text for t in toks if t.kind is TokenKind.OPERATOR]
    assert ops == ["<=", ">=", "!=", "<<", ">>", "&&", "||", ":=", ".."]


def test_angle_pair_is_not_equal():
    toks = tokenize("a <> b")
    assert toks[1].kind is TokenKind.OPERATOR
    assert toks[1].text == "!="


def test_columns_are_one_based():
    toks = tokenize("  db 0x90")
    assert toks[0].pos.column == 3
    assert toks[1].pos.column == 6


@pytest.mark.parametrize(
    "line,message",
    [
        ('"open', "unterminated string literal"),
        ("'", "unterminated character literal"),
        ("'ab'", "unterminated character literal"),
        ("''", "empty character literal"),
        ("0x", "invalid numeric literal"),
        ("12ab", "invalid numeric literal"),
        ("$", "illegal character '$'"),
        ("#", "illegal character '#'"),
        ("@ x", "illegal character '@'"),
    ],
)
def test_scan_errors(line, message):
    with pytest.raises(LexError) as exc:
        tokenize(line, file="f.t", line=3)
    assert exc.value.message == message
    assert exc.value.pos.file == "f.t"
    assert exc.value.pos.line == 3


def test_error_column_points_at_fault():
    with pytest.raises(LexError) as exc:
        tokenize("db 0x")
    assert exc.value.pos.column == 4


@pytest.mark.parametrize(
    "line,kind",
    [
        ("", LineKind.BLANK),
        ("   // note", LineKind.BLANK),
        ("#if x > 1", LineKind.SOURCE_DIRECTIVE),
        ("#print 1+1", LineKind.SOURCE_DIRECTIVE),
        ("@endw", LineKind.DEST_DIRECTIVE),
        ("@if [P1]", LineKind.DEST_DIRECTIVE),
        ("class nop { db 0x90 }", LineKind.CLASS_DEFINITION),
        ("class E x * y", LineKind.CLASS_DEFINITION),
        ("{", LineKind.CLASS_BODY_DELIMITER),
        ("} add, plus", LineKind.CLASS_BODY_DELIMITER),
        ("done:", LineKind.LABEL),
        ("Q.x :", LineKind.LABEL),
        ("L : extra", LineKind.PLAIN),
        ("N := x + 1", LineKind.SYMBOL_SUBSTITUTION),
        ("N :=", LineKind.SYMBOL_SUBSTITUTION),
        ("I = I + 1", LineKind.ASSIGNMENT),
        ("Q.x = 5", LineKind.ASSIGNMENT),
        ("db = 5", LineKind.ASSIGNMENT),
        ("db 0x90", LineKind.DATA_EMISSION),
        ("dd 0xE1A00000, 0x13", LineKind.DATA_EMISSION),
        ("rw 4", LineKind.DATA_EMISSION),
        ("dd ?", LineKind.DATA_EMISSION),
        ("dq", LineKind.DATA_EMISSION),
        ("nop", LineKind.PLAIN),
        ("Sum 3 + 4", LineKind.PLAIN),
        ("L dd ?", LineKind.PLAIN),
        ("42", LineKind.PLAIN),
        ("x <= y", LineKind.PLAIN),
    ],
)
def test_classify(line, kind):
    assert classify(tokenize(line)) is kind


def test_dotted_name_end():
    toks = tokenize("x = io.port.a + b . 1")
    assert dotted_name_end(toks) == 1
    assert dotted_name_end(toks, 2) == 7  # io . port . a
    assert dotted_name_end(toks, 8) == 9  # '.' not followed by a name


def test_tokenize_lines_numbering():
    lines = tokenize_lines("db 1\n\n#endw", file="unit.t")
    assert [ln.kind for ln in lines] == [
        LineKind.DATA_EMISSION,
        LineKind.BLANK,
        LineKind.SOURCE_DIRECTIVE,
    ]
    assert [ln.pos.line for ln in lines] == [1, 2, 3]
    assert lines[0].tokens[0].pos.line == 1
    assert lines[2].tokens[0].pos.line == 3


def test_token_equality_ignores_position():
    a = tokenize("db 1")
    b = tokenize("  db    1", line=9)
    assert a == b


def test_token_is_unequal_to_a_non_token():
    db = tokenize("db")[0]
    assert db != "db" and db != ("db",) and not db == None  # noqa: E711
    assert repr(db) == "Token(IDENTIFIER, 'db')"


# random token soup for the round-trip property
_IDENTS = ["a", "bx", "r0", "mov", "_t", "Sum", "class", "db", "P1"]
_OPS = ["+", "-", "*", "/", "%", "<", "<=", ">", ">=", "=", "!=",
        "<<", ">>", "&", "|", "^", "~", "!", "&&", "||", ":=", ".."]
_PUNCTS = ["(", ")", "[", "]", "{", "}", ",", ":", ";", ".", "?"]


def _random_piece(rng):
    roll = rng.randrange(6)
    if roll == 0:
        return rng.choice(_IDENTS)
    if roll == 1:
        return str(rng.randrange(0, 1 << 32))
    if roll == 2:
        return "0x%x" % rng.randrange(0, 1 << 32)
    if roll == 3:
        return "'%c'" % rng.choice("AZmq09 *")
    if roll == 4:
        return '"%s"' % "".join(
            rng.choice("abc XY01+*.") for _ in range(rng.randrange(0, 6))
        )
    return rng.choice(_OPS + _PUNCTS)


def test_render_round_trip():
    """tokenize(render(toks)) gives back the same kinds, texts, values."""
    rng = random.Random(1702)
    for _ in range(300):
        pieces = [_random_piece(rng) for _ in range(rng.randrange(1, 12))]
        if rng.random() < 0.2:
            pieces.insert(0, rng.choice(["#if", "@while", "#print"]))
        toks = tokenize(" ".join(pieces))
        again = tokenize(render(toks))
        assert [(t.kind, t.text, t.value) for t in again] == [
            (t.kind, t.text, t.value) for t in toks
        ]


def test_token_positions_share_the_line():
    """Every token's pos names its own line and column of the raw text.

    Tokens of one line share that line's Position and keep only their
    column, so this checks the joined value over random multi-line text.
    """
    rng = random.Random(4242)
    for _ in range(40):
        raw_lines = []
        for _ in range(rng.randrange(1, 8)):
            pieces = [_random_piece(rng) for _ in range(rng.randrange(0, 8))]
            if pieces and rng.random() < 0.2:
                pieces.insert(0, rng.choice(["#if", "@while", "#print"]))
            raw_lines.append(
                "".join(" " * rng.randrange(1, 4) + p for p in pieces)
            )
        lines = tokenize_lines("\n".join(raw_lines), "f")
        assert len(lines) == len(raw_lines)
        for line_no, (line, raw) in enumerate(zip(lines, raw_lines), start=1):
            assert line.pos == Position("f", line_no, 1)
            for tok in line.tokens:
                col = tok.pos.column
                assert tok.pos == Position("f", line_no, col)
                assert raw[col - 1 :].startswith(tok.text)
            shifted = tokenize("   " + raw, "g", line_no + 100)
            assert shifted == list(line.tokens)
            assert [hash(t) for t in shifted] == [hash(t) for t in line.tokens]


def test_tokens_are_immutable():
    tok = tokenize("db 0x90")[1]
    for name in ("kind", "text", "value", "pos"):
        with pytest.raises(AttributeError):
            setattr(tok, name, getattr(tok, name))
    with pytest.raises(AttributeError):
        del tok.text
    assert (tok.text, tok.value) == ("0x90", 0x90)
