"""Expression evaluation over token sequences.

Values are signed 64-bit integers (wrapped after every operation) or
strings.  The operator set and precedence follow C, with two departures:
'=' is equality inside an expression (assignment is a line shape, not an
operator) and strings support only '+' on two strings.  Comparisons are
defined for integers only.

Evaluation is precedence climbing straight over the tokens, no tree.
A skipped branch of '&&'/'||' is still parsed but produces nothing, so
its faults stay silent.  split_values parses a value list the same way
without evaluating it, for callers that evaluate each value on its own.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .errors import EvalError, LimitError, NO_POS, Position, UnresolvedNameError
from .lexer import Token, TokenKind, dotted_name_end

Value = Union[int, str]
# returns None for names it does not know
Lookup = Callable[[str], Optional[Value]]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "=": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_UNARY = ("!", "~", "-")

# Deepest expression nesting accepted.  Each parenthesis, each unary
# operator and each right operand of a tighter-binding operator opens one
# level.  A level costs the evaluator at most three Python frames, so 200
# levels stay well inside the interpreter's default recursion limit.
MAX_NESTING = 200


def wrap64(v: int) -> int:
    """Reduce to signed 64-bit two's complement."""
    return ((v + 2**63) % 2**64) - 2**63


def truthy(v: Value) -> bool:
    """Zero and the empty string are false, everything else is true."""
    if isinstance(v, str):
        return v != ""
    return v != 0


class SymbolTable:
    """Name to value bindings."""

    __slots__ = ("bindings",)

    def __init__(self, initial: dict | None = None):
        self.bindings: dict[str, Value] = dict(initial) if initial else {}

    def get(self, name: str) -> Value | None:
        return self.bindings.get(name)

    def assign(self, name: str, value: Value) -> None:
        self.bindings[name] = value


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


class _Evaluator:
    def __init__(self, tokens, lookup: Lookup | None):
        self.tokens = list(tokens)
        self.lookup = lookup
        self.i = 0
        self.depth = 0

    # -- cursor helpers --

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def here(self) -> Position:
        if self.i < len(self.tokens):
            return self.tokens[self.i].pos
        if self.tokens:
            return self.tokens[-1].pos
        return NO_POS

    def fail(self, message: str) -> None:
        raise EvalError(message, self.here())

    def too_deep(self) -> None:
        raise LimitError(
            f"expression nesting exceeds {MAX_NESTING} levels", self.here()
        )

    # -- grammar --

    def expression(self, min_prec: int = 1, dead: bool = False) -> Value:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.too_deep()
        left = self.unary(dead)
        while True:
            tok = self.peek()
            if tok is None or tok.kind is not TokenKind.OPERATOR:
                break
            prec = PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self.i += 1
            if tok.text in ("&&", "||"):
                left = self.logical(tok, left, prec, dead)
            else:
                right = self.expression(prec + 1, dead)
                if not dead:
                    left = self.binary(tok, left, right)
        self.depth -= 1
        return left

    def logical(self, tok: Token, left: Value, prec: int, dead: bool) -> Value:
        if dead:
            self.expression(prec + 1, True)
            return 0
        want_more = truthy(left) if tok.text == "&&" else not truthy(left)
        right = self.expression(prec + 1, dead=not want_more)
        if not want_more:
            # short-circuit: the skipped side was parsed, not evaluated
            return 1 if tok.text == "||" else 0
        return 1 if truthy(right) else 0

    def unary(self, dead: bool) -> Value:
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.OPERATOR and tok.text in _UNARY:
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.too_deep()
            self.i += 1
            operand = self.unary(dead)
            self.depth -= 1
            if dead:
                return 0
            if tok.text == "!":
                return 0 if truthy(operand) else 1
            if not isinstance(operand, int):
                raise EvalError(
                    f"operator '{tok.text}' needs an integer operand", tok.pos
                )
            if tok.text == "~":
                return wrap64(~operand)
            return wrap64(-operand)
        return self.primary(dead)

    def primary(self, dead: bool) -> Value:
        tok = self.peek()
        if tok is None:
            self.fail("expected a value")
        self.i += 1
        if tok.kind is TokenKind.INTEGER:
            return wrap64(tok.value)
        if tok.kind is TokenKind.STRING:
            return tok.string_text
        if tok.is_punct("("):
            value = self.expression(1, dead)
            closing = self.peek()
            if closing is None or not closing.is_punct(")"):
                self.fail("missing ')'")
            self.i += 1
            return value
        if tok.kind is TokenKind.IDENTIFIER:
            start = self.i - 1
            self.i = dotted_name_end(self.tokens, start)
            if dead:
                return 0
            name = tok.text
            if self.i > start + 1:
                name = ".".join(t.text for t in self.tokens[start : self.i : 2])
            value = self.lookup(name) if self.lookup is not None else None
            if value is None:
                raise UnresolvedNameError(name, tok.pos)
            return value
        self.fail(f"unexpected '{tok.text}'")

    def binary(self, tok: Token, a: Value, b: Value) -> Value:
        op = tok.text
        if op == "+":
            if isinstance(a, str) and isinstance(b, str):
                return a + b
            if isinstance(a, int) and isinstance(b, int):
                return wrap64(a + b)
            raise EvalError(
                "operator '+' needs two integers or two strings", tok.pos
            )
        if not (isinstance(a, int) and isinstance(b, int)):
            raise EvalError(f"operator '{op}' needs integer operands", tok.pos)
        if op == "-":
            return wrap64(a - b)
        if op == "*":
            return wrap64(a * b)
        if op == "/":
            if b == 0:
                raise EvalError("division by zero", tok.pos)
            return wrap64(_trunc_div(a, b))
        if op == "%":
            if b == 0:
                raise EvalError("modulo by zero", tok.pos)
            return wrap64(a - _trunc_div(a, b) * b)
        if op == "<<":
            if not 0 <= b <= 63:
                raise EvalError("shift count out of range", tok.pos)
            return wrap64(a << b)
        if op == ">>":
            if not 0 <= b <= 63:
                raise EvalError("shift count out of range", tok.pos)
            return a >> b
        if op == "&":
            return wrap64(a & b)
        if op == "^":
            return wrap64(a ^ b)
        if op == "|":
            return wrap64(a | b)
        if op == "=":
            return 1 if a == b else 0
        if op == "!=":
            return 1 if a != b else 0
        # <, <=, >, >= on integers only
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        return 1 if a >= b else 0


def evaluate(tokens, lookup: Lookup | None = None) -> Value:
    """Evaluate a token sequence as one expression, whole."""
    ev = _Evaluator(tokens, lookup)
    if ev.at_end():
        ev.fail("expected an expression")
    value = ev.expression()
    if not ev.at_end():
        ev.fail(f"unexpected '{ev.peek().text}'")
    return value


def _value_list(ev: _Evaluator, split: bool):
    """Walk a value list: expressions, optionally comma separated, each
    taking the longest parse it can.  Yields each value; with split, each
    value's tokens unevaluated, or None for a bare '?'."""
    while not ev.at_end():
        start = ev.i
        if not split:
            yield ev.expression()
        elif ev.peek().is_punct("?"):
            ev.i += 1
            yield None
        else:
            ev.expression(dead=True)
            yield ev.tokens[start : ev.i]
        if ev.at_end():
            break
        if ev.peek().is_punct(","):
            ev.i += 1
            if ev.at_end():
                ev.fail("expected a value after ','")


def eval_values(tokens, lookup: Lookup | None = None) -> list[Value]:
    """Evaluate a value list; each value is evaluated before the next is
    parsed."""
    return list(_value_list(_Evaluator(tokens, lookup), split=False))


def split_values(tokens):
    """Parse a value list without evaluating it.

    Yields one token slice per value, or None for a bare '?' (one
    default-valued unit).  Parse faults raise when iteration reaches
    them, so a caller can act on one value before the next is parsed.
    """
    return _value_list(_Evaluator(tokens, None), split=True)


__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "Lookup",
    "MAX_NESTING",
    "PRECEDENCE",
    "SymbolTable",
    "Value",
    "eval_values",
    "evaluate",
    "split_values",
    "truthy",
    "wrap64",
]
