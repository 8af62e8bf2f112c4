"""Expression evaluation over token sequences.

Values are signed 64-bit integers (wrapped after every operation) or
strings.  The operator set and precedence follow C, with two departures:
'=' is equality inside an expression (assignment is a line shape, not an
operator) and strings support only '+' on two strings.  Comparisons are
defined for integers only.

Evaluation is precedence climbing straight over the tokens, no tree.
A skipped branch of '&&'/'||' is still parsed but produces nothing, so
its faults stay silent; 'tolerant' extends that silence to value faults
in live code (unknown names, zero division, type mismatches give 0),
which is what a sizing pass needs when labels are not yet known.  Parse
faults are never silenced.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .errors import EvalError, LimitError, NO_POS, Position, UnresolvedNameError
from .lexer import Token, TokenKind

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
    def __init__(self, tokens, lookup: Lookup | None, tolerant: bool):
        self.tokens = list(tokens)
        self.lookup = lookup
        self.tolerant = tolerant
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

    def value_fault(self, message: str, pos: Position) -> int:
        """A fault in a computed value.  Gives 0 under tolerant."""
        if self.tolerant:
            return 0
        raise EvalError(message, pos)

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
                return self.value_fault(
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
            name = tok.text
            while (
                self.i + 1 < len(self.tokens)
                and self.tokens[self.i].is_punct(".")
                and self.tokens[self.i + 1].kind is TokenKind.IDENTIFIER
            ):
                name += "." + self.tokens[self.i + 1].text
                self.i += 2
            if dead:
                return 0
            value = self.lookup(name) if self.lookup is not None else None
            if value is None:
                if self.tolerant:
                    return 0
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
            return self.value_fault(
                "operator '+' needs two integers or two strings", tok.pos
            )
        if not (isinstance(a, int) and isinstance(b, int)):
            return self.value_fault(
                f"operator '{op}' needs integer operands", tok.pos
            )
        if op == "-":
            return wrap64(a - b)
        if op == "*":
            return wrap64(a * b)
        if op == "/":
            if b == 0:
                return self.value_fault("division by zero", tok.pos)
            return wrap64(_trunc_div(a, b))
        if op == "%":
            if b == 0:
                return self.value_fault("modulo by zero", tok.pos)
            return wrap64(a - _trunc_div(a, b) * b)
        if op == "<<":
            if not 0 <= b <= 63:
                return self.value_fault("shift count out of range", tok.pos)
            return wrap64(a << b)
        if op == ">>":
            if not 0 <= b <= 63:
                return self.value_fault("shift count out of range", tok.pos)
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


def evaluate(tokens, lookup: Lookup | None = None, *, tolerant: bool = False) -> Value:
    """Evaluate a token sequence as one expression, whole."""
    ev = _Evaluator(tokens, lookup, tolerant)
    if ev.at_end():
        ev.fail("expected an expression")
    value = ev.expression()
    if not ev.at_end():
        ev.fail(f"unexpected '{ev.peek().text}'")
    return value


def eval_values(
    tokens,
    lookup: Lookup | None = None,
    *,
    placeholders: bool = False,
    tolerant: bool = False,
) -> list[Value | None]:
    """Evaluate a value list: expressions, optionally comma separated.

    Each value takes the longest parse it can.  With placeholders on, a
    bare '?' stands for one default-valued unit and comes back as None.
    """
    ev = _Evaluator(tokens, lookup, tolerant)
    values: list[Value | None] = []
    while not ev.at_end():
        tok = ev.peek()
        if placeholders and tok.is_punct("?"):
            ev.i += 1
            values.append(None)
        else:
            values.append(ev.expression())
        if ev.at_end():
            break
        if ev.peek().is_punct(","):
            ev.i += 1
            if ev.at_end():
                ev.fail("expected a value after ','")
    return values


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
    "truthy",
    "wrap64",
]
