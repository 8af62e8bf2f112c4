"""Expression evaluation over token sequences.

Values are signed 64-bit integers (wrapped after every operation) or
strings.  The operator set and precedence follow C, with two departures:
'=' is equality inside an expression (assignment is a line shape, not an
operator) and strings support only '+' on two strings.  Comparisons are
defined for integers only.

An expression is compiled once, by precedence climbing over its tokens,
into a tree of closures (Feeley and Lapalme, "Using closures for code
generation", 1987): compile_expr(tokens) returns fn(lookup) -> value,
and evaluate is compile_expr(tokens)(lookup).  Compiling never raises.
A parse fault, or nesting past MAX_NESTING, becomes a node that raises
it, placed where the parser stopped, so running the tree raises the
faults of what was read before it first, in reading order, exactly as
evaluating while parsing would.  A skipped side of '&&'/'||' is not
run, so its value faults stay silent, but a parse fault in it still
raises.  A run of operators of one precedence compiles to one loop, so
a long flat expression runs without deep recursion.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Union

from .errors import EvalError, LimitError, NO_POS, Position, UnresolvedNameError
from .lexer import Token, TokenKind, dotted_name, dotted_name_end

Value = Union[int, str]
# returns None for names it does not know
Lookup = Callable[[str], Optional[Value]]
# a compiled expression
Expr = Callable[[Lookup], Value]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_UNARY = ("!", "~", "-")

# Deepest expression nesting accepted.  Each parenthesis, each unary
# operator and each right operand of a tighter-binding operator opens one
# level.  A level costs the compiler at most three Python frames and a
# compiled tree two when it runs, so 200 levels stay well inside the
# interpreter's default recursion limit.
MAX_NESTING = 200


def wrap64(v: int) -> int:
    """Reduce to signed 64-bit two's complement."""
    if INT64_MIN <= v <= INT64_MAX:
        return v
    return ((v + 2**63) % 2**64) - 2**63


def truthy(v: Value) -> bool:
    """Zero and the empty string are false, everything else is true."""
    if isinstance(v, str):
        return v != ""
    return v != 0


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _raise(exc: Exception):
    try:
        raise exc
    finally:
        del exc  # the traceback holds this frame: break the cycle


# each binary operator: (precedence, function of (a, b, position of the
# operator) on two integers; '+' also joins two strings).  '&&' and '||'
# have no function: they short-circuit.
_BINARY = {
    "||": (1, None),
    "&&": (2, None),
    "|": (3, lambda a, b, pos: wrap64(a | b)),
    "^": (4, lambda a, b, pos: wrap64(a ^ b)),
    "&": (5, lambda a, b, pos: wrap64(a & b)),
    "=": (6, lambda a, b, pos: 1 if a == b else 0),
    "!=": (6, lambda a, b, pos: 1 if a != b else 0),
    "<": (7, lambda a, b, pos: 1 if a < b else 0),
    "<=": (7, lambda a, b, pos: 1 if a <= b else 0),
    ">": (7, lambda a, b, pos: 1 if a > b else 0),
    ">=": (7, lambda a, b, pos: 1 if a >= b else 0),
    "<<": (8, lambda a, b, pos: wrap64(a << b) if 0 <= b <= 63
           else _raise(EvalError("shift count out of range", pos))),
    ">>": (8, lambda a, b, pos: a >> b if 0 <= b <= 63
           else _raise(EvalError("shift count out of range", pos))),
    "+": (9, lambda a, b, pos: wrap64(a + b)),
    "-": (9, lambda a, b, pos: wrap64(a - b)),
    "*": (10, lambda a, b, pos: wrap64(a * b)),
    "/": (10, lambda a, b, pos: wrap64(_trunc_div(a, b))
          if b else _raise(EvalError("division by zero", pos))),
    "%": (10, lambda a, b, pos: wrap64(a - _trunc_div(a, b) * b)
          if b else _raise(EvalError("modulo by zero", pos))),
}


def failing(cls, message: str, pos: Position) -> Expr:
    """An expression that raises cls(message, pos) each time it runs."""
    return lambda lookup: _raise(cls(message, pos))


def _fetch(name: str, pos: Position) -> Expr:
    def fetch(lookup):
        value = lookup(name)
        if value is None:
            raise UnresolvedNameError(name, pos)
        return value

    return fetch


def _unary(tok: Token, operand: Expr) -> Expr:
    op, pos = tok.text, tok.pos
    if op == "!":
        return lambda lookup: 0 if truthy(operand(lookup)) else 1
    f = operator.invert if op == "~" else operator.neg

    def apply(lookup):
        v = operand(lookup)
        if not isinstance(v, int):
            raise EvalError(f"operator '{op}' needs an integer operand", pos)
        return wrap64(f(v))

    return apply


def _step(tok: Token, fault: Optional[Expr]):
    """One binary operator as step(left value, right, lookup) -> value;
    the step runs its right operand itself.  fault raises the parse fault
    inside the right operand, if it holds one."""
    op, pos = tok.text, tok.pos
    f = _BINARY[op][1]
    if f is None:  # '&&' or '||'
        go_on = op == "&&"  # the truth of the left side that reads on

        def logical(a, right, lookup):
            if truthy(a) is go_on:
                return 1 if truthy(right(lookup)) else 0
            if fault is not None:
                fault(lookup)
            return 0 if go_on else 1

        return logical
    if op == "+":
        message = "operator '+' needs two integers or two strings"
    else:
        message = f"operator '{op}' needs integer operands"

    def arith(a, right, lookup):
        b = right(lookup)
        if isinstance(a, int) and isinstance(b, int):
            return f(a, b, pos)
        if op == "+" and isinstance(a, str) and isinstance(b, str):
            return a + b
        raise EvalError(message, pos)

    return arith


def _chain(first: Expr, steps: list) -> Expr:
    """first, then each (step, right) of one precedence run in turn."""
    if not steps:
        return first

    def chain(lookup):
        value = first(lookup)
        for step, right in steps:
            value = step(value, right, lookup)
        return value

    return chain


# a step that runs its right operand only for its faults: it follows a
# complete expression with the parse fault that comes after it
_THEN = lambda a, right, lookup: right(lookup)  # noqa: E731


class _Compiler:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        # raises the parse fault once the parse has stopped at one
        self.fault: Optional[Expr] = None
        # every name read, in a skipped side too
        self.names: dict[str, None] = {}

    def here(self) -> Position:
        tokens = self.tokens
        return tokens[min(self.i, len(tokens) - 1)].pos if tokens else NO_POS

    def stop(self, message: str, pos=None, cls=EvalError) -> Expr:
        """End the parse at a fault; returns the node that raises it."""
        self.fault = failing(cls, message, pos or self.here())
        return self.fault

    def too_deep(self) -> Expr:
        message = f"expression nesting exceeds {MAX_NESTING} levels"
        return self.stop(message, cls=LimitError)

    # -- grammar --

    def expression(self, min_prec: int = 1) -> Expr:
        self.depth += 1
        if self.depth > MAX_NESTING:
            return self.too_deep()
        first = self.unary()
        steps = []
        tokens = self.tokens
        while self.fault is None and self.i < len(tokens):
            tok = tokens[self.i]
            if tok.kind is not TokenKind.OPERATOR:
                break
            prec = _BINARY.get(tok.text, (0,))[0]  # 0: not binary
            if prec < min_prec:
                break
            self.i += 1
            right = self.expression(prec + 1)
            steps.append((_step(tok, self.fault), right))
        self.depth -= 1
        return _chain(first, steps)

    def unary(self) -> Expr:
        if self.i < len(self.tokens):
            tok = self.tokens[self.i]
            if tok.kind is TokenKind.OPERATOR and tok.text in _UNARY:
                self.depth += 1
                if self.depth > MAX_NESTING:
                    return self.too_deep()
                self.i += 1
                operand = self.unary()
                self.depth -= 1
                return _unary(tok, operand)
        return self.primary()

    def primary(self) -> Expr:
        tokens = self.tokens
        if self.i >= len(tokens):
            return self.stop("expected a value")
        tok = tokens[self.i]
        self.i += 1
        if tok.kind is TokenKind.INTEGER:
            value = wrap64(tok.value)
            return lambda lookup: value
        if tok.kind is TokenKind.STRING:
            text = tok.string_text
            return lambda lookup: text
        if tok.is_punct("("):
            inner = self.expression()
            if self.fault is None:
                if self.i < len(tokens) and tokens[self.i].is_punct(")"):
                    self.i += 1
                else:
                    inner = _chain(inner, [(_THEN, self.stop("missing ')'"))])
            return inner
        if tok.kind is TokenKind.IDENTIFIER:
            start = self.i - 1
            self.i = dotted_name_end(tokens, start)
            name = tok.text
            if self.i > start + 1:
                name = dotted_name(tokens[start : self.i])
            self.names[name] = None
            return _fetch(name, tok.pos)
        return self.stop(f"unexpected '{tok.text}'", tok.pos)


_NO_NAMES: Lookup = {}.get


def compile_expr(tokens) -> Expr:
    """Compile a token sequence as one expression, whole."""
    c = _Compiler(tokens)
    if not tokens:
        return c.stop("expected an expression")
    node = c.expression()
    if c.fault is None and c.i < len(tokens):
        fault = c.stop(f"unexpected '{tokens[c.i].text}'")
        node = _chain(node, [(_THEN, fault)])
    return node


def evaluate(tokens, lookup: Lookup | None = None) -> Value:
    """Evaluate a token sequence as one expression, whole."""
    return compile_expr(tokens)(lookup or _NO_NAMES)


def split_values(tokens) -> tuple[list, Optional[Expr]]:
    """Compile a value list: expressions, optionally comma separated,
    each taking the longest parse it can.

    Returns (values, fault).  values holds one (closure, end, names) per
    value: the closure is None for a bare '?' (one default-valued unit),
    end is the index just past the value's tokens and names are the
    names it reads, in a skipped side too.  A parse fault ends the list,
    inside the last closure or, after a trailing ',', as the last closure
    itself; fault raises it alone, without running anything before it.
    """
    c = _Compiler(tokens)
    values: list = []
    while c.i < len(tokens):
        c.names = {}
        if tokens[c.i].is_punct("?"):
            c.i += 1
            values.append((None, c.i, ()))
        else:
            values.append((c.expression(), c.i, tuple(c.names)))
        if c.fault is not None or c.i >= len(tokens):
            break
        if tokens[c.i].is_punct(","):
            c.i += 1
            if c.i >= len(tokens):
                values.append((c.stop("expected a value after ','"), c.i, ()))
    return values, c.fault


def compile_values(tokens) -> Callable[[Lookup], list[Value]]:
    """Compile a value list whose values are evaluated in order, each as
    if before the next is read; a bare '?' is an unexpected token here."""
    fns = [
        fn or failing(EvalError, "unexpected '?'", tokens[end - 1].pos)
        for fn, end, _ in split_values(tokens)[0]
    ]
    return lambda lookup: [fn(lookup) for fn in fns]


__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "Lookup",
    "Value",
    "compile_expr",
    "compile_values",
    "evaluate",
    "failing",
    "split_values",
    "truthy",
    "wrap64",
]
