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
a long flat expression runs without deep recursion, and a run of one
step needs none.  Each step is a closure picked by its operator's class
as it compiles, so it runs no Python frame but its own: it wraps its
result, a comparison returns 1 or 0, '/' and '%' truncate and '<<' and
'>>' check their count, all inline.  An integer literal right operand
is a value the step holds, not a call.  Results are never bools, and a
condition is tested by Python's truth: zero and "" are false (README).
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Union

from .errors import EvalError, LimitError, NO_POS, Position
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


def _raise(exc: Exception):
    try:
        raise exc
    finally:
        del exc  # the traceback holds this frame: break the cycle


def failing(cls, message: str, pos: Position) -> Expr:
    """An expression that raises cls(message, pos) each time it runs."""
    return lambda lookup: _raise(cls(message, pos))


def _fetch(name: str, pos: Position) -> Expr:
    def fetch(lookup):
        value = lookup(name)
        if value is None:
            raise EvalError(f"undefined name '{name}'", pos)
        return value

    return fetch


def _unary(tok: Token, operand: Expr) -> Expr:
    op, pos = tok.text, tok.pos
    if op == "!":
        return lambda lookup: 0 if operand(lookup) else 1
    f = operator.invert if op == "~" else operator.neg

    def apply(lookup):
        v = operand(lookup)
        if not isinstance(v, int):
            raise EvalError(f"operator '{op}' needs an integer operand", pos)
        return wrap64(f(v))

    return apply


def _operands(tok: Token) -> EvalError:
    """The fault of binary operator tok given an operand it cannot take."""
    op = tok.text
    need = "two integers or two strings" if op == "+" else "integer operands"
    return EvalError(f"operator '{op}' needs {need}", tok.pos)


# One factory per operator class builds the step of binary operator tok,
# step(left value, lookup) -> value, which runs right itself unless
# literal holds the integer literal right is.  f is the operator's
# function, if any; fault raises the parse fault inside right, if any.


def _logical(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    reads_if_false = tok.text == "||"  # '||' runs right when a is false

    def logical(a, lookup):
        if (not a) is reads_if_false:
            return 1 if right(lookup) else 0
        if fault is not None:
            fault(lookup)
        return 1 if a else 0  # right is skipped: a decides

    return logical


def _arith(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    def arith(a, lookup):
        b = right(lookup) if literal is None else literal
        if isinstance(a, int) and isinstance(b, int):
            v = f(a, b)
            return v if INT64_MIN <= v <= INT64_MAX else wrap64(v)
        if f is operator.add and isinstance(a, str) and isinstance(b, str):
            return a + b
        raise _operands(tok)

    return arith


def _compare(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    def compare(a, lookup):
        b = right(lookup) if literal is None else literal
        if isinstance(a, int) and isinstance(b, int):
            return 1 if f(a, b) else 0
        raise _operands(tok)

    return compare


def _shift(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    def shift(a, lookup):
        b = right(lookup) if literal is None else literal
        if isinstance(a, int) and isinstance(b, int):
            if 0 <= b <= 63:
                v = f(a, b)
                return v if INT64_MIN <= v <= INT64_MAX else wrap64(v)
            raise EvalError("shift count out of range", tok.pos)
        raise _operands(tok)

    return shift


def _divide(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    def divide(a, lookup):
        b = right(lookup) if literal is None else literal
        if isinstance(a, int) and isinstance(b, int):
            if b:
                q = a // b  # rounded down: round toward zero instead
                if q < 0 and q * b != a:
                    return q + 1
                return q if q <= INT64_MAX else INT64_MIN  # MIN / -1
            raise EvalError("division by zero", tok.pos)
        raise _operands(tok)

    return divide


def _modulo(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    def modulo(a, lookup):
        b = right(lookup) if literal is None else literal
        if isinstance(a, int) and isinstance(b, int):
            if b:
                r = a % b  # takes b's sign: give it a's instead
                return r - b if r and (a ^ b) < 0 else r
            raise EvalError("modulo by zero", tok.pos)
        raise _operands(tok)

    return modulo


# each binary operator: (precedence, the factory of its step, f), one
# precedence level a line
_BINARY = {
    "||": (1, _logical, None),
    "&&": (2, _logical, None),
    "|": (3, _arith, operator.or_),
    "^": (4, _arith, operator.xor),
    "&": (5, _arith, operator.and_),
    "=": (6, _compare, operator.eq), "!=": (6, _compare, operator.ne),
    "<": (7, _compare, operator.lt), "<=": (7, _compare, operator.le),
    ">": (7, _compare, operator.gt), ">=": (7, _compare, operator.ge),
    "<<": (8, _shift, operator.lshift), ">>": (8, _shift, operator.rshift),
    "+": (9, _arith, operator.add), "-": (9, _arith, operator.sub),
    "*": (10, _arith, operator.mul), "/": (10, _divide, None),
    "%": (10, _modulo, None),
}


def _chain(first: Expr, steps: list) -> Expr:
    """first, then each step of one precedence run in turn."""
    if not steps:
        return first
    if len(steps) == 1:
        (step,) = steps
        return lambda lookup: step(first(lookup), lookup)

    def chain(lookup):
        value = first(lookup)
        for step in steps:
            value = step(value, lookup)
        return value

    return chain


def _then(fault: Expr):
    """A step that runs only fault: it follows a complete expression with
    the parse fault that comes after it."""
    return lambda a, lookup: fault(lookup)


class _Compiler:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        # raises the parse fault once the parse has stopped at one
        self.fault: Optional[Expr] = None
        # every name read, in a skipped side too, and those read always
        self.names: dict[str, None] = {}
        self.reads: dict[str, None] = {}

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
            prec, make, f = _BINARY.get(tok.text, (0, None, None))
            if prec < min_prec:
                break
            self.i += 1
            start = self.i
            if prec > 2:
                right = self.expression(prec + 1)
            else:  # a side '&&' or '||' may skip: its names are not reads
                reads, self.reads = self.reads, {}
                right = self.expression(prec + 1)
                self.reads = reads
            literal = None  # an integer literal right operand: its value
            if self.i == start + 1 and tokens[start].kind is TokenKind.INTEGER:
                v = tokens[start].value  # a lexer value is never negative
                literal = v if v <= INT64_MAX else wrap64(v)
            steps.append(make(tok, f, right, literal, self.fault))
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
            v = tok.value  # a lexer value is never negative
            value = v if v <= INT64_MAX else wrap64(v)
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
                    inner = _chain(inner, [_then(self.stop("missing ')'"))])
            return inner
        if tok.kind is TokenKind.IDENTIFIER:
            start = self.i - 1
            self.i = dotted_name_end(tokens, start)
            name = tok.text
            if self.i > start + 1:
                name = dotted_name(tokens[start : self.i])
            self.names[name] = self.reads[name] = None
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
        node = _chain(node, [_then(fault)])
    return node


def evaluate(tokens, lookup: Lookup | None = None) -> Value:
    """Evaluate a token sequence as one expression, whole."""
    return compile_expr(tokens)(lookup or _NO_NAMES)


def split_values(tokens) -> tuple[list, Optional[Expr]]:
    """Compile a value list: expressions, optionally comma separated,
    each taking the longest parse it can.

    Returns (values, fault).  values holds one (closure, end, names,
    reads) per value: the closure is None for a bare '?' (one
    default-valued unit), end is the index just past the value's tokens,
    names are the names it reads, in a skipped side too, and reads those
    outside the right side of every '&&' and '||'.  With one of reads
    undefined, the closure can only raise an EvalError.  A parse fault
    ends the list, inside the last closure or, after a trailing ',', as
    the last closure itself; fault raises it alone, without running
    anything before it.
    """
    c = _Compiler(tokens)
    values: list = []
    while c.i < len(tokens):
        c.names, c.reads = {}, {}
        if tokens[c.i].is_punct("?"):
            c.i += 1
            values.append((None, c.i, (), ()))
        else:
            value = c.expression()
            values.append((value, c.i, tuple(c.names), tuple(c.reads)))
        if c.fault is not None or c.i >= len(tokens):
            break
        if tokens[c.i].is_punct(","):
            c.i += 1
            if c.i >= len(tokens):
                fault = c.stop("expected a value after ','")
                values.append((fault, c.i, (), ()))
    return values, c.fault


def compile_values(tokens) -> Callable[[Lookup], list[Value]]:
    """Compile a value list whose values are evaluated in order, each as
    if before the next is read; a bare '?' is an unexpected token here."""
    fns = [
        fn or failing(EvalError, "unexpected '?'", tokens[end - 1].pos)
        for fn, end, *_ in split_values(tokens)[0]
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
    "wrap64",
]
