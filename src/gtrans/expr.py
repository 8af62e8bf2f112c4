"""Expression evaluation over token sequences.

Values are signed 64-bit integers (wrapped after every operation) or
strings.  The operator set and precedence follow C, with two departures:
'=' is equality inside an expression (assignment is a line shape, not an
operator) and strings support only '+' on two strings.  Comparisons are
defined for integers only.

An expression compiles into a tree of closures (Feeley and Lapalme,
"Using closures for code generation", 1987) in two stages.  The parse
stage, precedence climbing, reads only the tokens' shape: each operator
and punctuation token's text, every other token's kind.  The shape
decides the tree, where each value ends, which leaves are literals or
names and every fault's token index, so _SHAPES keeps the parse's
builders per shape; they hold token indices, no token, and the table is
cleared when it would pass _MAX_SHAPES.  The build stage makes the
closures from each token list's own values, texts, names and positions.
Compiling never raises.  A parse fault, or nesting past MAX_NESTING,
becomes a node that raises it where the parser stopped, so running the
tree raises the faults read before it first, in reading order.  A
skipped side of '&&'/'||' is not run, so its value faults stay silent,
but a parse fault in it still raises.  A run of operators of one
precedence compiles to one loop.  Each step is a closure picked by its
operator's class: it wraps its result, a comparison returns 1 or 0, '/'
and '%' truncate and '<<' and '>>' check their count, all inline.  An
integer literal right operand is held, neither run nor type-tested.
Results are never bools, and a condition is tested by Python's truth:
zero and "" are false (README).
"""

from __future__ import annotations

import operator
from functools import partial
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
# level.  A level costs the parse at most three Python frames, a build
# and a compiled tree two each when they run, so 200 levels stay well
# inside the interpreter's default recursion limit.
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


def _number(at: int, toks) -> Expr:
    v = toks[at].value  # a lexer value is never negative
    value = v if v <= INT64_MAX else wrap64(v)
    return lambda lookup: value


def _string(at: int, toks) -> Expr:
    text = toks[at].string_text
    return lambda lookup: text


def _fetch(start: int, end: int, toks) -> Expr:
    tok = toks[start]
    name = tok.text if end == start + 1 else dotted_name(toks[start:end])

    def fetch(lookup):
        value = lookup(name)
        if value is None:
            raise EvalError(f"undefined name '{name}'", tok.pos)
        return value

    return fetch


def _texts(toks, spans) -> tuple:
    """The distinct names spans of toks spell, in first-read order."""
    return tuple(dict.fromkeys([
        toks[s].text if e == s + 1 else dotted_name(toks[s:e]) for s, e in spans
    ]))


def _unary(tok: Token, operand: Expr) -> Expr:
    op = tok.text
    if op == "!":
        return lambda lookup: 0 if operand(lookup) else 1
    f = operator.invert if op == "~" else operator.neg

    def apply(lookup):
        v = operand(lookup)
        if not isinstance(v, int):
            raise EvalError(f"operator '{op}' needs an integer operand", tok.pos)
        return wrap64(f(v))

    return apply


def _operands(tok: Token) -> EvalError:
    """The fault of binary operator tok given an operand it cannot take."""
    op = tok.text
    need = "two integers or two strings" if op == "+" else "integer operands"
    return EvalError(f"operator '{op}' needs {need}", tok.pos)


# One factory per operator class builds the step of binary operator tok,
# step(left value, lookup) -> value, which runs right itself, or with
# right None takes literal, the integer literal right is.  f is the
# operator's function, if any; fault raises the parse fault inside right.


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
        b = literal if right is None else right(lookup)
        if isinstance(a, int) and (right is None or isinstance(b, int)):
            v = f(a, b)
            return v if INT64_MIN <= v <= INT64_MAX else wrap64(v)
        if f is operator.add and isinstance(a, str) and isinstance(b, str):
            return a + b
        raise _operands(tok)

    return arith


def _compare(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    def compare(a, lookup):
        b = literal if right is None else right(lookup)
        if isinstance(a, int) and (right is None or isinstance(b, int)):
            return 1 if f(a, b) else 0
        raise _operands(tok)

    return compare


def _shift(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    def shift(a, lookup):
        b = literal if right is None else right(lookup)
        if isinstance(a, int) and (right is None or isinstance(b, int)):
            if 0 <= b <= 63:
                v = f(a, b)
                return v if INT64_MIN <= v <= INT64_MAX else wrap64(v)
            raise EvalError("shift count out of range", tok.pos)
        raise _operands(tok)

    return shift


def _divide(tok: Token, f, right: Expr, literal, fault: Optional[Expr]):
    def divide(a, lookup):
        b = literal if right is None else right(lookup)
        if isinstance(a, int) and (right is None or isinstance(b, int)):
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
        b = literal if right is None else right(lookup)
        if isinstance(a, int) and (right is None or isinstance(b, int)):
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


def _chained(first, steps: tuple):
    """The builder of first, then each step of one precedence run: (factory,
    operator index, f, right's builder or None, held, fault's builder)."""
    def build(toks):
        head = first(toks)
        built = [make(toks[at], f, right and right(toks),
                      held and wrap64(toks[held].value), fault and fault(toks))
                 for make, at, f, right, held, fault in steps]
        if len(built) == 1:
            (step,) = built
            return lambda lookup: step(head(lookup), lookup)

        def chain(lookup):
            value = head(lookup)
            for step in built:
                value = step(value, lookup)
            return value

        return chain

    return build


class _Compiler:
    """The parse stage: it returns builders, build(tokens) -> Expr."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.fault = None  # builds the parse fault once it stopped at one
        # spans of every name read, in a skipped side too, and those always
        self.names, self.reads = [], []

    def stop(self, message: str, at=None, cls=EvalError):
        """End the parse at a fault at token index at, or where it is;
        returns the fault's builder.  '{}' is that token's text."""
        k = min(self.i, len(self.tokens) - 1) if at is None else at
        self.fault = lambda toks: failing(cls, message.format(toks[k].text), toks[k].pos)
        return self.fault

    def too_deep(self):
        message = f"expression nesting exceeds {MAX_NESTING} levels"
        return self.stop(message, cls=LimitError)

    def followed(self, node, message: str):
        """The builder of node, then the parse fault message, where it is."""
        fault = self.stop(message)

        def build(toks):
            head, stop = node(toks), fault(toks)
            return lambda lookup: (head(lookup), stop(lookup))  # stop raises

        return build

    # -- grammar --

    def expression(self, min_prec: int = 1):
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
            at = self.i
            self.i = start = at + 1
            held = None  # the index of an integer literal right operand
            if prec > 2:
                right = self.expression(prec + 1)
                if self.i == start + 1 and tokens[start].kind is TokenKind.INTEGER:
                    right, held = None, start
            else:  # a side '&&' or '||' may skip: its names are not reads
                reads, self.reads = self.reads, []
                right = self.expression(prec + 1)
                self.reads = reads
            steps.append((make, at, f, right, held, self.fault))
        self.depth -= 1
        return _chained(first, tuple(steps)) if steps else first

    def unary(self):
        if self.i < len(self.tokens):
            tok = self.tokens[self.i]
            if tok.kind is TokenKind.OPERATOR and tok.text in _UNARY:
                self.depth += 1
                if self.depth > MAX_NESTING:
                    return self.too_deep()
                at = self.i
                self.i += 1
                operand = self.unary()
                self.depth -= 1
                return lambda toks: _unary(toks[at], operand(toks))
        return self.primary()

    def primary(self):
        tokens = self.tokens
        if self.i >= len(tokens):
            return self.stop("expected a value")
        at = self.i
        tok = tokens[at]
        self.i += 1
        if tok.kind is TokenKind.INTEGER:
            return partial(_number, at)
        if tok.kind is TokenKind.STRING:
            return partial(_string, at)
        if tok.is_punct("("):
            inner = self.expression()
            if self.fault is None:
                if self.i < len(tokens) and tokens[self.i].is_punct(")"):
                    self.i += 1
                else:
                    inner = self.followed(inner, "missing ')'")
            return inner
        if tok.kind is TokenKind.IDENTIFIER:
            self.i = dotted_name_end(tokens, at)
            self.names.append((at, self.i))
            self.reads.append((at, self.i))
            return partial(_fetch, at, self.i)
        return self.stop("unexpected '{}'", at)


_SHAPES: dict = {}  # (parse stage, *shape): what it made of that shape
_MAX_SHAPES = 256
_OPERATOR = TokenKind.OPERATOR


def _recipe(parse, tokens):
    """parse(_Compiler(tokens)), kept per shape of tokens."""
    key = (parse, *[t.text if t.kind >= _OPERATOR else t.kind for t in tokens])
    recipe = _SHAPES.get(key)
    if recipe is None:
        if len(_SHAPES) >= _MAX_SHAPES:
            _SHAPES.clear()
        recipe = _SHAPES[key] = parse(_Compiler(tokens))
    return recipe


def _whole(c: _Compiler):
    node = c.expression()
    if c.fault is None and c.i < len(c.tokens):
        node = c.followed(node, "unexpected '{}'")
    return node


_NO_NAMES: Lookup = {}.get


def compile_expr(tokens) -> Expr:
    """Compile a token sequence as one expression, whole."""
    if not tokens:
        return failing(EvalError, "expected an expression", NO_POS)
    return _recipe(_whole, tokens)(tokens)


def evaluate(tokens, lookup: Lookup | None = None) -> Value:
    """Evaluate a token sequence as one expression, whole."""
    return compile_expr(tokens)(lookup or _NO_NAMES)


def _value_list(c: _Compiler):
    """split_values' parse stage: per value, its builder (None for '?'),
    end, name spans and read spans (None: the same); the fault's builder."""
    tokens, values = c.tokens, []
    while c.i < len(tokens):
        c.names, c.reads = [], []
        question = tokens[c.i].is_punct("?")
        c.i += question
        value = None if question else c.expression()
        reads = None if c.reads == c.names else tuple(c.reads)
        values.append((value, c.i, tuple(c.names), reads))
        if c.fault is not None or c.i >= len(tokens):
            break
        if tokens[c.i].is_punct(","):
            c.i += 1
            if c.i >= len(tokens):
                fault = c.stop("expected a value after ','")
                values.append((fault, c.i, (), None))
    return tuple(values), c.fault


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
    anything before it.  The ends, trees, name spans and fault tokens are
    the shape's, parsed once; values, texts, names, positions the list's.
    """
    recipe, fault = _recipe(_value_list, tokens)
    values = []
    for build, end, names, reads in recipe:
        names = names and _texts(tokens, names)
        reads = names if reads is None else reads and _texts(tokens, reads)
        values.append((build and build(tokens), end, names, reads))
    return values, fault and fault(tokens)


def computed(fn, tokens, end) -> Callable[[Lookup], Value]:
    """The closure of a value that split_values(tokens) ended at end, in
    a place where a value must be computed: for a bare '?' (fn None), one
    that raises 'unexpected' at the '?'."""
    return fn or failing(EvalError, "unexpected '?'", tokens[end - 1].pos)


def compile_values(tokens) -> Callable[[Lookup], list[Value]]:
    """Compile a value list whose values are evaluated in order, each as
    if before the next is read; a bare '?' is an unexpected token here."""
    fns = [computed(fn, tokens, end) for fn, end, *_ in split_values(tokens)[0]]
    return lambda lookup: [fn(lookup) for fn in fns]


__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "Lookup",
    "Value",
    "compile_expr",
    "compile_values",
    "computed",
    "evaluate",
    "failing",
    "split_values",
    "wrap64",
]
