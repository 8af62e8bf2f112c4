"""Independent reference implementations used only by the tests.

Nothing in here imports gtrans.  Each oracle re-derives its answer by a
different route than the package (a throwaway regex scanner plus an AST
walker for expressions, a separate sizing walk for label layout,
exhaustive enumeration for splits and guard subsets, every separator
placed before any parameter is bound) so agreement between the two is
meaningful.
"""

import re

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def wrap64(v):
    return ((v + 2**63) % 2**64) - 2**63


class OracleError(Exception):
    pass


# --- expression oracle: regex scanner -> AST -> tree walk ---------------

_TOKEN_RE = re.compile(
    r"""\s+
      | 0[xX][0-9a-fA-F]+
      | \d+
      | '[^']'
      | "[^"]*"
      | [A-Za-z_][A-Za-z0-9_]*
      | <= | >= | != | <> | && | \|\| | << | >>
      | [-+*/%<>=!&|^~()]
    """,
    re.VERBOSE,
)


def _oracle_scan(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise OracleError("bad char %r" % text[pos])
        t = m.group()
        pos = m.end()
        if not t.strip():
            continue
        toks.append("!=" if t == "<>" else t)
    return toks


class _Parser:
    """Recursive descent, one function per precedence level."""

    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise OracleError("unexpected end")
        self.i += 1
        return t

    def parse(self):
        node = self.p_or()
        if self.peek() is not None:
            raise OracleError("trailing %r" % self.peek())
        return node

    def _left_chain(self, ops, below):
        node = below()
        while self.peek() in ops:
            op = self.take()
            node = ("bin", op, node, below())
        return node

    def p_or(self):
        return self._left_chain({"||"}, self.p_and)

    def p_and(self):
        return self._left_chain({"&&"}, self.p_bor)

    def p_bor(self):
        return self._left_chain({"|"}, self.p_bxor)

    def p_bxor(self):
        return self._left_chain({"^"}, self.p_band)

    def p_band(self):
        return self._left_chain({"&"}, self.p_eq)

    def p_eq(self):
        return self._left_chain({"=", "!="}, self.p_rel)

    def p_rel(self):
        return self._left_chain({"<", "<=", ">", ">="}, self.p_shift)

    def p_shift(self):
        return self._left_chain({"<<", ">>"}, self.p_add)

    def p_add(self):
        return self._left_chain({"+", "-"}, self.p_mul)

    def p_mul(self):
        return self._left_chain({"*", "/", "%"}, self.p_unary)

    def p_unary(self):
        if self.peek() in ("!", "~", "-"):
            op = self.take()
            return ("un", op, self.p_unary())
        return self.p_primary()

    def p_primary(self):
        t = self.take()
        if t == "(":
            node = self.p_or()
            if self.take() != ")":
                raise OracleError("missing )")
            return node
        if re.fullmatch(r"0[xX][0-9a-fA-F]+", t):
            return ("int", wrap64(int(t, 16)))
        if t.isdigit():
            return ("int", wrap64(int(t)))
        if t.startswith("'"):
            return ("int", ord(t[1]))
        if t.startswith('"'):
            return ("str", t[1:-1])
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", t):
            return ("name", t)
        raise OracleError("unexpected %r" % t)


def _truthy(v):
    if isinstance(v, str):
        return v != ""
    return v != 0


def _need_int(v):
    if not isinstance(v, int):
        raise OracleError("wanted int")
    return v


def _trunc_div(a, b):
    if b == 0:
        raise OracleError("division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _eval_node(node, env):
    tag = node[0]
    if tag == "int":
        return node[1]
    if tag == "str":
        return node[1]
    if tag == "name":
        if node[1] not in env:
            raise OracleError("undefined %s" % node[1])
        return env[node[1]]
    if tag == "un":
        op = node[1]
        if op == "!":
            return 0 if _truthy(_eval_node(node[2], env)) else 1
        v = _need_int(_eval_node(node[2], env))
        if op == "~":
            return wrap64(~v)
        return wrap64(-v)
    op = node[1]
    if op == "&&":
        if not _truthy(_eval_node(node[2], env)):
            return 0
        return 1 if _truthy(_eval_node(node[3], env)) else 0
    if op == "||":
        if _truthy(_eval_node(node[2], env)):
            return 1
        return 1 if _truthy(_eval_node(node[3], env)) else 0
    a = _eval_node(node[2], env)
    b = _eval_node(node[3], env)
    if op == "+":
        if isinstance(a, str) and isinstance(b, str):
            return a + b
        return wrap64(_need_int(a) + _need_int(b))
    if isinstance(a, str) or isinstance(b, str):
        raise OracleError("string operand for %s" % op)
    if op == "-":
        return wrap64(a - b)
    if op == "*":
        return wrap64(a * b)
    if op == "/":
        return wrap64(_trunc_div(a, b))
    if op == "%":
        if b == 0:
            raise OracleError("modulo by zero")
        return wrap64(a - _trunc_div(a, b) * b)
    if op == "<<":
        if not 0 <= b <= 63:
            raise OracleError("bad shift")
        return wrap64(a << b)
    if op == ">>":
        if not 0 <= b <= 63:
            raise OracleError("bad shift")
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
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">":
        return 1 if a > b else 0
    if op == ">=":
        return 1 if a >= b else 0
    raise OracleError("unknown op %r" % op)


def oracle_eval(text, env=None):
    """Evaluate an expression string.  Raises OracleError on any fault."""
    return _eval_node(_Parser(_oracle_scan(text)).parse(), env or {})


# --- layout oracle: offsets first, then bytes --------------------------

_UNIT_SIZES = {"db": 1, "dw": 2, "dd": 4, "rb": 1}


def _unlabeled(line):
    """(label, line without it) of 'name db ...'; (None, line) otherwise."""
    head, _, rest = line.partition(" ")
    if rest.partition(" ")[0] in _UNIT_SIZES:
        return head, rest
    return None, line


def oracle_layout(lines):
    """Bytes and label offsets of a straight-line program.

    Lines are 'name :', 'db|dw|dd e, ...', 'rb n, e' with a literal n,
    either of those two after a label name, and 'v = e'.  A label takes
    the offset of its line's first unit.  A first walk only counts units,
    which fixes every label; a second walk evaluates each value against
    the variables assigned so far and the complete label table, like a
    classic two-pass assembler.  Raises OracleError on any fault.
    """
    labels = {}
    offset = 0
    for line in lines:
        label, line = _unlabeled(line)
        if label is not None:
            labels[label] = offset
        head, _, rest = line.partition(" ")
        if rest == ":":
            labels[head] = offset
        elif head == "rb":
            offset += int(rest.split(",")[0])
        elif head in _UNIT_SIZES:
            offset += _UNIT_SIZES[head] * len(rest.split(","))
    env = dict(labels)
    out = bytearray()
    for line in lines:
        head, _, rest = _unlabeled(line)[1].partition(" ")
        if rest.startswith("= "):
            env[head] = oracle_eval(rest[2:], env)
        elif head in _UNIT_SIZES:
            size = _UNIT_SIZES[head]
            if head == "rb":
                count, fill = rest.split(",")
                units = [oracle_eval(fill, env)] * int(count)
            else:
                units = [oracle_eval(text, env) for text in rest.split(",")]
            for v in units:
                out += (v % (1 << (8 * size))).to_bytes(size, "little")
    return bytes(out), labels


# --- split oracle: exhaustive search over separator positions -----------

_OPEN = {"(", "[", "{"}
_CLOSE = {")", "]", "}"}


def own_depths(texts):
    """Depth of each token: markers sit at the depth of their own pair."""
    out = []
    depth = 0
    for t in texts:
        if t in _OPEN:
            out.append(depth)
            depth += 1
        elif t in _CLOSE:
            depth -= 1
            out.append(depth)
        else:
            out.append(depth)
    return out


def top_level_positions(texts, sep):
    """All start indices where the separator run matches at depth zero."""
    depths = own_depths(texts)
    hits = []
    for s in range(len(texts) - len(sep) + 1):
        if all(
            texts[s + j] == sep[j] and depths[s + j] == 0
            for j in range(len(sep))
        ):
            hits.append(s)
    return hits


def rightmost_binary_split(texts, op):
    """Split arg texts at the rightmost top-level op.  None if absent."""
    hits = top_level_positions(texts, [op])
    if not hits:
        return None
    s = hits[-1]
    return texts[:s], texts[s + 1 :]


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def oracle_match(pattern_texts, arg_texts):
    """Bind a fixed pattern (no '..') to argument texts, or None.

    The pattern is cut into separator runs, with a parameter run, maybe
    empty, before, between and after them.  Every separator is placed
    first, right to left, each at its rightmost top-level position that
    ends at or before the one placed after it; a separator with no
    parameter after it must end the arguments, one with none before it
    must start them.  No placement is revisited.  Then each parameter run
    takes its segment: one token for each name but the last, which takes
    the rest, so an empty run takes only an empty segment.
    """
    runs, seps = [[]], []
    for t in pattern_texts:
        if _NAME_RE.fullmatch(t):
            runs[-1].append(t)
        elif seps and not runs[-1]:
            seps[-1].append(t)  # separator tokens in a row form one run
        else:
            seps.append([t])
            runs.append([])
    hi = len(arg_texts)
    cuts = []
    for i in reversed(range(len(seps))):
        width = len(seps[i])
        fits = [
            p for p in top_level_positions(arg_texts, seps[i]) if p + width <= hi
        ]
        if i == len(seps) - 1 and not runs[-1]:
            fits = [p for p in fits if p + width == hi]
        elif i == 0 and not runs[0]:
            fits = [p for p in fits if p == 0]
        if not fits:
            return None
        hi = fits[-1]
        cuts[:0] = [hi, hi + width]
    bounds = [0, *cuts, len(arg_texts)]
    binding = {}
    for run, lo, hi in zip(runs, bounds[::2], bounds[1::2]):
        seg = arg_texts[lo:hi]
        if len(seg) < len(run) or (seg and not run):
            return None
        for k, name in enumerate(run):
            binding[name] = seg[k:] if k == len(run) - 1 else seg[k : k + 1]
    return binding


# --- guard oracle: enumerate every inclusion subset ----------------------


def consistent_guard_subsets(guard_names, refs_under):
    """All subsets S with S == {g : g is referenced when S is included}.

    refs_under(frozenset) must return the set of names referenced by the
    stream when exactly that subset of guarded regions is kept.  A line
    is kept only when every region covering it is kept.
    """
    names = list(guard_names)
    out = []
    for bits in range(2 ** len(names)):
        s = frozenset(n for k, n in enumerate(names) if bits >> k & 1)
        kept = frozenset(g for g in names if g in refs_under(s))
        if kept == s:
            out.append(s)
    return out


def largest_consistent_subset(guard_names, refs_under):
    subsets = consistent_guard_subsets(guard_names, refs_under)
    if not subsets:
        raise OracleError("no consistent subset")
    best = max(subsets, key=len)
    for s in subsets:
        if not s <= best:
            raise OracleError("maximal subset is not unique")
    return best


def visible_after_guards(covers, guard_lines, included):
    """Indices of the lines that guard elimination keeps.

    covers[k] holds the name of every region covering line k, its own
    '@if [name]' and '@endif' included.  A line stays when each of those
    names is included and it is not a guard line of some region.
    """
    return [
        k
        for k, cover in enumerate(covers)
        if set(cover) <= set(included) and k not in guard_lines
    ]
