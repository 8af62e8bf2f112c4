"""Pattern class tests: parsing, matching, resolution, expansion."""

import random

import pytest

from gtrans.classes import (
    ClassTable,
    expand_calls,
    match,
    parse_pattern,
    splice,
)
from gtrans.engine import Limits
from gtrans.errors import LimitError, NO_POS, StructureError
from gtrans.lexer import TokenKind, render, tokenize, tokenize_lines
from gtrans.source_phase import run_source_phase

from oracles import oracle_match, rightmost_binary_split, top_level_positions


def toks(text):
    return tokenize(text)


def texts(tokens):
    return [t.text for t in tokens]


def define(table, header, body_lines, aliases=()):
    """header: 'name pattern...', body_lines: list of token strings."""
    head = toks(header)
    return table.define(
        head[0].text,
        head[1:],
        [toks(b) for b in body_lines],
        aliases,
        NO_POS,
    )


def bind_texts(binding):
    return {k: texts(v) for k, v in binding.items()}


# -- pattern parsing ------------------------------------------------------


def test_parse_simple_pattern():
    fixed, variadic = parse_pattern(toks("x + y"))
    assert fixed == ("x", ("+",), "y")
    assert variadic is None


def test_parse_merges_separator_runs():
    fixed, _ = parse_pattern(toks("x , := y"))
    assert fixed == ("x", (",", ":="), "y")


def test_parse_adjacent_params():
    fixed, _ = parse_pattern(toks("a b"))
    assert fixed == ("a", "b")


def test_parse_variadic():
    fixed, variadic = parse_pattern(toks("x , .. rest"))
    assert fixed == ("x", (",",))
    assert variadic == "rest"


@pytest.mark.parametrize(
    "pattern",
    ["x 5 y", 'x "lit"', "x { y", "x x", "x ..", ".. a b", "x .. a .. b"],
)
def test_parse_rejections(pattern):
    with pytest.raises(StructureError):
        parse_pattern(toks(pattern))


@pytest.mark.parametrize(
    "header, fault",
    [
        ("class f .. ,", "1:12: expected a parameter name after '..'"),
        ("class f x ..", "1:11: expected a parameter name after '..'"),
        ("class f x .. , x", "1:14: expected a parameter name after '..'"),
        ("class f x x", "1:11: duplicate parameter 'x'"),
        ("class f x .. x", "1:14: duplicate parameter 'x'"),
        ("class f x .. x y", "1:14: duplicate parameter 'x'"),
        ("class f x x .. x", "1:11: duplicate parameter 'x'"),
        ("class f .. a b", "1:14: nothing may follow the variadic parameter"),
        ("class f x .. y x", "1:16: nothing may follow the variadic parameter"),
    ],
)
def test_pattern_fault_order_and_position(header, fault):
    # the first faulty token of the header is the one reported
    lines = tokenize_lines(header + " { db 1 }\n", "t.s")
    with pytest.raises(StructureError) as exc:
        run_source_phase(lines, {}, ClassTable(), [], Limits())
    assert str(exc.value) == "t.s:" + fault


# -- matching -------------------------------------------------------------


def match_texts(pattern, args):
    table = ClassTable()
    cls = define(table, "T " + pattern if pattern else "T", ["x"])
    binding = match(cls, toks(args))
    return None if binding is None else bind_texts(binding)


def test_binary_match():
    assert match_texts("x + y", "a + b") == {"x": ["a"], "y": ["b"]}


def test_rightmost_split_gives_left_associativity():
    assert match_texts("x + y", "a + b + c") == {
        "x": ["a", "+", "b"],
        "y": ["c"],
    }


def test_separator_must_be_top_level():
    assert match_texts("x + y", "( a + b )") is None
    assert match_texts("x + y", "( a + b ) + c") == {
        "x": ["(", "a", "+", "b", ")"],
        "y": ["c"],
    }
    assert match_texts("x + y", "[ a + b ] + { c + d }") == {
        "x": ["[", "a", "+", "b", "]"],
        "y": ["{", "c", "+", "d", "}"],
    }


def test_parenthesized_form():
    assert match_texts("( x )", "( 3 + 4 )") == {"x": ["3", "+", "4"]}
    assert match_texts("( x )", "( )") is None       # parameters need a token
    assert match_texts("( x )", "3 + 4") is None


def test_params_need_at_least_one_token():
    assert match_texts("x + y", "+ b") is None
    assert match_texts("x + y", "a +") is None
    assert match_texts("x + y", "+") is None


def test_adjacent_params_take_one_then_rest():
    assert match_texts("a b", "N 26") == {"a": ["N"], "b": ["26"]}
    assert match_texts("a b", "N 1 + 2") == {"a": ["N"], "b": ["1", "+", "2"]}
    assert match_texts("a b c", "p q r s") == {
        "a": ["p"],
        "b": ["q"],
        "c": ["r", "s"],
    }
    assert match_texts("a b", "N") is None


def test_empty_pattern_matches_only_empty_args():
    assert match_texts("", "") == {}
    assert match_texts("", "x") is None


def test_anchored_edges():
    assert match_texts("x ;", "a b ;") == {"x": ["a", "b"]}
    assert match_texts("x ;", "a ; b") is None
    assert match_texts("; x", "; a b") == {"x": ["a", "b"]}
    assert match_texts("; x", "a ; b") is None


def test_multi_token_separator():
    assert match_texts("x - > y", "a - > b") == {"x": ["a"], "y": ["b"]}
    assert match_texts("x - > y", "a - b > c") is None


def test_no_backtracking():
    """Separator placement is committed right to left; a feasible split
    that needs an earlier occurrence is deliberately not found."""
    assert match_texts("x + y * z", "a * b + c") is None
    # the straightforward arrangement still matches
    assert match_texts("x + y * z", "a + b * c") == {
        "x": ["a"],
        "y": ["b"],
        "z": ["c"],
    }


def test_single_parameter_takes_everything():
    assert match_texts("x", "a + b * ( c )") == {
        "x": ["a", "+", "b", "*", "(", "c", ")"]
    }
    assert match_texts("x", "") is None


def test_variadic_tail():
    assert match_texts(".. rest", "") == {"rest": []}
    assert match_texts(".. rest", "a b c") == {"rest": ["a", "b", "c"]}
    assert match_texts("x .. rest", "a b c") == {"x": ["a"], "rest": ["b", "c"]}
    assert match_texts("x .. rest", "a") == {"x": ["a"], "rest": []}
    assert match_texts("x .. rest", "") is None


def test_variadic_prefix_is_leftmost():
    assert match_texts("x , .. rest", "a , b , c") == {
        "x": ["a"],
        "rest": ["b", ",", "c"],
    }
    assert match_texts("x , .. rest", "( a , b ) , c , d") == {
        "x": ["(", "a", ",", "b", ")"],
        "rest": ["c", ",", "d"],
    }


# -- resolution -----------------------------------------------------------


def test_newest_definition_wins():
    table = ClassTable()
    define(table, "Sum x + y", ["S1 ( x , y )"])
    define(table, "Sum x + y", ["S2 ( x , y )"])
    cls, binding, _ = table.resolve("Sum", toks("3 + 4"))
    assert render(cls.body[0]).startswith("S2")
    assert bind_texts(binding) == {"x": ["3"], "y": ["4"]}


def test_older_definition_is_fallback():
    table = ClassTable()
    define(table, "op x + y", ["plus"])
    define(table, "op x * y", ["times"])
    cls, _, _ = table.resolve("op", toks("1 + 2"))
    assert render(cls.body[0]) == "plus"
    cls, _, _ = table.resolve("op", toks("1 * 2"))
    assert render(cls.body[0]) == "times"
    assert table.resolve("op", toks("1 ^ 2")) is None


def test_precedence_from_definition_order():
    """Later definitions split first, so they bind more loosely."""
    table = ClassTable()
    define(table, "E x", ["atom ( x )"])
    define(table, "E x * y", ["mul ( x , y )"])
    define(table, "E x + y", ["add ( x , y )"])
    cls, binding, _ = table.resolve("E", toks("a * b + c"))
    assert render(cls.body[0]).startswith("add")
    assert bind_texts(binding) == {"x": ["a", "*", "b"], "y": ["c"]}
    cls, binding, _ = table.resolve("E", toks("a * b"))
    assert render(cls.body[0]).startswith("mul")


def test_aliases_resolve_to_same_definition():
    table = ClassTable()
    define(table, "add x + y", ["sum ( x , y )"], aliases=("plus", "sum2"))
    assert table.has_name("plus")
    cls, _, _ = table.resolve("plus", toks("1 + 2"))
    assert cls.name == "add"
    cls2, _, _ = table.resolve("sum2", toks("1 + 2"))
    assert cls2 is cls


# -- expansion ------------------------------------------------------------


def test_expand_body_splices_runs():
    table = ClassTable()
    cls = define(table, "E x + y", ["E ( x ) + E ( y )"])
    binding = match(cls, toks("a * b + c"))
    (line,) = [splice(body, binding) for body in cls.body]
    assert render(line) == "E ( a * b ) + E ( c )"


def test_expand_body_multi_line():
    table = ClassTable()
    cls = define(table, "two v", ["db v", "db v + 1"])
    binding = match(cls, toks("7"))
    lines = [splice(body, binding) for body in cls.body]
    assert [render(l) for l in lines] == ["db 7", "db 7 + 1"]


def test_expand_calls_single():
    table = ClassTable()
    define(table, "INC ( v )", ["v + 1"])
    out = expand_calls(toks("db INC ( 4 )"), table, budget=100)
    assert render(out) == "db 4 + 1"


def test_expand_calls_nested():
    table = ClassTable()
    define(table, "INC ( v )", ["v + 1"])
    out = expand_calls(toks("INC ( INC ( 4 ) )"), table, budget=100)
    assert render(out) == "4 + 1 + 1"


def test_expand_calls_leaves_non_matches():
    table = ClassTable()
    define(table, "INC ( v )", ["v + 1"])
    assert render(expand_calls(toks("OTHER ( 4 )"), table, 100)) == "OTHER ( 4 )"
    assert render(expand_calls(toks("INC ( )"), table, 100)) == "INC ( )"
    assert render(expand_calls(toks("INC ( 4"), table, 100)) == "INC ( 4"


def test_expand_calls_multi_line_body_fault():
    table = ClassTable()
    define(table, "two ( v )", ["db v", "db v"])
    with pytest.raises(StructureError):
        expand_calls(toks("db two ( 1 )"), table, 100)


def test_expand_calls_budget():
    table = ClassTable()
    define(table, "loop ( v )", ["loop ( v )"])
    with pytest.raises(LimitError):
        expand_calls(toks("loop ( 1 )"), table, budget=50)


def test_substitute_one_step():
    table = ClassTable()
    table.set_substitution("N", toks("26"))
    assert render(splice(toks("db N"), table.substitutions)) == "db 26"
    assert render(splice(toks("db M"), table.substitutions)) == "db M"


def test_substitute_mutual_is_one_step():
    table = ClassTable()
    table.set_substitution("A", toks("B"))
    table.set_substitution("B", toks("A"))
    assert render(splice(toks("A"), table.substitutions)) == "B"
    assert render(splice(toks("B"), table.substitutions)) == "A"


def test_splice_without_runs_is_its_tokens():
    line = toks("db N")
    assert splice(line, {}) is line


def test_substitute_skips_strings():
    table = ClassTable()
    table.set_substitution("N", toks("26"))
    assert render(splice(toks('db "N"'), table.substitutions)) == 'db "N"'


# -- randomized cross-check against the enumeration oracle ----------------

_ATOMS = ["a", "b", "c", "1", "2"]


def _soup(rng, depth=2):
    """Random argument text with balanced bracket groups."""
    parts = []
    for _ in range(rng.randrange(1, 6)):
        roll = rng.random()
        if roll < 0.55 or depth == 0:
            parts.append(rng.choice(_ATOMS))
        elif roll < 0.8:
            parts.append(rng.choice(["+", "*", ",", "-"]))
        else:
            opener, closer = rng.choice([("(", ")"), ("[", "]")])
            parts.append(opener + " " + _soup(rng, depth - 1) + " " + closer)
    return " ".join(parts)


def _chain(rng, op, depth=2):
    """Alternating units and operators, the target op favoured."""

    def unit(d):
        if d == 0 or rng.random() < 0.6:
            return rng.choice(_ATOMS)
        opener, closer = rng.choice([("(", ")"), ("[", "]")])
        return opener + " " + seq(d - 1) + " " + closer

    def seq(d):
        parts = [unit(d)]
        for _ in range(rng.randrange(0, 3)):
            parts.append(rng.choice([op, op, "+", "*", ",", "-"]))
            parts.append(unit(d))
        return " ".join(parts)

    return seq(depth)


def test_binary_split_matches_oracle():
    rng = random.Random(5512)
    table = ClassTable()
    checked_matches = 0
    checked_rejects = 0
    by_op = {}
    for i, op in enumerate(("+", "*", ",")):
        by_op[op] = define(table, "C%d x %s y" % (i, op), ["x"])
    for _ in range(300):
        op = rng.choice(["+", "*", ","])
        cls = by_op[op]
        raw = _chain(rng, op) if rng.random() < 0.8 else _soup(rng)
        args = toks(raw)
        got = match(cls, args)
        expect = rightmost_binary_split(texts(args), op)
        if expect is None or not expect[0] or not expect[1]:
            assert got is None, "matched where oracle saw no valid split"
            checked_rejects += 1
        else:
            assert got is not None, "missed split %r" % (expect,)
            assert texts(got["x"]) == expect[0]
            assert texts(got["y"]) == expect[1]
            checked_matches += 1
    assert checked_matches > 80
    assert checked_rejects > 30


def test_top_level_scan_agrees_with_oracle():
    rng = random.Random(99)
    from gtrans.classes import _iter_depths

    for _ in range(200):
        args = toks(_soup(rng))
        depths = list(_iter_depths(args))
        for op in ("+", "*"):
            mine = [
                i
                for i in range(len(args))
                if args[i].text == op and depths[i] == 0
            ]
            assert mine == top_level_positions(texts(args), [op])


# -- fixed patterns of any shape against the placement oracle -----------

# multi-token, bracket and repeated separators; each may lead or trail
_SEPS = ["+", "*", ",", ", ,", "- >", "<<", ":", "(", ")", "[", "]", "( ["]


def _fixed_pattern(rng):
    """Alternating parameter runs and separators, either kind first."""
    parts, names = [], iter("pqrstuvwxyz")
    param_turn = rng.random() < 0.6
    for _ in range(rng.randrange(1, 6)):
        if param_turn:
            parts += [next(names) for _ in range(rng.choice([1, 1, 1, 2, 3]))]
        else:
            parts.append(rng.choice(_SEPS))
        param_turn = not param_turn
    return " ".join(parts)


def _args_for(rng, pattern):
    """Arguments shaped like the pattern, then often disturbed."""
    parts = []
    for t in pattern.split(" "):
        if t.isalpha():
            parts += [
                _soup(rng, 1) if rng.random() < 0.3 else rng.choice(_ATOMS)
                for _ in range(rng.choice([1, 1, 2, 3]))
            ]
        else:
            parts.append(t)
    if rng.random() < 0.5:
        at = rng.randrange(len(parts) + 1)
        roll = rng.random()
        if roll < 0.4 and at < len(parts):
            del parts[at]
        elif roll < 0.8:
            parts.insert(at, rng.choice(_SEPS + _ATOMS))
        else:
            parts.insert(at, "( " + rng.choice(_SEPS) + " )")
    return " ".join(parts)


def test_fixed_patterns_match_placement_oracle():
    rng = random.Random(31337)
    matches = rejects = 0
    for _ in range(250):
        pattern = _fixed_pattern(rng)
        table = ClassTable()
        cls = define(table, "F " + pattern, ["x"])
        for _ in range(12):
            args = toks(_args_for(rng, pattern))
            got = match(cls, args)
            expect = oracle_match(texts(toks(pattern)), texts(args))
            if expect is None:
                assert got is None, (pattern, texts(args))
                rejects += 1
            else:
                assert got is not None, (pattern, texts(args))
                assert bind_texts(got) == expect, (pattern, texts(args))
                matches += 1
    assert matches > 1000 and rejects > 1000, (matches, rejects)


# -- resolution shortcuts against trying every candidate ------------------

# overloads of one name: multi-token separator runs, separators that the
# arguments often hold only inside brackets, variadic and parameterless
_OVERLOADS = [
    "",
    "x",
    "x y",
    "x + y",
    "x * y",
    "x << y",
    "x , , y",
    "x , y",
    "( x )",
    "x [ y ]",
    "x - y + z",
    ".. rest",
    "x .. rest",
    "x , .. rest",
    "x , , .. rest",
    "x << y , .. rest",
]
_TOKEN_POOL = ["a", "b", "1", "+", "*", "-", ",", "<<", "(", ")", "[", "]"]


def _resolve_args(rng):
    roll = rng.random()
    if roll < 0.1:
        return ""
    if roll < 0.6:
        return _chain(rng, rng.choice(["+", "*", ",", ", ,", "<<", "-"]))
    if roll < 0.8:
        return _soup(rng)
    return " ".join(rng.choice(_TOKEN_POOL) for _ in range(rng.randrange(1, 10)))


def _resolve_by_trying_all(table, name, args):
    for cls in reversed(table.defs):
        if name == cls.name or name in cls.aliases:
            binding = match(cls, args)
            if binding is not None:
                return cls, binding
    return None


def _sep_texts(cls):
    return {t for e in cls.fixed if type(e) is tuple for t in e}


def _same_shape(args):
    """Tokens of args' shape, operator and punctuation texts and the kind
    of every other token, with other texts, on another line and column."""
    other = {TokenKind.IDENTIFIER: "zz", TokenKind.INTEGER: "77"}
    return tokenize("   " + " ".join(other.get(t.kind, t.text) for t in args),
                    "u.s", 9)


def _check_resolve(table, name, args):
    """Resolve args twice, and a list of the same shape once, against
    trying every candidate; returns what trying every candidate gave."""
    expect = _resolve_by_trying_all(table, name, args)
    for got in (table.resolve(name, args), table.resolve(name, args)):
        if expect is None:
            assert got is None
            continue
        assert got is not None and got[0] is expect[0]
        assert bind_texts(got[1]) == bind_texts(expect[1])
    other = _same_shape(args)
    assert [t.kind for t in other] == [t.kind for t in args]
    got = table.resolve(name, other)
    if expect is None:
        assert got is None
        return None
    assert got[0] is expect[0]
    assert bind_texts(got[1]) == bind_texts(match(expect[0], other))
    mine = {id(t) for t in other}
    assert all(id(t) in mine for run in got[1].values() for t in run)
    return expect


def test_resolve_agrees_with_trying_every_candidate():
    rng = random.Random(2024)
    outcomes = {"none": 0, "older": 0, "absent_sep": 0, "sep_not_top": 0}
    kept = {"none": 0, "hit": 0}  # a name without variadic definitions
    for _ in range(60):
        table = ClassTable()
        for pattern in rng.choices(_OVERLOADS, k=rng.randrange(3, 12)):
            name = "Q" if rng.random() < 0.15 else "R"
            define(table, f"{name} {pattern}", ["x"])
            if ".." not in pattern:
                define(table, f"K {pattern}", ["x"])
        for _ in range(40):
            args = toks(_resolve_args(rng))
            kept["none" if _check_resolve(table, "K", args) is None
                 else "hit"] += 1
            expect = _check_resolve(table, "R", args)
            if expect is None:
                outcomes["none"] += 1
                continue
            newer = [
                c for c in table.defs[expect[0].seq + 1 :] if c.name == "R"
            ]
            outcomes["older"] += bool(newer)
            present = set(texts(args))
            for c in newer:
                if c.variadic is None:
                    if _sep_texts(c) <= present:
                        outcomes["sep_not_top"] += 1
                    else:
                        outcomes["absent_sep"] += 1
    assert min(outcomes.values()) > 300, outcomes
    assert min(kept.values()) > 300, kept


# -- variadic prefix against a leftmost split from the oracle -------------


def _leftmost_split(arg_texts, n_params):
    """'p1 , ... pn , .. rest': each parameter takes the tokens up to the
    leftmost top-level ',' that leaves it at least one."""
    hits = top_level_positions(arg_texts, [","])
    parts = []
    start = 0
    for _ in range(n_params):
        s = next((h for h in hits if h > start), None)
        if s is None:
            return None
        parts.append(arg_texts[start:s])
        start = s + 1
    return parts, arg_texts[start:]


def _unbalanced(rng):
    pool = ["a", "b", "1", ",", ",", "(", ")", "[", "]", "+"]
    return " ".join(rng.choice(pool) for _ in range(rng.randrange(0, 12)))


def test_variadic_prefix_matches_leftmost_oracle():
    rng = random.Random(4711)
    table = ClassTable()
    patterns = {
        1: define(table, "V x , .. rest", ["x"]),
        2: define(table, "V a , b , .. rest", ["a"]),
    }
    matches = rejects = unbalanced_tails = 0
    for _ in range(600):
        roll = rng.random()
        if roll < 0.4:
            raw = _unbalanced(rng)
        elif roll < 0.7:
            raw = _chain(rng, ",")
        else:
            raw = _chain(rng, ",") + " , " + _unbalanced(rng)
        args = toks(raw)
        for n_params, cls in patterns.items():
            got = match(cls, args)
            expect = _leftmost_split(texts(args), n_params)
            if expect is None:
                assert got is None, raw
                rejects += 1
                continue
            params, rest = expect
            names = ["x"] if n_params == 1 else ["a", "b"]
            assert got is not None, raw
            assert [texts(got[k]) for k in names] == params, raw
            assert texts(got["rest"]) == rest, raw
            matches += 1
            depth = min_depth = 0
            for t in rest:
                depth += (t in ("(", "[")) - (t in (")", "]"))
                min_depth = min(min_depth, depth)
            unbalanced_tails += depth != 0 or min_depth < 0
    assert matches > 300 and rejects > 500 and unbalanced_tails > 150


# -- linearity: the variadic tail is never read ---------------------------


class _Unreadable:
    """Stands for a tail token: reading any attribute of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"the matcher read .{name} of a tail token")


@pytest.mark.parametrize(
    "pattern, prefix, bound",
    [
        ("x , .. rest", "( a , b ) ,", {"x": ["(", "a", ",", "b", ")"]}),
        ("a , b , .. rest", "1 , 2 ,", {"a": ["1"], "b": ["2"]}),
        ("x y .. rest", "1 2", {"x": ["1"], "y": ["2"]}),
        ("x << y , .. rest", "a << b ,", {"x": ["a"], "y": ["b"]}),
        (".. rest", "", {}),
    ],
)
def test_variadic_match_reads_no_tail_token(pattern, prefix, bound):
    table = ClassTable()
    define(table, "P x", ["older"])
    cls = define(table, "P " + pattern, ["newer"])
    tail = [_Unreadable() for _ in range(3)]
    args = [*toks(prefix), *tail]
    for got in (match(cls, args), table.resolve("P", args)[1]):
        assert {k: texts(v) for k, v in got.items() if k != "rest"} == bound
        assert len(got["rest"]) == 3
        assert all(a is b for a, b in zip(got["rest"], tail))


def test_long_variadic_push_emits_every_value_in_order():
    values = [7 * j % 251 for j in range(2000)]
    src = (
        "class push x\n{\ndb x\n}\n"
        "class push x , .. rest\n{\ndb x\npush rest\n}\n"
        "push " + " , ".join(map(str, values)) + "\n"
    )
    diags = []
    stream = run_source_phase(
        tokenize_lines(src, "t.s"), {}, ClassTable(), diags, Limits(max_depth=5000)
    )
    assert diags == []
    assert [line.render() for line in stream] == [f"db {v}" for v in values]
