"""First-phase tests: '#' control flow, class collection, substitution."""

import random

import pytest

from gtrans.classes import ClassTable
from gtrans.dest_phase import run_dest_phase
from gtrans.engine import Limits
from gtrans.errors import (
    EvalError,
    LimitError,
    StructureError,
    UserAbort,
)
from gtrans.lexer import LineKind, TokenKind, tokenize_lines
from gtrans.source_phase import run_source_phase


def run(src, env=None, limits=None):
    """Run the first phase; returns (stream, diagnostics, env, table)."""
    env = env if env is not None else {}
    table = ClassTable()
    diags = []
    lines = tokenize_lines(src, "t.s")
    stream = run_source_phase(lines, env, table, diags, limits or Limits())
    return stream, diags, env, table


def render(stream):
    return "\n".join(line.render() for line in stream)


def rendered(src, **kw):
    stream, _, _, _ = run(src, **kw)
    return render(stream)


# -- conditionals ----------------------------------------------------------


def test_if_true_keeps_body():
    assert rendered("#if 1\ndb 1\n#endif\n") == "db 1"


def test_if_false_drops_body():
    assert rendered("#if 0\ndb 1\n#endif\ndb 2\n") == "db 2"


def test_elif_chain_picks_first_true():
    src = "#if x = 1\ndb 1\n#elif x = 2\ndb 2\n#elif x = 3\ndb 3\n#else\ndb 9\n#endif\n"
    assert rendered("x = 2\n" + src) == "x = 2\ndb 2"
    assert rendered("x = 3\n" + src) == "x = 3\ndb 3"
    assert rendered("x = 7\n" + src) == "x = 7\ndb 9"


def test_else_taken_only_when_all_arms_fail():
    src = "#if 0\ndb 1\n#else\ndb 2\n#endif\n"
    assert rendered(src) == "db 2"


def test_nested_conditionals():
    src = "#if 1\n#if 0\ndb 1\n#else\ndb 2\n#endif\n#endif\n"
    assert rendered(src) == "db 2"


def test_taken_arm_skips_later_arms():
    # both conditions true; only the first arm's body survives
    src = "#if 1\ndb 1\n#elif 1\ndb 2\n#endif\n"
    assert rendered(src) == "db 1"


def test_condition_sees_assignments():
    assert rendered("x = 3\n#if x > 2\ndb x\n#endif\n") == "x = 3\ndb x"


def test_missing_condition_rejected():
    with pytest.raises(EvalError, match="missing condition"):
        run("#if\ndb 1\n#endif\n")


# -- loops -----------------------------------------------------------------


def test_while_unrolls():
    src = "i = 0\n#while i < 3\ndb i\ni = i + 1\n#endw\n"
    stream, _, env, _ = run(src)
    assert render(stream).count("db i") == 3
    assert env.get("i") == 3


def test_while_false_never_enters():
    assert rendered("#while 0\ndb 1\n#endw\ndb 2\n") == "db 2"


def test_repeat_with_count():
    assert rendered("#repeat 4\ndb 0\n#until\n").count("db 0") == 4


def test_repeat_runs_at_least_once():
    # the closing condition is tested after the body
    assert rendered("#repeat 1\ndb 0\n#until\n") == "db 0"


def test_repeat_zero_skips_body_and_condition():
    assert rendered("#repeat 0\ndb 1\n#until missing\ndb 2\n") == "db 2"


def test_negative_repeat_count_rejected():
    with pytest.raises(EvalError) as exc:
        run("#repeat 0 - 1\ndb 1\n#until\n")
    assert str(exc.value) == "t.s:1:1: negative repeat count"


def test_until_condition_alone():
    src = "i = 0\n#repeat\ni = i + 1\n#until i = 5\n"
    _, _, env, _ = run(src)
    assert env.get("i") == 5


def test_repeat_count_and_condition_first_wins():
    # the condition fires before the count runs out
    src = "i = 0\n#repeat 100\ni = i + 1\n#until i = 3\n"
    _, _, env, _ = run(src)
    assert env.get("i") == 3
    # and the count fires when the condition stays false
    src = "i = 0\n#repeat 3\ni = i + 1\n#until i = 100\n"
    _, _, env, _ = run(src)
    assert env.get("i") == 3


def test_bare_repeat_rejected():
    cases = [
        ("#repeat\ndb 1\n#until\n", "t.s:1:1"),
        # found before the program runs, like a dangling '#endif'
        ("#if 0\n#repeat\n#until\n#endif\ndb 1\n", "t.s:2:1"),
        ("db 1\n#while 0\n#repeat\n#until\n#endw\n", "t.s:3:1"),
        ("class c {\ndb 1\n#repeat\n#until\n}\nc\n", "t.s:3:1"),
        ("@repeat\ndb 1\n@until\n", "t.s:1:1"),
        # before guard elimination, which would drop the unused region
        ("@if 0\n@repeat\n@until\n@endif\n", "t.s:2:1"),
        ("@if [G]\n@repeat\n@until\n@endif\n", "t.s:2:1"),
    ]
    for src, where in cases:
        with pytest.raises(StructureError) as exc:
            stream, _, _, _ = run(src)
            run_dest_phase(stream)
        assert str(exc.value) == (
            f"{where}: repeat needs a count or a condition on its closing line"
        )


@pytest.mark.parametrize(
    "src, fault",
    [
        ("#if 0\ndb 1\n#else if 0\ndb 2\n#endif\n",
         "t.s:3:7: '#else' takes no arguments"),
        ("#if 1\ndb 1\n#endif 1 / 0\n", "t.s:3:8: '#endif' takes no arguments"),
        ("#while 0\n#endw }\n", "t.s:2:7: '#endw' takes no arguments"),
        # found before the program runs, even where no pass reaches
        ("#if 0\n#if 1\n#else x y\n#endif\n#endif\n",
         "t.s:3:7: '#else' takes no arguments"),
        ("class c {\n#if 1\n#endif x\n}\nc\n",
         "t.s:3:8: '#endif' takes no arguments"),
        ("@if 0\ndb 1\n@else junk\ndb 2\n@endif\n",
         "t.s:3:7: '@else' takes no arguments"),
        ("@if 1\n@endif 1 / 0\n", "t.s:2:8: '@endif' takes no arguments"),
        ("@while 0\n@endw 0\n", "t.s:2:7: '@endw' takes no arguments"),
        # before guard elimination, which would drop the unused region
        ("@if [G]\n@if 1\n@endif ]\n@endif\n",
         "t.s:3:8: '@endif' takes no arguments"),
    ],
)
def test_closing_keys_take_no_arguments(src, fault):
    with pytest.raises(StructureError) as exc:
        stream, _, _, _ = run(src)
        run_dest_phase(stream)
    assert str(exc.value) == fault


def test_loop_iteration_limit():
    with pytest.raises(LimitError, match="iteration limit"):
        run("#while 1\n#endw\n", limits=Limits(max_loop=50))
    with pytest.raises(LimitError, match="iteration limit"):
        run("#repeat\n#until 0\n", limits=Limits(max_loop=50))


# loops spelled with prefix {0} that run {1} passes; the condition-only
# repeat runs at least one
_LOOP_SHAPES = {
    "while": "i = 0\n{0}while i < {1}\ni = i + 1\n{0}endw\n",
    "repeat n": "{0}repeat {1}\ndb 0\n{0}until\n",
    "repeat until": "i = 0\n{0}repeat\ni = i + 1\n{0}until i >= {1}\n",
    "break 0": "i = 0\n{0}while i < {1}\ni = i + 1\n{0}break 0\ndb 1\n{0}endw\n",
}


@pytest.mark.parametrize("max_loop", [0, 1, 2, 3])
@pytest.mark.parametrize("prefix", ["#", "@"])
@pytest.mark.parametrize("shape", sorted(_LOOP_SHAPES))
def test_max_loop_allows_that_many_passes(shape, prefix, max_loop):
    limits = Limits(max_loop=max_loop)

    def passes(p):
        src = _LOOP_SHAPES[shape].format(prefix, p)
        stream, _, _, _ = run(src, limits=limits)
        run_dest_phase(stream, limits=limits)

    if max_loop or shape != "repeat until":
        passes(max_loop)
    with pytest.raises(LimitError) as exc:
        passes(max_loop + 1)
    assert str(exc.value).endswith(
        f"loop iteration limit exceeded ({max_loop})"
    )
    if max_loop == 0:  # the first pass is refused at the opening line
        opener = 1 if shape == "repeat n" else 2
        assert str(exc.value).startswith(f"t.s:{opener}:1: ")


# -- break -----------------------------------------------------------------


def test_break_leaves_innermost_loop():
    src = "i = 0\n#while 1\ni = i + 1\n#if i = 3\n#break\n#endif\n#endw\ndb i\n"
    _, _, env, _ = run(src)
    assert env.get("i") == 3


def test_break_two_levels():
    src = (
        "n = 0\n"
        "#while 1\n"
        "#while 1\n"
        "n = n + 1\n"
        "#break 2\n"
        "#endw\n"
        "n = n + 100\n"
        "#endw\n"
    )
    _, _, env, _ = run(src)
    assert env.get("n") == 1


def test_break_one_level_continues_outer():
    src = (
        "i = 0\n"
        "n = 0\n"
        "#while i < 3\n"
        "i = i + 1\n"
        "#while 1\n"
        "n = n + 1\n"
        "#break\n"
        "#endw\n"
        "#endw\n"
    )
    _, _, env, _ = run(src)
    assert env.get("n") == 3


def test_break_zero_restarts_loop():
    # level 0 jumps to the closing line: the loop condition is retested
    src = (
        "i = 0\n"
        "n = 0\n"
        "#while i < 4\n"
        "i = i + 1\n"
        "#if i % 2\n"
        "#break 0\n"
        "#endif\n"
        "n = n + 1\n"
        "#endw\n"
    )
    _, _, env, _ = run(src)
    assert env.get("n") == 2
    assert env.get("i") == 4


def test_break_zero_recounts_repeat():
    # skipped passes still count toward the repeat total
    src = "i = 0\nn = 0\n#repeat 6\ni = i + 1\n#if i % 2\n#break 0\n#endif\nn = n + 1\n#until\n"
    _, _, env, _ = run(src)
    assert env.get("i") == 6
    assert env.get("n") == 3


def test_break_outside_loop_rejected():
    with pytest.raises(StructureError, match="break outside"):
        run("#break\n")


def test_break_level_beyond_nesting_rejected():
    with pytest.raises(StructureError, match="exceeds loop nesting"):
        run("#while 1\n#break 2\n#endw\n")


def test_negative_break_level_rejected():
    with pytest.raises(StructureError, match="negative break level"):
        run("#while 1\n#break 0 - 1\n#endw\n")


def emitted(src):
    """The bytes of src after both phases."""
    stream, _, _, _ = run(src)
    return run_dest_phase(stream).data


# spelled with prefix {0}: a 'break {1}' inside an if, inside a repeat,
# inside an if that sits between that repeat and a while
_BREAK_IN_IFS = (
    "n = 0\n"
    "{0}while n < 3\n"
    "n = n + 1\n"
    "db n\n"
    "{0}if n > 1\n"
    "{0}repeat 5\n"
    "db 10\n"
    "{0}if 1\n"
    "{0}break {1}\n"
    "{0}endif\n"
    "db 20\n"
    "{0}until\n"
    "db 30\n"
    "{0}endif\n"
    "db 40\n"
    "{0}endw\n"
    "db 50\n"
)


@pytest.mark.parametrize("prefix", ["#", "@"])
def test_break_counts_loops_not_ifs(prefix):
    # only the loops count as levels, so 2 leaves both
    data = emitted(_BREAK_IN_IFS.format(prefix, 2))
    assert data == bytes([1, 40, 2, 10, 50])


@pytest.mark.parametrize("prefix", ["#", "@"])
def test_break_beyond_loops_between_ifs_rejected(prefix):
    with pytest.raises(StructureError) as exc:
        emitted(_BREAK_IN_IFS.format(prefix, 3))
    assert str(exc.value) == "t.s:9:1: break level 3 exceeds loop nesting 2"


@pytest.mark.parametrize("prefix", ["#", "@"])
def test_break_zero_in_else_after_false_elifs_restarts_loop(prefix):
    src = (
        "i = 0\n"
        "n = 0\n"
        "{0}while i < 4\n"
        "i = i + 1\n"
        "{0}if i = 2\n"
        "db 2\n"
        "{0}elif i = 9\n"
        "db 9\n"
        "{0}elif i = 8\n"
        "db 8\n"
        "{0}else\n"
        "{0}break 0\n"
        "{0}endif\n"
        "n = n + 1\n"
        "db n\n"
        "{0}endw\n"
        "db 100 + i, 100 + n\n"
    )
    assert emitted(src.format(prefix)) == bytes([2, 1, 104, 101])


# -- structure faults ------------------------------------------------------


@pytest.mark.parametrize(
    "src,msg",
    [
        ("#endif\n", "unexpected '#endif'"),
        ("#endw\n", "unexpected '#endw'"),
        ("#until\n", "unexpected '#until'"),
        ("#if 1\ndb 1\n", "'#if' was never closed"),
        ("#while 1\n", "'#while' was never closed"),
        ("#else\n", "'#else' without a matching if"),
        ("#elif 1\n", "'#elif' without a matching if"),
        ("#if 1\n#else\n#elif 1\n#endif\n", "'#elif' after else"),
        ("#if 1\n#else\n#else\n#endif\n", "duplicate '#else'"),
        ("#while 1\n#endif\n", "unexpected '#endif'"),
        # a stray block, on one line or on several
        ("{ db 1 }\n", r"^t\.s:1:1: '\{' outside of a class definition"),
        ("{\ndb 1\n}\n", r"^t\.s:1:1: '\{' outside of a class definition"),
        # a program's brace faults are found before its directive faults
        ("#endif\nclass a {\ndb 1\n", r"^t\.s:2:1: unclosed '\{'"),
        ("#else\n}\n", r"^t\.s:2:1: unbalanced '\}'"),
        # a header's block opens at its first '{'; a '}' before it is
        # part of the pattern
        ("class a } {\n", r"^t\.s:1:1: unclosed '\{'"),
        ("class a } {\ndb 1\n}\n", "braces cannot be pattern separators"),
    ],
)
def test_malformed_structure(src, msg):
    with pytest.raises(StructureError, match=msg):
        run(src)


def test_structure_checked_even_when_unreachable():
    # matching happens before execution, not during it
    with pytest.raises(StructureError, match="never closed"):
        run("#if 0\n#if 1\n#endif\n")


def test_unknown_directive_rejected():
    with pytest.raises(StructureError, match="unknown directive '#frobnicate'"):
        run("#frobnicate 1\n")


# -- print and error -------------------------------------------------------


def test_print_formats_values():
    _, diags, _, _ = run('#print "x is" 40 + 2\n')
    assert diags == ["x is 42"]


def test_print_inside_loop_prints_each_pass():
    _, diags, _, _ = run("i = 0\n#while i < 3\n#print i\ni = i + 1\n#endw\n")
    assert diags == ["0", "1", "2"]


def test_error_aborts_with_location():
    # the error names file and line; the driver logs it like any fault
    diags = []
    lines = tokenize_lines('db 1\n#error "bad" 7\n', "t.s")
    with pytest.raises(UserAbort) as exc:
        run_source_phase(lines, {}, ClassTable(), diags, Limits())
    assert diags == []
    assert str(exc.value) == "t.s:2: bad 7"


def test_error_in_dead_branch_is_silent():
    _, diags, _, _ = run('#if 0\n#error "never"\n#endif\n')
    assert diags == []


# -- passthrough -----------------------------------------------------------


def test_featureless_program_passes_through():
    src = "start :\nmov r0 , r1\ndb 1 , 2\n@if x\ndw 3\n@endif\nx = 4\n"
    assert rendered(src) == src.rstrip("\n")


def test_blank_lines_dropped():
    assert rendered("db 1\n\n\ndb 2\n") == "db 1\ndb 2"


def test_dest_directives_not_executed_here():
    # '@' control flow is for the next phase; even false ones survive
    out = rendered("@if 0\ndb 1\n@endif\n")
    assert out == "@if 0\ndb 1\n@endif"


def test_assignment_without_value_still_passes():
    # right side needs a label: not computable here, bound later
    stream, _, env, _ = run("x = somewhere + 1\n")
    assert env.get("x") is None
    assert render(stream) == "x = somewhere + 1"


def test_assignment_rebinding():
    _, _, env, _ = run("x = 1\nx = x + 1\nx = x * 10\n")
    assert env.get("x") == 20


# -- class definitions -----------------------------------------------------


def test_inline_class_invocation():
    assert rendered("class nop { db 0x90 }\nnop\n") == "db 0x90"


def test_multi_line_class_body():
    src = "class two\n{\ndb 1\ndb 2\n}\ntwo\n"
    assert rendered(src) == "db 1\ndb 2"


def test_class_body_on_next_line_with_blank_between():
    assert rendered("class nop\n\n{ db 0x90 }\nnop\n") == "db 0x90"


def test_class_with_parameters():
    src = "class put x { db x }\nput 3 + 4\n"
    assert rendered(src) == "db 3 + 4"


def test_class_with_separators():
    src = "class mov a , b\n{\ndw a\ndw b\n}\nmov 1 , 2\n"
    assert rendered(src) == "dw 1\ndw 2"


def test_inline_body_is_one_line():
    # a one-line body expands to one line, whatever it contains
    src = "class mov a , b { dw a dw b }\nmov 1 , 2\n"
    assert rendered(src) == "dw 1 dw 2"


def test_aliases_share_one_body():
    src = "class add a { db a } plus, also\nplus 1\nalso 2\n"
    assert rendered(src) == "db 1\ndb 2"
    # commas are optional, and one may trail
    src = "class add a { db a } plus also ,\nplus 1\nalso 2\n"
    assert rendered(src) == "db 1\ndb 2"


def test_nested_braces_stay_in_body():
    # the inner pair belongs to the emitted class definition
    src = "class outer { class inner { db 5 } }\nouter\ninner\n"
    assert rendered(src) == "db 5"


def test_class_never_closed():
    # caught when the program is framed, before it runs
    with pytest.raises(StructureError, match="unclosed"):
        run("class broken {\ndb 1\n")


def test_class_without_name():
    with pytest.raises(StructureError, match="expected a class name"):
        run("class { db 1 }\n")


def test_class_without_body():
    with pytest.raises(StructureError, match="to open the body"):
        run("class lost x y\ndb 1\n")


def test_stray_brace_rejected():
    with pytest.raises(StructureError, match="unbalanced"):
        run("}\n")


def test_bad_alias_list():
    # reported at the first token that is neither a name nor one comma
    # after a name
    # a brace after the closing one is part of the list, not a new block
    for tail, col in (("5", 18), (", b", 18), ("b , , c", 22), ("{", 18),
                      ("}", 18)):
        msg = rf"^t\.s:1:{col}: invalid alias list"
        with pytest.raises(StructureError, match=msg):
            run(f"class a {{ db 1 }} {tail}\n")


@pytest.mark.parametrize(
    "src,out",
    [
        # a header, blank lines, then the line that opens its body
        ("class nop\n\n\n{\ndb 0x90\n}\nnop\n", "db 0x90"),
        # a definition spanning lines, stored in a body, is framed when
        # the body expands
        ("class outer\n{\nclass inner\n\n{\ndb 5\n}\n}\nouter\ninner\n",
         "db 5"),
        # a '#while' stored in a body is matched only on expansion
        ("class bad { #while 1 }\ndb 1\n", "db 1"),
    ],
)
def test_bodies_framed_before_the_program_runs(src, out):
    assert rendered(src) == out


def test_body_structure_checked_on_expansion():
    msg = r"^t\.s:1:13: '#while' was never closed"
    with pytest.raises(StructureError, match=msg):
        run("class bad { #while 1 }\nbad\n")


def test_loop_inside_class_body_runs_on_expansion():
    src = (
        "class fill n\n"
        "{\n"
        "i = 0\n"
        "#while i < n\n"
        "db i\n"
        "i = i + 1\n"
        "#endw\n"
        "}\n"
        "fill 3\n"
    )
    out = rendered(src)
    assert out.count("db i") == 3


def test_break_cannot_cross_expansion_boundary():
    # the invocation sits in a loop, but the expanded body has none
    src = "class bang { #break }\n#while 1\nbang\n#endw\n"
    with pytest.raises(StructureError, match="break outside"):
        run(src)


def test_expansion_depth_limit():
    src = "class loop { loop }\nloop\n"
    with pytest.raises(LimitError, match="depth"):
        run(src, limits=Limits(max_depth=40))
    # the top-level program is depth 0: a limit of N allows N levels
    one = "class nop { db 0x90 }\n"
    assert rendered(one + "nop\n", limits=Limits(max_depth=1)) == "db 0x90"
    two = one + "class two { nop }\ntwo\n"
    with pytest.raises(LimitError, match=r"^t\.s:2:13: expansion depth"):
        run(two, limits=Limits(max_depth=1))
    assert rendered("db 1\n", limits=Limits(max_depth=0)) == "db 1"


def test_newest_definition_wins():
    src = "class f x { db 1 }\nclass f x { db 2 }\nf 0\n"
    assert rendered(src) == "db 2"


def test_older_definition_still_reachable():
    # the newer pattern rejects, the older one takes over
    src = "class f x , y { db 2 }\nclass f x + y { db 1 }\n"
    assert rendered(src + "f 3 , 4\n") == "db 2"
    assert rendered(src + "f 3 + 4\n") == "db 1"


def test_conditional_class_selection():
    src = (
        "#if wide\n"
        "class put x { dw x }\n"
        "#else\n"
        "class put x { db x }\n"
        "#endif\n"
        "put 1\n"
    )
    stream, _, _, _ = run(src, env={"wide": 1})
    assert render(stream) == "dw 1"
    stream, _, _, _ = run(src, env={"wide": 0})
    assert render(stream) == "db 1"


def test_command_style_directive_class():
    # a '#'-keyed class name turns an unknown directive into a call
    src = "class #align n { db n }\n#align 16\n"
    assert rendered(src) == "db 16"


def test_define_emulation():
    src = (
        "class #define a b { a := b }\n"
        "class #define a(x) b { class a(x) { b } }\n"
        "#define SIZE 24\n"
        "#define INC(v) v + 1\n"
        "db SIZE\n"
        "db INC(4)\n"
    )
    assert rendered(src) == "db 24\ndb 4 + 1"


# -- substitution and embedded calls ---------------------------------------


def test_substitution_rewrites_plain_lines():
    src = "wait := hlt 0\nwait\n"
    assert rendered(src) == "hlt 0"


def test_substitution_advances_one_step_per_line():
    src = "a := b\nb := c\ndb a\n"
    assert rendered(src) == "db b"


def test_substituted_line_can_invoke_a_class():
    src = "class nop { db 0x90 }\npause := nop\npause\n"
    assert rendered(src) == "db 0x90"


def test_substitution_inside_assignment_rhs():
    src = "k := 6\nx = k * 7\n"
    stream, _, env, _ = run(src)
    assert env.get("x") == 42
    assert render(stream) == "x = 6 * 7"


def test_substitution_cannot_touch_assignment_target():
    # only the right side is rewritten, so the name stays the name
    src = "k := 6\nk = 9\n"
    stream, _, env, _ = run(src)
    assert env.get("k") == 9
    assert render(stream) == "k = 9"


def test_substitution_producing_blank_line_vanishes():
    src = "gone :=\ngone\ndb 1\n"
    assert rendered(src) == "db 1"


def test_substitution_producing_class_definition_rejected():
    # a rewritten data line is checked by its new shape like any other
    for src in ("bad := class f { db 1 }\nbad\n", "q := := 5\ndb q\n"):
        with pytest.raises(StructureError, match="substitution produced"):
            run(src)
    with pytest.raises(StructureError, match=r"^t\.s:2:1: "):
        run("q := := 5\ndb q\n#print 1\n")


def test_rewritten_data_line_that_assigns_is_bound():
    src = "q := . z = 4\ndb q\n#if db.z = 4\ndb 7\n#endif\n"
    stream, _, env, _ = run(src)
    assert render(stream) == "db . z = 4\ndb 7"
    assert env == {"db.z": 4}


def test_rewrite_scope():
    # the data keyword is never rewritten
    assert rendered("db := dw\ndb 1\n") == "db 1"
    # nor are '#' and '@' directive arguments
    with pytest.raises(EvalError, match=r"^t\.s:2:5: undefined name 'n'"):
        run("n := 3\n#if n\n#endif\n")
    assert rendered("n := 3\n@print n\n") == "@print n"


@pytest.mark.parametrize("label", ["x", "x :", "x . f", "x . f :"])
def test_labeled_data_line_keeps_its_label_and_keyword(label):
    # only the values of 'name [:] keyword values' are rewritten
    assert rendered(f"db := dw\n{label} db 1\n") == f"{label} db 1"
    assert emitted(f"db := dw\n{label} db 1\n") == b"\x01"
    stream, _, _, _ = run(f"y = 5\nx := y\n{label} db x\n")
    assert render(stream) == f"y = 5\n{label} db y"
    name = label.rstrip(" :").replace(" ", "")
    assert run_dest_phase(stream).labels == {name: 0}


def test_labeled_data_line_expands_calls_in_its_values():
    src = "class E(v) { v * 2 }\nx : db E(3) + 1\n"
    assert rendered(src) == "x : db 3 * 2 + 1"
    assert emitted(src) == b"\x07"
    # a keyword that names a class is still the keyword
    src = "class db(v) { dw v }\nx db (2)\n"
    assert rendered(src) == "x db ( 2 )"
    assert emitted(src) == b"\x02"


def test_labeled_data_line_may_still_invoke_a_class():
    # a class named like the label takes the line first
    src = "class x .. rest { db 9 }\nx db 1\nx : db 1\n"
    assert rendered(src) == "db 9\ndb 9"


def test_embedded_call_in_data_values():
    src = "class E(x) { x * 2 }\ndb E(3) + 1\n"
    assert rendered(src) == "db 3 * 2 + 1"


def test_embedded_call_in_assignment():
    src = "class E(x) { x * 2 }\ny = E(5)\n"
    _, _, env, _ = run(src)
    assert env.get("y") == 10


def test_plain_line_with_embedded_call_retried_as_data():
    # expansion turns an unrecognized line into a data line
    src = "class head() { db }\nhead() 7\n"
    assert rendered(src) == "db 7"


# -- randomized control flow ------------------------------------------------


def test_random_programs_terminate_and_log():
    from helpers import gen_directive_program

    rng = random.Random(90210)
    printed = 0
    for _ in range(120):
        src = gen_directive_program(rng, "#")
        _, diags, _, _ = run(src)
        assert all(s.startswith("p") for s in diags)
        printed += len(diags)
    assert printed > 200  # the corpus actually exercises the paths


def test_loop_in_class_body_follows_each_binding():
    # each expansion runs its own copy of the body, so a loop compiled for
    # one binding is never reused for another
    src = (
        "class emit n , v\n{\nk = 0\n#while k < n\ndb v + k\n"
        "k = k + 1\n#endw\n}\n"
        "i = 0\n#while i < 2\nemit 2 , 10\nemit 3 , 20\ni = i + 1\n#endw\n"
    )
    assert rendered(src).split("\n").count("db 20 + k") == 6
    assert rendered(src).split("\n").count("db 10 + k") == 4


# -- plans kept across loop passes -------------------------------------------

# a command-style class, an embedded call and a 4-element variadic push,
# run N times by one loop
_LOOPED = (
    "class op a + b { db a, b }\n"
    "class INC ( v ) { v + 1 }\n"
    "class push x { db x }\n"
    "class push x , .. rest\n{\n#if (x) % 4 = 0\ndb x\n#endif\npush rest\n}\n"
    "i = 0\n#while i < {n}\n{define}op i + 1\ndb INC(i)\ny = INC(i)\n"
    "push i , 4 , 6 , i + 8\ni = i + 1\n#endw\n"
)


def _counted_run(monkeypatch, src):
    """(resolve calls, build_structure calls) of one source phase run."""
    import gtrans.engine

    calls = {"resolve": 0, "build_structure": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        ClassTable, "resolve", counting("resolve", ClassTable.resolve)
    )
    monkeypatch.setattr(
        gtrans.engine,
        "build_structure",
        counting("build_structure", gtrans.engine.build_structure),
    )
    stream, _, env, _ = run(src)
    monkeypatch.undo()
    return calls["resolve"], calls["build_structure"], len(stream), env


def test_looped_lines_are_planned_once(monkeypatch):
    counts = []
    for n in (10, 200):
        src = _LOOPED.replace("{n}", str(n)).replace("{define}", "")
        resolves, structures, emitted, env = _counted_run(monkeypatch, src)
        assert env["i"] == n and env["y"] == n
        assert emitted > 6 * n  # every pass still emits its lines
        counts.append((resolves, structures))
    assert counts[0] == counts[1]


def test_a_definition_in_the_loop_replans_each_pass(monkeypatch):
    counts = []
    for n in (10, 200):
        src = _LOOPED.replace("{n}", str(n))
        src = src.replace("{define}", "class other x { db x }\n")
        resolves, structures, _, _ = _counted_run(monkeypatch, src)
        counts.append((resolves, structures))
    (r10, s10), (r200, s200) = counts
    assert r200 > 10 * r10 and s200 > 10 * s10


_HASH_LOOP = "class #put x { db x }\ni = 0\n#while i < {n}\n#put i\n{define}"
_HASH_LOOP += "i = i + 1\n#endw\n"


def test_a_looped_hash_keyed_class_is_planned_once(monkeypatch):
    # '#put' is a directive key the engine does not know, so the source
    # phase compiles it, and its plan is kept like any other line's
    counts = []
    for n in (10, 200):
        src = _HASH_LOOP.replace("{n}", str(n)).replace("{define}", "")
        resolves, structures, emitted, env = _counted_run(monkeypatch, src)
        assert env["i"] == n and emitted == 2 * n + 1
        counts.append((resolves, structures))
    assert counts == [(2, 3), (2, 3)]


def test_a_hash_keyed_class_redefined_in_a_loop():
    define = "#if i = 1\nclass #put x { dw x }\n#endif\n"
    src = _HASH_LOOP.replace("{n}", "4").replace("{define}", define)
    stream, _, _, _ = run(src)
    assert render(stream) == (
        "i = 0\ndb i\ni = i + 1\ndb i\ni = i + 1\n"
        "dw i\ni = i + 1\ndw i\ni = i + 1"
    )
    assert run_dest_phase(stream).data == bytes.fromhex("000102000300")


def test_redefinition_in_a_loop_takes_effect_on_the_next_pass():
    src = (
        "class f x { db x }\ni = 0\n#while i < 4\nf i\n#if i = 1\n"
        "class f x { db x + 100 }\n#endif\ni = i + 1\n#endw\n"
    )
    assert rendered(src) == (
        "i = 0\ndb i\ni = i + 1\ndb i\ni = i + 1\n"
        "db i + 100\ni = i + 1\ndb i + 100\ni = i + 1"
    )


def test_substitutions_set_in_a_loop_advance_one_step_per_scan():
    src = (
        "c = 7\ni = 0\n#while i < 4\ndb a, b\nx = a\n#if i = 0\na := b\n"
        "#endif\n#if i = 1\nb := c\n#endif\ni = i + 1\n#endw\n"
    )
    stream, _, env, _ = run(src)
    assert render(stream) == (
        "c = 7\ni = 0\ndb a , b\nx = a\ni = i + 1\ndb b , b\nx = b\n"
        "i = i + 1\ndb b , c\nx = b\ni = i + 1\ndb b , c\nx = b\ni = i + 1"
    )
    assert env == {"c": 7, "i": 4}  # a and b never had a value to bind


def test_fault_in_a_kept_expansion_names_its_body_line():
    src = "class p\n{\n#print 10 / (3 - i)\n}\ni = 0\n#while i < 5\np\n"
    src += "i = i + 1\n#endw\n"
    diags = []
    with pytest.raises(EvalError, match="division by zero") as info:
        run_source_phase(
            tokenize_lines(src, "t.s"), {}, ClassTable(), diags, Limits()
        )
    assert tuple(info.value.pos) == ("t.s", 3, 11)
    assert diags == ["3", "5", "10"]


def test_limits_hold_inside_a_kept_recursive_expansion():
    depth = (
        "class down n { db n }\nclass down n, .. rest\n{\ndb n\ndown rest\n}\n"
        "i = 0\n#while i < 5\n#if i = 0\ndown 1\n#elif i = 1\ndown 1, 2\n"
        "#else\ndown 1, 2, 3, 4\n#endif\ni = i + 1\n#endw\n"
    )
    env = {}
    with pytest.raises(LimitError, match="expansion depth exceeds 3") as info:
        run(depth, env=env, limits=Limits(max_depth=3))
    assert tuple(info.value.pos) == ("t.s", 5, 1) and env["i"] == 2
    loop = (
        "class spin n { db n }\nclass spin n, .. rest\n{\nk = 0\n"
        "#while k < n\nk = k + 1\n#endw\nspin rest\n}\n"
        "i = 0\n#while i < 5\nspin i, 3 * i, 1\ni = i + 1\n#endw\n"
    )
    env = {}
    with pytest.raises(LimitError, match=r"iteration limit exceeded \(6\)") as info:
        run(loop, env=env, limits=Limits(max_loop=6))
    assert tuple(info.value.pos) == ("t.s", 5, 1) and env == {"i": 3, "k": 6}


# -- resolution kept per argument shape --------------------------------------


def _full_matches(monkeypatch):
    """A list that records the arguments of every classes._match_full
    run from here on."""
    import gtrans.classes

    calls = []
    match_full = gtrans.classes._match_full

    def counting(*args):
        calls.append(args)
        return match_full(*args)

    monkeypatch.setattr(gtrans.classes, "_match_full", counting)
    return calls


def test_matching_runs_once_per_argument_shape(monkeypatch):
    operands = ["{k}", "( {k} + 1 )", "L_{k}", "[ r1 ] + {k}"]
    invocations = [
        f"mov r{k % 8} , " + operands[k % 4].replace("{k}", str(k))
        for k in range(1000)
    ]
    shapes = {
        tuple(t.text if t.kind in (TokenKind.OPERATOR, TokenKind.PUNCTUATION)
              else t.kind for t in line.tokens[1:])
        for line in tokenize_lines("\n".join(invocations))
    }
    calls = _full_matches(monkeypatch)
    src = "class mov r , v\n{\ndb 0xB8 + r\ndd v\n}\n" + "\n".join(invocations)
    stream, _, _, _ = run(src)
    assert len(stream) == 2000
    assert [line.render() for line in stream[-2:]] == [
        "db 0xB8 + r7", "dd [ r1 ] + 999"
    ]
    assert len(shapes) == 4 and len(calls) <= len(shapes)


def test_a_definition_keeps_what_other_names_resolved(monkeypatch):
    calls = _full_matches(monkeypatch)
    counts = []
    for n in (10, 200):
        run(
            "class op a + b { db a, b }\nclass INC ( v ) { v + 1 }\n"
            f"i = 0\n#while i < {n}\nclass other x {{ db x }}\nop i + 1\n"
            "db INC(i)\ni = i + 1\n#endw\n"
        )
        counts.append(len(calls))
        calls.clear()
    assert counts == [2, 2]


# The per-shape table keeps only winners, so failing shapes and shapes
# seen for the first time reach the candidates; a candidate with a
# separator absent from the arguments must be skipped without matching.

_OVERLOADS = "+ - * / % << >> & | ^ == != < > <= >=".split()


def test_nested_failing_calls_skip_the_matcher(monkeypatch):
    calls = _full_matches(monkeypatch)
    line = "db " + "g ( " * 40 + "1" + " )" * 40
    stream, _, _, _ = run("class g x , y { x }\n" + line)
    assert render(stream) == line
    assert calls == []


def test_unmatchable_shapes_skip_the_matcher(monkeypatch):
    calls = _full_matches(monkeypatch)
    defs = "".join(f"class h x {op} y {{ db x }}\n" for op in _OVERLOADS)
    # 64 distinct shapes, none holding an overload's separator
    lines = [
        "h " + " ".join("a" if k >> j & 1 else "1" for j in range(6))
        for k in range(64)
    ]
    stream, _, _, _ = run(defs + "\n".join(lines))
    assert len(_OVERLOADS) == 16 and render(stream) == "\n".join(lines)
    assert calls == []


def test_a_nested_separator_still_reaches_the_matcher(monkeypatch):
    calls = _full_matches(monkeypatch)
    defs = "".join(f"class h x {op} y {{ db x }}\n" for op in _OVERLOADS)
    stream, _, _, _ = run(defs + "h ( a + b )\nh a + b")
    assert render(stream) == "h ( a + b )\ndb a"
    # the first line fails as a command and then as an embedded call
    assert [" ".join(t.text for t in args) for _, args in calls] == [
        "( a + b )", "( a + b )", "a + b"
    ]


def test_a_newer_same_shape_overload_takes_over_mid_loop():
    src = (
        "class f x { db x }\ni = 0\n#while i < 4\nf i + 1\n#if i = 1\n"
        "class f a + b { dw a, b }\n#endif\ni = i + 1\n#endw\n"
    )
    assert rendered(src) == (
        "i = 0\ndb i + 1\ni = i + 1\ndb i + 1\ni = i + 1\n"
        "dw i , 1\ni = i + 1\ndw i , 1\ni = i + 1"
    )


def test_one_body_line_takes_the_kind_of_each_argument_shape():
    # a plain 'k = 5' line assigns k; a '#' key invokes the class with
    # '= 5', which makes its body line an assignment to dd
    src = "class #k v { dd v }\n#k 5\n#k = 5\n#k 6\n#print dd\n"
    stream, diags, env, _ = run(src)
    assert render(stream) == "dd 5\ndd = 5\ndd 6"
    assert [line.kind for line in stream] == [
        LineKind.DATA_EMISSION, LineKind.ASSIGNMENT, LineKind.DATA_EMISSION
    ]
    assert diags == ["5"] and env == {"dd": 5}
    assert rendered("class k v { dd v }\nk 5\nk = 5\n") == "dd 5\nk = 5"


def test_a_body_line_that_starts_with_a_parameter_is_classified_each_time():
    src = (
        "class ap f v { f v }\nap dd 5\nap #print 6\nap dd 7\n"
        "class mk f { f q { db 9 } }\nmk class\nq\n"
    )
    stream, diags, _, _ = run(src)
    assert render(stream) == "dd 5\ndd 7\ndb 9"
    assert diags == ["6"]
