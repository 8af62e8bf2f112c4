"""First-phase tests: '#' control flow, class collection, substitution."""

import random

import pytest

from gtrans.classes import ClassTable
from gtrans.engine import Limits
from gtrans.errors import (
    EvalError,
    LimitError,
    StructureError,
    UserAbort,
)
from gtrans.lexer import tokenize_lines
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
    # the closing condition is tested after the body, so zero is a lie
    assert rendered("#repeat 1\ndb 0\n#until\n") == "db 0"


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
    with pytest.raises(StructureError, match="repeat needs a count"):
        run("#repeat\ndb 1\n#until\n")


def test_loop_iteration_limit():
    with pytest.raises(LimitError, match="iteration limit"):
        run("#while 1\n#endw\n", limits=Limits(max_loop=50))
    with pytest.raises(LimitError, match="iteration limit"):
        run("#repeat\n#until 0\n", limits=Limits(max_loop=50))


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
    # the diagnostic carries file and line, the exception the message
    diags = []
    lines = tokenize_lines('db 1\n#error "bad" 7\n', "t.s")
    with pytest.raises(UserAbort, match="bad 7"):
        run_source_phase(lines, {}, ClassTable(), diags, Limits())
    assert diags == ["t.s:2: bad 7"]


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


def test_nested_braces_stay_in_body():
    # the inner pair belongs to the emitted class definition
    src = "class outer { class inner { db 5 } }\nouter\ninner\n"
    assert rendered(src) == "db 5"


def test_class_never_closed():
    # caught by brace tracking when the program is first structured
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
    with pytest.raises(StructureError, match="invalid alias list"):
        run("class a { db 1 } 5\n")


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
    src = "bad := class f { db 1 }\nbad\n"
    with pytest.raises(StructureError, match="substitution produced"):
        run(src)


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
