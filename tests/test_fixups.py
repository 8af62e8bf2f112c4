"""Forward references in the '@' phase: values patched when the run ends.

A value that cannot be computed when its line runs is written as zeros
and evaluated later, with the values its names had then.  These tests pin
what that patching must reproduce of a run that knew every label up
front: the bytes, the first error, and the log printed before it.
"""

from gtrans.dest_phase import run_dest_phase
from gtrans.errors import TranslationError, UserAbort
from gtrans.lexer import tokenize_lines


def hexdata(src, **kw):
    return run_dest_phase(tokenize_lines(src, "t.s"), {}, **kw).data.hex()


def printed(src, **kw):
    """What the driver prints for src: the log, then the error if any."""
    log = []
    try:
        run_dest_phase(tokenize_lines(src, "t.s"), {}, diagnostics=log, **kw)
    except UserAbort:
        pass  # the directive logged its own message
    except TranslationError as exc:
        log.append(str(exc))
    return log


def test_fixup_reads_names_as_they_were():
    # 'x' changes after the line runs; the fixup uses the value it had
    assert hexdata("x = 1\ndd later + x\nx = 100\nlater :\n") == "05000000"
    # 'x' sits behind a name that is unknown when the line runs, so it is
    # only read when the fixup is evaluated, still with the old value
    assert hexdata("x = 0\ndb later && x\nx = 1\nlater :\n") == "00"


def test_fixups_in_a_loop():
    src = "i = 0\n@while i < 3\ndb end - i\nrb i, end\ni = i + 1\n@endw\nend :\n"
    assert hexdata(src) == "06" + "05" + "06" + "04" + "0606"


def test_forward_fault_cuts_the_log_at_its_line():
    assert printed("@print 1\ndb later / 0\n@print 2\nlater :\n") == [
        "1",
        "t.s:2:10: division by zero",
    ]


def test_error_directive_after_good_fixups():
    assert printed('db later\nlater :\n@error "x"\n') == ["t.s:3: x"]


def test_line_values_evaluate_before_range_checks():
    # one line: every value is evaluated before any is range-checked
    src = "db later + 250, later / 0\nrb 10\nlater :\n"
    assert printed(src, strict=True) == ["t.s:1:23: division by zero"]
    # two lines: the first line's range check comes first
    src = "db later + 250\ndb later / 0\nrb 10\nlater :\n"
    assert printed(src, strict=True) == [
        "t.s:1:1: value 262 does not fit in 1 byte(s)"
    ]


def test_reserve_count_faults_in_token_order():
    # a value fault ahead of a parse fault in the count is reported first
    assert printed("rb x +\n") == ["t.s:1:4: undefined name 'x'"]
    assert printed("rb 1 / 0, 1 +\n") == ["t.s:1:6: division by zero"]
    assert printed("rb ? 5\n") == ["t.s:1:4: unexpected '?'"]
    assert printed("rb 4, 7 )\n") == [
        "t.s:1:1: reserve takes a count and at most one value"
    ]
