"""Forward references in the '@' phase: values patched when the run ends.

A value that cannot be computed when its line runs is written as zeros
and evaluated later, with the values its names had then.  These tests pin
what that patching must reproduce of a run that knew every label up
front: the bytes, the first error, and the log printed before it.
"""

from gtrans import expr
from gtrans.dest_phase import run_dest_phase
from gtrans.errors import TranslationError
from gtrans.lexer import tokenize_lines


def hexdata(src, **kw):
    return run_dest_phase(tokenize_lines(src, "t.s"), {}, **kw).data.hex()


def printed(src, **kw):
    """What the driver prints for src: the log, then the error if any."""
    log = []
    try:
        run_dest_phase(tokenize_lines(src, "t.s"), {}, diagnostics=log, **kw)
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
    assert printed("rw 3 ,\n") == ["t.s:1:6: expected a value after ','"]


def test_names_past_and_or_do_not_defer():
    # a name right of '&&' or '||' is read only if the left side asks for
    # it: these emit now, and 'later' need never be defined
    assert hexdata("db 0 && later\ndb 1 || later\n") == "0001"
    # a name left of them is always read, so its value waits
    assert hexdata("db later || 1\nlater :\n") == "01"
    assert printed("db later || 1\n") == ["t.s:1:4: undefined name 'later'"]


def test_value_not_deferred_faults_at_its_own_line():
    # the value is known when its line runs, so its range check comes
    # before the fault of the next line
    src = "db (0 && later) + 300\ndw 70000\nlater :\n"
    assert printed(src, strict=True) == [
        "t.s:1:1: value 300 does not fit in 1 byte(s)"
    ]
    # a deferred value is checked when the run ends, after that fault
    src = "db later || 300\ndw 70000\nlater :\n"
    assert printed(src, strict=True) == [
        "t.s:2:1: value 70000 does not fit in 2 byte(s)"
    ]


def test_symbol_shadows_label_in_either_order():
    assert hexdata("x = 5\nx :\ndb x\n") == "05"
    assert hexdata("y :\ny = 7\ndb y\n") == "07"
    # a fixup sees the label, not a symbol assigned after its line ran
    assert hexdata("db z\nz = 9\nz :\n") == "01"


def test_forward_fill_and_dotted_forward_name():
    assert hexdata("rw 2, end\nend :\n") == "04000400"
    assert hexdata("dw a.b + 1\na.b :\n") == "0300"


def test_a_zero_count_reserve_still_checks_its_fill():
    # a zero count writes nothing, but its fill is still evaluated, at the
    # run's end when it names a later label, and a fault there is the error
    assert printed("rb 0, nowhere\n") == ["t.s:1:7: undefined name 'nowhere'"]
    assert printed("@print 1\nrb 0, nowhere\n@print 2\n") == [
        "1",
        "t.s:2:7: undefined name 'nowhere'",
    ]
    assert printed("rb 0, later + 300\nlater :\n", strict=True) == [
        "t.s:1:1: value 300 does not fit in 1 byte(s)"
    ]
    assert printed('rb 0, "a"\n') == [
        "t.s:1:1: reserve value must be an integer"
    ]
    src = "rb 0, later\n@print 5\nlater :\n"
    assert hexdata(src) == "" and printed(src) == ["5"]


def test_forward_reference_in_a_loop_raises_nothing(monkeypatch):
    made = []

    class Counting(expr.EvalError):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(expr, "EvalError", Counting)
    src = "i = 0\n@while i < 1000\ndd end - i\ni = i + 1\n@endw\nend :\n"
    data = bytes.fromhex(hexdata(src))
    assert len(data) == 4000 and data[-4:] == (3001).to_bytes(4, "little")
    assert made == []
