"""Driver tests: argument parsing, file plumbing, formats, exit codes."""

import gc
import io
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from helpers import gen_programs

import gtrans
from gtrans import cli
from gtrans.cli import (
    RunReport,
    TranslatorConfig,
    format_output,
    main,
    parse_args,
    translate,
)
from gtrans.dest_phase import EmitImage
from gtrans.engine import Limits
from gtrans.errors import UsageError


# -- argument parsing -------------------------------------------------------


def test_defaults():
    cfg = parse_args(["--in", "prog.src"])
    assert cfg.source == "prog.src"
    assert cfg.output == "-"
    assert cfg.format == "raw"
    assert cfg.endian == "little"
    assert cfg.rule_files == [] and cfg.defines == {}
    assert not cfg.strict_overflow


def test_repeatable_flags():
    cfg = parse_args(
        ["--rules", "a.gt", "--rules", "b.gt", "--in", "p",
         "--define", "N=26", "--define", "MODE=0x10", "--define", "S=text"]
    )
    assert cfg.rule_files == ["a.gt", "b.gt"]
    assert cfg.defines == {"N": 26, "MODE": 16, "S": "text"}


def test_limit_flags():
    cfg = parse_args(["--in", "p", "--max-loop", "5", "--max-depth", "7"])
    assert cfg.limits.max_loop == 5 and cfg.limits.max_depth == 7


@pytest.mark.parametrize("flag", ["--max-loop", "--max-depth"])
def test_negative_limit_rejected(flag, tmp_path, capsys):
    with pytest.raises(UsageError, match=f"{flag} must be 0 or more, got -1"):
        parse_args(["--in", "p", flag, "-1"])
    limits = parse_args(["--in", "p", flag, "0"]).limits
    assert getattr(limits, flag[2:].replace("-", "_")) == 0
    src = tmp_path / "p.src"
    src.write_text("db 1\n")
    out = tmp_path / "p.bin"
    assert main(["--in", str(src), "--out", str(out), flag, "-1"]) == 1
    assert capsys.readouterr().err == f"gtrans: {flag} must be 0 or more, got -1\n"
    assert not out.exists()


def test_missing_input_rejected():
    with pytest.raises(UsageError, match="--in"):
        parse_args([])


def test_unknown_flag_rejected():
    with pytest.raises(UsageError, match="--bogus"):
        parse_args(["--in", "p", "--bogus"])


def test_bad_format_rejected():
    with pytest.raises(UsageError, match="invalid choice"):
        parse_args(["--in", "p", "--format", "elf"])
    with pytest.raises(UsageError, match="unknown output format 'elf'"):
        format_output(image(b"\x90"), "elf")


def test_define_integers_wrap_and_may_be_long():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        defines = parse_args(
            ["--in", "p", "--define", "BIG=0x1" + "0" * 15 + "5",
             "--define", "LONG=-1" + "0" * 699 + "3",
             "--define", "ZERO=0" + "1" * 700]
        ).defines
    finally:
        sys.set_int_max_str_digits(old)
    # 10**k is 0 modulo 2**64 once k >= 64
    assert defines == {"BIG": 5, "LONG": -3, "ZERO": "0" + "1" * 700}


def test_bad_define_rejected():
    with pytest.raises(UsageError, match="NAME=VALUE"):
        parse_args(["--in", "p", "--define", "JUSTANAME"])


# -- the pipeline through files ---------------------------------------------


def run_files(tmp_path, source, rules=(), **cfg_kw):
    src = tmp_path / "prog.src"
    src.write_text(source)
    rule_paths = []
    for k, text in enumerate(rules):
        p = tmp_path / f"r{k}.gt"
        p.write_text(text)
        rule_paths.append(str(p))
    out = tmp_path / "prog.bin"
    config = TranslatorConfig(
        rule_files=rule_paths, source=str(src), output=str(out), **cfg_kw
    )
    report = translate(config)
    data = out.read_bytes() if out.exists() else None
    return report, data


def test_single_byte_program(tmp_path):
    report, data = run_files(
        tmp_path, "nop\n", rules=["class nop { db 0x90 }\n"]
    )
    assert report.status == "ok"
    assert data == b"\x90" and report.byte_count == 1


def test_rule_file_order_is_definition_order(tmp_path):
    first = "class put x { db 1 }\n"
    second = "class put x { db 2 }\n"
    _, data = run_files(tmp_path, "put 0\n", rules=[first, second])
    assert data == b"\x02"
    _, data = run_files(tmp_path, "put 0\n", rules=[second, first])
    assert data == b"\x01"


def test_defines_reach_both_phases(tmp_path):
    source = "#if N = 26\ndb 1\n#endif\n@if N = 26\ndb 2\n@endif\n"
    report, data = run_files(tmp_path, source, defines={"N": 26})
    assert data == b"\x01\x02"


def test_seeded_programs_end_ok_or_user_error(tmp_path):
    # directive programs, class overloads, nested loops with breaks and a
    # brace-heavy line pool with long literals; whatever the text, nothing
    # escapes translate() and no run is an internal error
    src, out = tmp_path / "prog.src", tmp_path / "prog.out"
    statuses = Counter()
    for text in gen_programs(11, 500):
        src.write_text(text)
        config = TranslatorConfig(
            source=str(src),
            output=str(out),
            limits=Limits(max_loop=50, max_depth=8),
        )
        report = translate(config)
        assert report.status in ("ok", "user-error"), (text, report)
        statuses[report.status] += 1
    assert statuses["ok"] > 100 and statuses["user-error"] > 100, statuses


# A kept '#' plan emits the same '@' Line object on every pass, so the
# '@' phase meets one object at many positions of its stream.
_REEMITTED = [
    # forward reference, one fixup per position
    ("i = 0\n#repeat 3\ndw later + i\ni = i + 1\n#until\nlater:\n", False,
     [], "06 00 07 00 08 00"),
    # a value that faults only on a later pass
    ("i = 0\n#repeat 4\ndb 10 / (2 - i)\ni = i + 1\n#until\n", False,
     ["t.s:3:7: division by zero"], None),
    ("#repeat 2\nlab:\n#until\n", False,
     ["t.s:2:1: duplicate label 'lab'"], None),
    ("i = 0\n#repeat 3\ndb 300 * i, f\ni = i + 1\n#until\nf:\n", False,
     [], "00 06 2c 06 58 06"),
    ("i = 0\n#repeat 3\ndb 300 * i, f\ni = i + 1\n#until\nf:\n", True,
     ["t.s:3:1: value 300 does not fit in 1 byte(s)"], None),
    ("i = 0\n#repeat 3\nk = 0\n@while k < i\ndb k\nk = k + 1\n@endw\n"
     "i = i + 1\n#until\n", False, [], "00 00 01"),
    ("i = 0\n#repeat 3\ndb f\n@print i\ni = i + 1\n#until\ndb 1 / 0\nf:\n",
     False, ["0", "1", "2", "t.s:7:6: division by zero"], None),
]


def check_hex(source, log, dump, **cfg_kw):
    """translate() source as t.s, in the working directory, with --format
    hex: it logs log, and writes dump as its first row's bytes, or, for a
    dump of None, fails and writes nothing."""
    Path("t.s").write_text(source)
    config = TranslatorConfig(source="t.s", output="t.out", format="hex",
                              **cfg_kw)
    report = translate(config)
    assert report.diagnostics == log
    if dump is None:
        assert report.status == "user-error" and not Path("t.out").exists()
    else:
        text = Path("t.out").read_text()
        assert report.status == "ok" and text.split("  ")[0] == (
            "00000000: " + dump
        )


@pytest.mark.parametrize("source, strict, log, dump", _REEMITTED)
def test_at_lines_a_hash_loop_reemits(tmp_path, monkeypatch, source, strict,
                                      log, dump):
    monkeypatch.chdir(tmp_path)
    check_hex(source, log, dump, strict_overflow=strict)


_M = "class M ( v ) {\ndb v\ndb v\n}\n"  # a body of two lines


# The outer call of a nest is matched first, on its raw arguments; the
# scan moves into them only if it fails.
@pytest.mark.parametrize(
    "source, log, dump",
    [
        # A binds y to '( 3 )' before I ever expands
        ("class A ( x y ) { y }\nclass I ( v ) { v }\ndb A ( I ( 3 ) )\n",
         [], "03"),
        # M is never expanded, so its two-line body is no fault
        (_M + "class A ( x ) { 7 }\ndb A ( M ( 1 ) )\n", [], "07"),
        (_M + "db M ( 1 )\n",
         ["t.s:5:4: class 'M' cannot expand inside a line: "
          "its body is not a single line"], None),
    ],
    ids=["outer-binds-raw-call", "outer-hides-inner", "inner-alone"],
)
def test_embedded_calls_match_the_outer_call_first(tmp_path, monkeypatch,
                                                    source, log, dump):
    monkeypatch.chdir(tmp_path)
    check_hex(source, log, dump)


def test_variadic_pattern_may_start_with_a_separator(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_hex("class w : a , .. rest { db a }\nw : 5 , 6 , 7\n", [], "05")


def test_endian_flag(tmp_path):
    _, little = run_files(tmp_path, "dd 0x13\n")
    _, big = run_files(tmp_path, "dd 0x13\n", endian="big")
    assert little == b"\x13\x00\x00\x00"
    assert big == b"\x00\x00\x00\x13"


def test_error_directive_writes_nothing(tmp_path):
    report, data = run_files(tmp_path, 'db 1\n#error "stop here"\n')
    assert report.status == "user-error"
    assert data is None
    assert report.diagnostics[-1].endswith("stop here")
    assert "prog.src:2:" in report.diagnostics[-1]


def test_fault_positions_name_the_file(tmp_path):
    report, data = run_files(tmp_path, "db 1\n#endw\n")
    assert report.status == "user-error" and data is None
    assert "prog.src:2" in report.diagnostics[-1]
    assert "unexpected" in report.diagnostics[-1]


_DEEP = "(" * 3000 + "1" + ")" * 3000
# each operator binds tighter than the one before, so every right operand
# nests one level deeper even without parentheses
_CLIMB = "1 || 1 && 1 | 1 ^ 1 & 1 = 1 < 1 << 1 + 1 * ("


@pytest.mark.parametrize(
    "source",
    [
        "db " + _DEEP + "\n",
        "db " + "-" * 5000 + "1\n",
        "@if " + _DEEP + "\n@endif\n",
        "#if " + _DEEP + "\n#endif\n",
        "db " + _CLIMB * 100 + "1" + ")" * 100 + "\n",
    ],
    ids=["db-parens", "db-minus", "dest-if", "source-if", "precedence-climb"],
)
def test_deep_expression_is_a_user_error(tmp_path, source):
    report, data = run_files(tmp_path, source)
    assert report.status == "user-error" and data is None
    assert re.fullmatch(
        r".*prog\.src:1:\d+: expression nesting exceeds 200 levels",
        report.diagnostics[-1],
    ), report.diagnostics


def test_nesting_under_the_limit_evaluates(tmp_path):
    source = "db " + "(" * 150 + "7" + ")" * 150 + ", " + "-" * 150 + "7\n"
    report, data = run_files(tmp_path, source)
    assert report.status == "ok"
    assert data == b"\x07\x07"


def test_missing_source_file(tmp_path):
    config = TranslatorConfig(source=str(tmp_path / "nope.src"))
    report = translate(config)
    assert report.status == "user-error"
    assert "nope.src" in report.diagnostics[-1]


# the first byte that is not UTF-8 is at line 2, column 8
_NOT_UTF8 = b'db 1\ndb "\xc3\xa9" \xff\xfe\n'


@pytest.mark.parametrize("bad_file", ["rules", "source"])
def test_invalid_utf8_file_is_a_user_error(tmp_path, capsys, bad_file):
    good, bad, out = (tmp_path / n for n in ("good.gt", "bad.src", "p.bin"))
    good.write_text("db 1\n")
    bad.write_bytes(_NOT_UTF8)
    rules, source = (bad, good) if bad_file == "rules" else (good, bad)
    argv = ["--rules", str(rules), "--in", str(source), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{bad}:2:8: input is not valid UTF-8\n"
    assert not out.exists()


def test_invalid_utf8_stdin_is_a_user_error(tmp_path):
    out = tmp_path / "p.bin"
    proc = subprocess.run(
        [sys.executable, "-m", "gtrans.cli", "--in", "-", "--out", str(out)],
        input=_NOT_UTF8,
        capture_output=True,
        env=_child_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr == b"<stdin>:2:8: input is not valid UTF-8\n"
    assert not out.exists()


def test_line_ends_of_a_file_are_read_as_in_text_mode(tmp_path):
    src, out = tmp_path / "p.src", tmp_path / "p.bin"
    src.write_bytes(b"db 1\r\ndb 2\rdb 3\n")
    report = translate(TranslatorConfig(source=str(src), output=str(out)))
    assert report.status == "ok" and out.read_bytes() == b"\x01\x02\x03"


def test_print_order_crosses_phases(tmp_path):
    source = '@print "second"\n#print "first"\ndb 0\n'
    report, _ = run_files(tmp_path, source)
    assert report.diagnostics == ["first", "second"]


def test_print_shows_comparisons_and_logic_as_integers(tmp_path):
    # a bool result would print as 'True' or 'False'
    source = "#print 2 > 1\n@print 1 = 1\n#print 1 < 0, !5, 0 || 2, 2 && 0\ndb 0\n"
    report, _ = run_files(tmp_path, source)
    assert report.diagnostics == ["1", "0 0 1 0", "1"]


_GARBAGE_RULES = (
    "class put x { db x }\n"
    "class INC ( v ) { v + 1 }\n"
    "class push x { db x }\n"
    "class push x , .. rest\n{\n#if (x) % 4 = 0\ndb x\n#endif\n"
    "push rest\n}\n"
)
_GARBAGE_OK = (
    "top :\ni = 0\n#while i < 20\nput i\ndb INC(i), end\ny = top + i\n"
    "push i , 4 , 6 , i + 8\n#if i = 10\nclass put x { dw x }\n"
    "put := push\n#endif\ni = i + 1\n#endw\n@repeat 3\ndb 1\n@until\n"
    "end :\n"
)


@pytest.mark.parametrize(
    "source, limits, status",
    [
        pytest.param(_GARBAGE_OK, Limits(), "ok", id="ok"),
        pytest.param("db 1 / 0\n", Limits(), "user-error", id="eval-error"),
        pytest.param("dd later + 1 / 0\nlater :\n", Limits(), "user-error",
                     id="fixup-error"),
        pytest.param("i = 0\n#while 1\nput i\n#error stop at i\n#endw\n",
                     Limits(), "user-error", id="abort"),
        pytest.param("push 1 , 2 , 3 , 4 , 5\n", Limits(max_depth=2),
                     "user-error", id="depth-limit"),
        # the first 60 seeded programs: ten of each of the six generators,
        # 20 ending ok and 40 with a user error; None means either status
        *(pytest.param(text, Limits(), None, id=f"seed1-{n}")
          for n, text in enumerate(gen_programs(1, 60))),
    ],
)
def test_translate_leaves_no_cyclic_garbage(tmp_path, source, limits, status):
    # whatever a translation keeps (expansions pushed again, compiled
    # lines) or raises is freed by reference counting alone, so no
    # collector pass is owed for it after translate() returns; this is
    # what makes pausing the collector inside translate() safe
    gc.collect()
    gc.disable()
    try:
        report, _ = run_files(
            tmp_path, source, rules=[_GARBAGE_RULES], limits=limits
        )
        assert gc.collect() == 0
    finally:
        gc.enable()
    if status is None:
        assert report.status in ("ok", "user-error"), report.diagnostics
    else:
        assert report.status == status, report.diagnostics


def _in_translate() -> bool:
    """Whether the caller runs inside a translate() call."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not translate.__code__:
        frame = frame.f_back
    return frame is not None


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("outcome", ["ok", "user-error", "internal-error"])
def test_translate_pauses_the_collector(tmp_path, monkeypatch, outcome,
                                        enabled):
    # counts, not times: no automatic collection starts inside the call,
    # though 3,000 data lines, each kept for the whole run, take the
    # allocation count far past the collector's first threshold; and the
    # caller's collector state is back however the run ends
    source = "".join(f"x{k} : dw {k}, x{k}\n" for k in range(3000))
    if outcome == "user-error":
        source += "db 1 / 0\n"
    run_dest_phase = cli.run_dest_phase
    counts = []

    def dest_phase(*args, **kwargs):
        counts.append(gc.get_count()[0])
        if outcome == "internal-error":
            raise RuntimeError("broken")
        return run_dest_phase(*args, **kwargs)

    starts = []

    def on_gc(phase, info):
        if phase == "start" and _in_translate():
            starts.append(info["generation"])

    monkeypatch.setattr(cli, "run_dest_phase", dest_phase)
    gc.collect()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(on_gc)
    try:
        report, _ = run_files(tmp_path, source)
        assert gc.isenabled() == enabled
    finally:
        gc.callbacks.remove(on_gc)
        gc.enable()
    assert report.status == outcome, report.diagnostics
    assert counts[0] > 10 * gc.get_threshold()[0]
    assert starts == []


def test_print_before_a_run_error_is_kept(tmp_path):
    report, data = run_files(tmp_path, "@print 1\n@break\n")
    assert report.status == "user-error" and data is None
    assert report.diagnostics[0] == "1"
    assert report.diagnostics[1].endswith("prog.src:2:1: break outside of a loop")
    assert len(report.diagnostics) == 2


def test_byte_count_matches_raw_length(tmp_path):
    report, data = run_files(tmp_path, "rw 3\ndb 1, 2\n")
    assert report.byte_count == 8 == len(data)


def test_runs_are_identical(tmp_path):
    source = "i = 0\n#while i < 40\ndb i * 3\ni = i + 1\n#endw\n"
    r1, d1 = run_files(tmp_path, source)
    r2, d2 = run_files(tmp_path, source)
    assert d1 == d2 and r1.diagnostics == r2.diagnostics


# -- formats -----------------------------------------------------------------


def image(data, labels=None):
    img = EmitImage()
    img.data[:] = data
    img.labels.update(labels or {})
    return img


def test_raw_format_is_verbatim():
    assert format_output(image(b"\x90"), "raw") == b"\x90"


def test_hex_format_shape():
    data = bytes(range(0x41, 0x41 + 26))
    text = format_output(image(data), "hex").decode()
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("00000000: 41 42 43")
    assert lines[0].endswith("|ABCDEFGHIJKLMNOP|")
    assert lines[1].startswith("00000010: 51 52")
    assert lines[1].endswith("|QRSTUVWXYZ|")


def test_hex_format_empty_image():
    assert format_output(image(b""), "hex") == b""


def test_hex_nonprintable_dots():
    text = format_output(image(b"\x00A\x7f"), "hex").decode()
    assert text.endswith("|.A.|\n")
    text = format_output(image(b"\x1f\x20\x7e\x80\xff"), "hex").decode()
    assert text == "00000000: 1f 20 7e 80 ff" + " " * 35 + "|. ~..|\n"


def test_listing_format(tmp_path):
    source = "greet db 'H', 'i'\nrw 2\n"
    report, _ = run_files(tmp_path, source, format="listing")
    rows = (tmp_path / "prog.bin").read_text().splitlines()
    assert rows[0].startswith("00000000  48 69")
    assert rows[0].endswith("greet db 'H' , 'i'")
    assert rows[1].startswith("00000002  00 00 00 00")
    assert rows[1].endswith("rw 2")
    assert "labels:" in rows and "  00000000  greet" in rows


def test_listing_wraps_long_spans(tmp_path):
    report, _ = run_files(tmp_path, "rb 20\n", format="listing")
    out = (tmp_path / "prog.bin").read_text()
    rows = [r for r in out.splitlines() if r[:8].strip("0123456789abcdef") == ""]
    assert out.count("rb 20") == 1  # the text appears on the first row only
    assert "00000008" in out and "00000010" in out


# -- exit codes ---------------------------------------------------------------


def test_main_exit_codes(tmp_path, capsys):
    src = tmp_path / "p.src"
    src.write_text("db 1\n")
    out = tmp_path / "p.bin"
    assert main(["--in", str(src), "--out", str(out)]) == 0
    assert main(["--no-such-flag"]) == 1
    src.write_text('#error "nope"\n')
    assert main(["--in", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "nope" in err and "p.src:1:" in err


def test_translator_bug_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # an exception that is no fault of the input ends the run as exit 2,
    # reported by its type, with no traceback and no output written
    def broken(*args):
        raise KeyError("x")

    monkeypatch.setattr("gtrans.cli.run_source_phase", broken)
    report, data = run_files(tmp_path, "db 1\n")
    assert report.status == "internal-error"
    assert report.diagnostics == ["internal error: KeyError: 'x'"]
    assert data is None
    out = tmp_path / "p.bin"
    assert main(["--in", str(tmp_path / "prog.src"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "internal error: KeyError: 'x'\n"
    assert not out.exists()


def test_main_reads_stdin_and_writes_stdout(monkeypatch, capsysbinary):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"db 7\n")))
    assert main(["--in", "-"]) == 0
    assert capsysbinary.readouterr() == (b"\x07", b"")


def _child_env():
    """The environment of a child process that imports the same gtrans
    as this test, installed or not."""
    env = dict(os.environ)
    src = str(Path(gtrans.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def test_entry_point_process(tmp_path):
    # end to end through a real process, stdin to stdout
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "gtrans.cli", "--in", "-", "--format", "hex"],
        input="db 0x90\n",
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("00000000: 90")

    proc = subprocess.run(
        [sys.executable, "-m", "gtrans.cli", "--in", "-"],
        input='#error "boom"\n',
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "boom" in proc.stderr
