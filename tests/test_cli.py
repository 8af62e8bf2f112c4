"""Driver tests: argument parsing, file plumbing, formats, exit codes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gtrans
from gtrans.cli import (
    RunReport,
    TranslatorConfig,
    format_output,
    main,
    parse_args,
    translate,
)
from gtrans.dest_phase import EmitImage
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


def test_missing_input_rejected():
    with pytest.raises(UsageError, match="--in"):
        parse_args([])


def test_unknown_flag_rejected():
    with pytest.raises(UsageError, match="--bogus"):
        parse_args(["--in", "p", "--bogus"])


def test_bad_format_rejected():
    with pytest.raises(UsageError, match="invalid choice"):
        parse_args(["--in", "p", "--format", "elf"])


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


def test_print_order_crosses_phases(tmp_path):
    source = '@print "second"\n#print "first"\ndb 0\n'
    report, _ = run_files(tmp_path, source)
    assert report.diagnostics == ["first", "second"]


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


def test_entry_point_process(tmp_path):
    # end to end through a real process, stdin to stdout; the child
    # imports the same gtrans as this test, installed or not
    env = dict(os.environ)
    src = str(Path(gtrans.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
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
