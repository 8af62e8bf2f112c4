"""Command-line driver.

Rule files and the source file form one translation unit: the rules are
simply read first, so a rule file is ordinary input that happens to hold
class definitions.  The unit runs through both phases and the image is
written in one of three formats.  Exit codes: 0 for a clean run, 1 for
any problem in the input or the invocation, 2 when an internal invariant
fails (that one is a bug here, not in the user's program).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Optional

from .classes import ClassTable
from .dest_phase import EmitImage, run_dest_phase
from .engine import Limits
from .errors import InternalError, TranslationError, UsageError, UserAbort
from .expr import Value
from .lexer import tokenize_lines
from .source_phase import run_source_phase


@dataclass
class TranslatorConfig:
    rule_files: list[str] = field(default_factory=list)
    source: str = "-"
    output: str = "-"
    format: str = "raw"
    endian: str = "little"
    defines: dict[str, Value] = field(default_factory=dict)
    strict_overflow: bool = False
    limits: Limits = field(default_factory=Limits)


@dataclass
class RunReport:
    status: str  # "ok" | "user-error" | "internal-error"
    byte_count: int = 0
    diagnostics: list[str] = field(default_factory=list)


_EXIT_CODES = {"ok": 0, "user-error": 1, "internal-error": 2}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise UsageError(message)


def _parse_define(text: str) -> tuple[str, Value]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise UsageError(f"--define wants NAME=VALUE, got '{text}'")
    try:
        return name, int(raw, 0)
    except ValueError:
        return name, raw


def parse_args(argv) -> TranslatorConfig:
    parser = _Parser(prog="gtrans", description=__doc__.splitlines()[0])
    parser.add_argument("--rules", action="append", default=[], metavar="PATH",
                        help="rule file read before the input; repeatable")
    parser.add_argument("--in", dest="source", required=True, metavar="PATH",
                        help="source file, or - for stdin")
    parser.add_argument("--out", dest="output", default="-", metavar="PATH",
                        help="output file, or - for stdout (default)")
    parser.add_argument("--format", choices=("raw", "hex", "listing"),
                        default="raw")
    parser.add_argument("--endian", choices=("little", "big"),
                        default="little")
    parser.add_argument("--define", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="preset a symbol in both phases; repeatable")
    parser.add_argument("--max-loop", type=int, metavar="N")
    parser.add_argument("--max-depth", type=int, metavar="N")
    parser.add_argument("--strict-overflow", action="store_true",
                        help="reject values that do not fit their unit")
    ns = parser.parse_args(list(argv))
    limits = Limits()
    if ns.max_loop is not None:
        limits.max_loop = ns.max_loop
    if ns.max_depth is not None:
        limits.max_depth = ns.max_depth
    return TranslatorConfig(
        rule_files=list(ns.rules),
        source=ns.source,
        output=ns.output,
        format=ns.format,
        endian=ns.endian,
        defines=dict(_parse_define(d) for d in ns.define),
        strict_overflow=ns.strict_overflow,
        limits=limits,
    )


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, payload: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(payload)


def translate(config: TranslatorConfig) -> RunReport:
    """Run the whole pipeline; never writes output on failure."""
    report = RunReport("ok")
    diags = report.diagnostics
    try:
        lines = []
        for path in config.rule_files:
            lines.extend(tokenize_lines(_read(path), path))
        name = "<stdin>" if config.source == "-" else config.source
        lines.extend(tokenize_lines(_read(config.source), name))
        stream = run_source_phase(
            lines, dict(config.defines), ClassTable(), diags, config.limits
        )
        image = run_dest_phase(
            stream,
            config.defines,
            endian=config.endian,
            strict=config.strict_overflow,
            diagnostics=diags,
            limits=config.limits,
        )
        _write(config.output, format_output(image, config.format))
    except UserAbort:
        report.status = "user-error"  # already reported by the directive
    except (TranslationError, OSError) as exc:
        diags.append(str(exc))
        report.status = "user-error"
    except (InternalError, RecursionError) as exc:
        diags.append(f"internal error: {exc}")
        report.status = "internal-error"
    else:
        report.byte_count = len(image.data)
    return report


# -- output formats ---------------------------------------------------------


def _ascii(chunk: bytes) -> str:
    return "".join(chr(b) if 0x20 <= b < 0x7F else "." for b in chunk)


def _hex_dump(data: bytes) -> str:
    out = []
    for off in range(0, len(data), 16):
        chunk = data[off : off + 16]
        cells = " ".join(f"{b:02x}" for b in chunk)
        out.append(f"{off:08x}: {cells:<47}  |{_ascii(chunk)}|")
    return "\n".join(out) + ("\n" if out else "")


def _listing(image: EmitImage) -> str:
    out = []
    for span in image.spans:
        text = span.line.render()
        for row, off in enumerate(range(span.start, span.end, 8)):
            chunk = bytes(image.data[off : min(off + 8, span.end)])
            cells = " ".join(f"{b:02x}" for b in chunk)
            tail = f"  {text}" if row == 0 else ""
            out.append(f"{off:08x}  {cells:<23}{tail}")
    if image.labels:
        out.append("")
        out.append("labels:")
        for name, off in sorted(image.labels.items(), key=lambda kv: (kv[1], kv[0])):
            out.append(f"  {off:08x}  {name}")
    return "\n".join(out) + ("\n" if out else "")


def format_output(image: EmitImage, format: str) -> bytes:
    if format == "raw":
        return bytes(image.data)
    if format == "hex":
        return _hex_dump(bytes(image.data)).encode("utf-8")
    if format == "listing":
        return _listing(image).encode("utf-8")
    raise UsageError(f"unknown output format '{format}'")


def main(argv: Optional[list[str]] = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"gtrans: {exc}", file=sys.stderr)
        return _EXIT_CODES["user-error"]
    report = translate(config)
    for message in report.diagnostics:
        print(message, file=sys.stderr)
    return _EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
