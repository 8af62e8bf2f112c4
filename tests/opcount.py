"""Bytecodes per stage of one seeded benchmark translation.

    python tests/opcount.py [WORKLOAD ...] [--seed S]

Translates each named workload of pipebench/workloads.py (all three by
default, seed 1) once through cli.translate() under sys.settrace with
f_trace_opcodes, and prints the opcode events of each stage: lex
(tokenize_lines), source (run_source_phase), guards
(resolve_guarded_regions), dest (the rest of run_dest_phase), format
(format_output) and other (cli.translate around them), then the total and
the total per input line.  Every Python frame a stage runs counts
toward it, the standard library's included.

Unlike a time, the counts repeat exactly: two runs, or runs under
different PYTHONHASHSEED values, print the same numbers.  They explain
a time and do not replace one: a C-level copy or a dict operation is one
event, and garbage collection is invisible to them.  A run is slow,
about half a minute for asm, so the script is not part of the test
suite.  It exits 1 if a translation does not end ok with the workload's
reference image.
"""

import argparse
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STAGES = ("lex", "source", "guards", "dest", "format", "other")


def count(translate, config, entry_points) -> tuple[dict[str, int], object]:
    """(opcode events by stage, the translation's report) of one traced
    translate(config).  entry_points maps a stage's function to its name;
    a frame counts toward the innermost stage whose function is running."""
    stages = {fn.__code__: name for fn, name in entry_points.items()}
    counts = dict.fromkeys(STAGES, 0)
    running = ["other"]

    def local(frame, event, arg):
        if event == "opcode":
            counts[running[-1]] += 1
        return local

    def stage_local(frame, event, arg):
        if event == "opcode":
            counts[running[-1]] += 1
        elif event == "return":  # also when the frame unwinds
            running.pop()
        return stage_local

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        stage = stages.get(frame.f_code)
        if stage is None:
            return local
        running.append(stage)
        return stage_local

    sys.settrace(on_call)
    try:
        report = translate(config)
    finally:
        sys.settrace(None)
    return counts, report


def main(argv) -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "pipebench")]
    import workloads
    from gtrans.cli import TranslatorConfig, format_output, translate
    from gtrans.dest_phase import resolve_guarded_regions, run_dest_phase
    from gtrans.lexer import tokenize_lines
    from gtrans.source_phase import run_source_phase

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(workloads.NAMES),
                    metavar="WORKLOAD", help=", ".join(workloads.NAMES))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    unknown = set(args.workloads).difference(workloads.NAMES)
    if unknown:
        ap.error(f"unknown workload: {', '.join(sorted(unknown))}")
    entry_points = {
        tokenize_lines: "lex",
        run_source_phase: "source",
        resolve_guarded_regions: "guards",
        run_dest_phase: "dest",
        format_output: "format",
    }
    status = 0
    for name in args.workloads:
        work = workloads.generate(name, args.seed)
        with tempfile.TemporaryDirectory() as tmp:
            rules, source, output = (Path(tmp, f) for f in
                                     ("rules.gt", "prog.src", "prog.out"))
            rules.write_text(work.rules, encoding="utf-8")
            source.write_text(work.source, encoding="utf-8")
            config = TranslatorConfig(rule_files=[str(rules)],
                                      source=str(source), output=str(output),
                                      format=work.format)
            counts, report = count(translate, config, entry_points)
            problem = (f"status {report.status}: {report.diagnostics[:3]}"
                       if report.status != "ok"
                       else work.check(output.read_bytes()))
        total = sum(counts.values())
        print(f"{name} seed {args.seed}: {work.input_lines:,} input lines")
        for stage in STAGES:
            print(f"  {stage:<8}{counts[stage]:>14,}")
        print(f"  {'total':<8}{total:>14,}  "
              f"({total / work.input_lines:,.0f} per input line)")
        if problem:
            print(f"  FAILED: {problem}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
