"""Bytecodes per stage of one seeded benchmark translation.

    python tests/opcount.py [WORKLOAD ...] [--seed S] [--functions N]

Prints the number of lines of Python in src/gtrans first.  Then it
translates each named workload of pipebench/workloads.py (all three by
default, seed 1) once through cli.translate() under sys.settrace with
f_trace_opcodes, and prints the opcode events of each stage: lex
(tokenize_lines), source (run_source_phase), guards
(resolve_guarded_regions), dest (the rest of run_dest_phase), format
(format_output) and other (cli.translate around them), then the total and
the total per input line.  Every Python frame a stage runs counts
toward it, the standard library's included.  With --functions N, each
stage also lists the N functions that ran the most of its events.

A second, untraced translation of the same workload, after a full
collection, counts per generation the automatic collections of the
cyclic garbage collector that start inside translate().  translate()
pauses the collector for the call, so the line checks the pause and
should read 0 / 0 / 0.

Each workload starts cold: its traced translation begins with an empty
expression shape cache (expr._SHAPES), so its counts do not depend on
which workloads ran before it in the same process.

Unlike a time, the counts repeat exactly: two runs, or runs under
different PYTHONHASHSEED values, print the same numbers.  They explain
a time and do not replace one: a C-level copy or a dict operation is one
event, and garbage collection is invisible to them.  A run is slow,
about half a minute for asm, so the script is not part of the test
suite.  It exits 1 if a translation does not end ok with the workload's
reference image, or if a collection starts inside translate().
"""

import argparse
import gc
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STAGES = ("lex", "source", "guards", "dest", "format", "other")


def count(translate, config, entry_points) -> tuple[dict, object]:
    """(opcode events by stage and function, the translation's report) of
    one traced translate(config).  entry_points maps a stage's function to
    its name; a frame counts toward the innermost stage whose function is
    running.  The events are keyed by (stage, code object)."""
    stages = {fn.__code__: name for fn, name in entry_points.items()}
    cells: dict[tuple, list[int]] = {}
    running = ["other"]

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        stage = stages.get(frame.f_code)
        if stage is not None:
            running.append(stage)
        cell = cells.setdefault((running[-1], frame.f_code), [0])

        def local(frame, event, arg):
            if event == "opcode":
                cell[0] += 1
            elif event == "return" and stage is not None:  # or unwinds
                running.pop()
            return local

        return local

    sys.settrace(on_call)
    try:
        report = translate(config)
    finally:
        sys.settrace(None)
    return {key: cell[0] for key, cell in cells.items()}, report


def gc_collections(translate, config) -> list[int]:
    """Collections per generation that start inside one untraced
    translate(config), run after a full collection with the collector on."""
    done = [0, 0, 0]

    def on_gc(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not translate.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            done[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        translate(config)
    finally:
        gc.callbacks.remove(on_gc)
    return done


def _where(code) -> str:
    return f"{Path(code.co_filename).name}:{code.co_firstlineno} {code.co_qualname}"


def main(argv) -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "pipebench")]
    import workloads
    from gtrans import expr
    from gtrans.cli import TranslatorConfig, format_output, translate
    from gtrans.dest_phase import resolve_guarded_regions, run_dest_phase
    from gtrans.lexer import tokenize_lines
    from gtrans.source_phase import run_source_phase

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(workloads.NAMES),
                    metavar="WORKLOAD", help=", ".join(workloads.NAMES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--functions", type=int, default=0, metavar="N",
                    help="list the N costliest functions of each stage")
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
    sources = list((REPO / "src" / "gtrans").glob("*.py"))
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources)
    print(f"src/gtrans: {lines:,} lines of Python in {len(sources)} files")
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
            expr._SHAPES.clear()  # start cold, whatever ran before
            events, report = count(translate, config, entry_points)
            problem = (f"status {report.status}: {report.diagnostics[:3]}"
                       if report.status != "ok"
                       else work.check(output.read_bytes()))
            done = gc_collections(translate, config)
        total = sum(events.values())
        print(f"{name} seed {args.seed}: {work.input_lines:,} input lines")
        for stage in STAGES:
            mine = sorted(((n, code) for (s, code), n in events.items()
                           if s == stage), key=lambda e: -e[0])
            print(f"  {stage:<8}{sum(n for n, _ in mine):>14,}")
            for n, code in mine[: args.functions]:
                print(f"    {n:>14,}  {_where(code)}")
        print(f"  {'total':<8}{total:>14,}  "
              f"({total / work.input_lines:,.0f} per input line)")
        print(f"  gc collections inside translate() (paused) {done[0]:,} / "
              f"{done[1]:,} / {done[2]:,} (untraced run)")
        if any(done):
            problem = problem or "the collector ran inside translate()"
        if problem:
            print(f"  FAILED: {problem}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
