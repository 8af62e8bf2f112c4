"""One workload in one process: generate, translate repeatedly, check.

Started by run.py with gtrans' source directory on PYTHONPATH.  Prints one
JSON object on stdout.  Untraced mode times ``translate()`` back to back
and runs the host-speed loop (hostspeed.py) before the first translation
and after each one.  Traced mode alternates untraced and traced
translations, so the tracing overhead is a ratio of neighbouring samples;
its times are not corrected.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import tracing
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="write every span here as JSON lines")
    args = ap.parse_args()

    work = workloads.generate(args.workload, args.seed)
    rules = os.path.join(args.workdir, "rules.gt")
    source = os.path.join(args.workdir, "prog.src")
    output = os.path.join(args.workdir, "prog.out")
    with open(rules, "w", encoding="utf-8") as fh:
        fh.write(work.rules)
    with open(source, "w", encoding="utf-8") as fh:
        fh.write(work.source)

    import gtrans.cli
    import gtrans.lexer

    config = gtrans.cli.TranslatorConfig(
        rule_files=[rules], source=source, output=output, format=work.format
    )
    tracer = tracing.Tracer()
    failures: list[str] = []
    attempted = 0

    def attempt(traced: bool) -> float:
        nonlocal attempted
        attempted += 1
        if os.path.exists(output):
            os.remove(output)
        gc.collect()
        if traced:
            report, seconds = tracer.run(attempted, gtrans.cli.translate, config)
        else:
            t0 = time.perf_counter()
            report = gtrans.cli.translate(config)
            seconds = time.perf_counter() - t0
        if report.status != "ok":
            failures.append(f"status {report.status}: {report.diagnostics[:3]}")
        else:
            with open(output, "rb") as fh:
                problem = work.check(fh.read())
            if problem:
                failures.append(problem)
        return seconds

    # Every translation is a sample, the first one too: a command-line
    # user pays the first call's cost on every invocation.  A translation
    # starts only if it should end before the deadline, and at least
    # three untraced samples are taken.
    untraced: list[float] = []
    traced: list[float] = []
    summaries: list[dict] = []
    trace_problems: list[str] = []
    loops: list[float] = []
    start = time.perf_counter()
    if not args.trace:
        loops.append(hostspeed.loop_seconds())
    while True:
        t0 = time.perf_counter()
        untraced.append(attempt(False))
        if not args.trace:
            loops.append(hostspeed.loop_seconds())
        else:
            traced.append(attempt(True))
            try:
                summaries.append(tracer.summarize(attempted))
            except tracing.TraceError as exc:
                trace_problems.append(str(exc))
        now = time.perf_counter()
        if len(untraced) >= 3 and now + (now - t0) > start + args.seconds:
            break

    result = {
        "workload": work.name,
        "seed": work.seed,
        "attempted": attempted,
        "failures": failures,
        "input_lines": work.input_lines,
        "properties": work.properties,
        "untraced_s": untraced,
        "loop_s": loops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "compiled_lexer": getattr(gtrans.lexer, "USING_COMPILED", None),
    }
    if args.trace:
        try:
            per_layer = tracing.combine(summaries) if summaries else {}
        except tracing.TraceError as exc:
            trace_problems.append(str(exc))
            per_layer = {}
        if per_layer:
            traced_s = statistics.median(traced)
            per_layer["trace.translate_s"] = traced_s
            per_layer["trace.overhead_ratio"] = traced_s / statistics.median(untraced)
        result.update(
            traced_s=traced,
            per_layer=per_layer,
            self_s={
                k: statistics.median(s["self_s"].get(k, 0.0) for s in summaries)
                for k in tracer.kinds
            },
            trace_problems=trace_problems,
            absent=tracer.absent,
        )
        if args.spans:
            tracer.write_spans(args.spans)
    json.dump(result, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
