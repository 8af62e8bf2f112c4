"""Pipeline benchmark for gtrans: seeded workloads through translate().

Run from the repository root (standard library only, no install step):

    python3 pipebench/run.py --workload asm --seed 1 --seconds 35 --trace 0
    python3 pipebench/run.py --workload all --trace 1

Each workload runs in its own single-threaded child process (worker.py)
that generates the inputs from the seed, translates them again and again
through ``gtrans.cli.translate()`` and checks every output against the
generator's own reference image.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it are
the same figures for people, with units, sample counts and quartiles.

Exit status 0 means the benchmark ran, whatever ``correct`` says; any
other status means it could not run, and then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("asm", "dest_loop", "macro")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "translate_s": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "lexer.s": "s",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "source_phase.self_s": "s",
    "source_phase.stream_lines": "count",
    "classes.resolve.calls": "count",
    "classes.resolve.s": "s",
    "classes.match.calls": "count",
    "classes.match_per_resolve": "ratio",
    "classes.resolve.hit_ratio": "ratio",
    "classes.expand_calls.calls": "count",
    "classes.expand_calls.s": "s",
    "engine.push.calls": "count",
    "engine.max_depth": "count",
    "engine.build_structure.calls": "count",
    "engine.build_structure.s": "s",
    "expr.calls": "count",
    "expr.s": "s",
    "expr.reuse_ratio": "ratio",
    "dest_phase.self_s": "s",
    "dest_phase.bytes": "count",
    "dest_phase.guards.s": "s",
    "dest_phase.guards.regions": "count",
    "dest_phase.guards.dropped": "count",
    "cli.format.s": "s",
    "cli.self_s": "s",
    "trace.translate_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing: dict and set layouts, and so their timings,
    # do not change from one process to the next
    env["PYTHONHASHSEED"] = "0"
    return env


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import gtrans.cli, each in a fresh interpreter, and the
    host-speed loop's seconds in each of those interpreters.

    One untimed import first, so compiled bytecode is cached as it is
    for any installed copy.
    """
    imports, loops = [], []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_timer.py")],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing gtrans.cli failed:\n{proc.stderr}")
        if k:
            seconds, loop_s = map(float, proc.stdout.split())
            imports.append(seconds)
            loops.append(loop_s)
    return imports, loops


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               spans: str | None) -> dict:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work")
    try:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", workdir,
        ]
        if spans:
            cmd += ["--spans", spans]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s"
            ) from None
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker failed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run still uses it


def end_to_end(res: dict, setup: tuple[list[float], list[float]]) -> dict:
    imports, import_loops = setup
    translate_s = hostspeed.corrected(
        statistics.median(res["untraced_s"]), statistics.mean(res["loop_s"])
    )
    return {
        "setup_s": hostspeed.corrected(
            statistics.median(imports), statistics.mean(import_loops)
        ),
        "translate_s": translate_s,
        "lines_per_s": res["input_lines"] / translate_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def describe(res: dict) -> list[str]:
    props = ", ".join(f"{k} {_fmt(v)}" for k, v in res["properties"].items())
    lines = [
        f"== {res['workload']}  seed {res['seed']}  input {res['input_lines']} lines",
        f"   python {res['python']}  nproc {res['nproc']}  "
        f"compiled lexer {res['compiled_lexer']}",
        f"   generator: {props}",
    ]
    failed = len(res["failures"])
    lines.append(
        f"   fail_ratio {failed}/{res['attempted']} = "
        f"{failed / res['attempted']:.4g} (translations not ok or not "
        "equal to the reference)"
    )
    lines += [f"   FAIL: {msg}" for msg in res["failures"][:5]]
    return lines


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def describe_end_to_end(res: dict, setup, metrics: dict) -> list[str]:
    ref = hostspeed.REFERENCE_LOOP_S
    imports, import_loops = setup
    s1, s3 = _quartiles(imports)
    t = res["untraced_s"]
    q1, q3 = _quartiles(t)
    loops = res["loop_s"]
    return [
        f"   setup_s     {metrics['setup_s']:.5f} s  wall median of "
        f"{len(imports)} fresh imports {statistics.median(imports):.5f} s "
        f"(q1 {s1:.5f}, q3 {s3:.5f}) * {ref} / mean loop "
        f"{statistics.mean(import_loops):.4f} s",
        f"   translate_s {metrics['translate_s']:.4f} s  wall median of "
        f"{len(t)} translations {statistics.median(t):.4f} s "
        f"(q1 {q1:.4f}, q3 {q3:.4f}) * {ref} / mean loop "
        f"{statistics.mean(loops):.4f} s (of {len(loops)})",
        f"   lines_per_s {metrics['lines_per_s']:.1f} lines/s  "
        f"({res['input_lines']} lines / translate_s)",
        f"   peak_rss_mb {metrics['peak_rss_mb']:.1f} MB  (worker process)",
    ]


def describe_per_layer(res: dict) -> list[str]:
    per_layer = res["per_layer"]
    traced = res["traced_s"]
    lines = [
        f"   traced translations {len(traced)}, untraced {len(res['untraced_s'])}"
        " (medians; counts identical in every translation)",
    ]
    for name, unit in PER_LAYER_UNITS.items():
        if name in per_layer:
            lines.append(f"   {name:30s} {_fmt(per_layer[name]):>14s} {unit}")
    total = sum(res["self_s"].values())
    shares = sorted(res["self_s"].items(), key=lambda kv: -kv[1])
    lines.append(
        "   self-time share of traced translate_s: "
        + ", ".join(f"{k} {v / total:.1%}" for k, v in shares if total)
    )
    if res["absent"]:
        lines.append("   absent (not traced): " + ", ".join(res["absent"]))
    lines += [f"   TRACE FAIL: {msg}" for msg in res["trace_problems"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; "
                         f"{HELD_OUT_SEED} is held out for checking claims)")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--spans", metavar="PATH",
                    help="with --trace 1 and one workload: write all spans "
                         "to PATH as JSON lines")
    args = ap.parse_args(argv)
    if not (SRC / "gtrans" / "cli.py").is_file():
        print(f"pipebench: no gtrans sources under {SRC}", file=sys.stderr)
        return 2
    if args.spans and (args.workload == "all" or not args.trace):
        print("pipebench: --spans needs --trace 1 and one workload",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [
            run_worker(name, args.seed, args.seconds, args.trace, args.spans)
            for name in names
        ]
        setup = ([], []) if args.trace else measure_setup()
    except BenchError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 1

    correct = True
    metrics: dict = {}
    for res in results:
        for line in describe(res):
            print(line)
        correct &= not res["failures"]
        prefix = f"{res['workload']}." if args.workload == "all" else ""
        if args.trace:
            for line in describe_per_layer(res):
                print(line)
            correct &= not res["trace_problems"] and bool(res["per_layer"])
            values = res["per_layer"]
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(res, setup)
            for line in describe_end_to_end(res, setup, values):
                print(line)
            units = END_TO_END_UNITS
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values.get(name, 0), "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
