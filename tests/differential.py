"""Seeded differential of two gtrans source trees through cli.translate().

    python tests/differential.py OLD_SRC NEW_SRC [--count N] [--seed S]

Each tree runs in its own interpreter over the same programs from
helpers.gen_programs: half from a brace-heavy line pool, half '#'/'@'
control flow.  A run's status, diagnostics and output bytes are compared
program by program.  The report counts the programs that agree, by
status, and groups the ones that differ by their pair of statuses and
last diagnostics, positions stripped.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

def run_side(count, seed):
    """One JSON line per program: [status, diagnostics, output hex]."""
    from gtrans.cli import TranslatorConfig, translate
    from gtrans.engine import Limits
    from helpers import gen_programs

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # diagnostics name the same file on both sides
        src, out = Path("t.s"), Path("t.out")
        for text in gen_programs(seed, count):
            src.write_text(text)
            out.unlink(missing_ok=True)
            config = TranslatorConfig(
                source=str(src),
                output=str(out),
                limits=Limits(max_loop=50, max_depth=8),
            )
            try:
                report = translate(config)
                row = [report.status, report.diagnostics]
            except Exception as exc:  # an escape is a result here
                row = [f"raised {type(exc).__name__}", []]
            row.append(out.read_bytes().hex() if out.exists() else "")
            print(json.dumps(row))


def _key(row):
    diag = row[1][-1] if row[1] else ""
    return row[0], re.sub(r"^\S+:\d+:\d+: ", "", diag)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--count", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.side:
        run_side(args.count, args.seed)
        return
    sides = []
    for tree in (args.old, args.new):
        env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve()))
        cmd = [sys.executable, __file__, "--side",
               "--count", str(args.count), "--seed", str(args.seed)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              check=True)
        sides.append([json.loads(line) for line in proc.stdout.splitlines()])
    same, differ = Counter(), Counter()
    for old, new in zip(*sides):
        if old == new:
            same[old[0]] += 1
        else:
            differ[_key(old), _key(new)] += 1
    print("identical:", dict(same))
    print("different:", sum(differ.values()))
    for (old, new), n in differ.most_common():
        print(f"{n:6}  {old[0]}: {old[1]}\n        -> {new[0]}: {new[1]}")


if __name__ == "__main__":
    main()
