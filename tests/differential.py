"""Seeded differential of two gtrans source trees through cli.translate().

    python tests/differential.py OLD_SRC NEW_SRC [--count N] [--seed S]
    python tests/differential.py --rev REV NEW_SRC [--count N] [--seed S]
    python tests/differential.py --rev OLD_REV --rev NEW_REV

A side is a source tree (a directory holding the gtrans package) or, with
--rev, a git revision of this repository: its src is extracted with
'git archive' into a temp dir.  Revisions fill the old side first.
--rev needs a git checkout; elsewhere (a 'git archive' copy, say) the
script exits 1, and two source trees must be given instead.
Each side runs in its own interpreter over the same programs from
helpers.gen_programs: a brace-heavy line pool, '#'/'@' control flow,
class overloads, nested loops with breaks, classes, aliases and
substitutions defined inside loops, and '@' lines re-emitted by '#'
loops, in turn.  A run's status,
diagnostics and output bytes are compared program by program, and for a
run that ends ok also its '--format listing' text, which shows the byte
range each emitting line produced.  The
report counts the programs that agree, by status, and groups the ones
that differ by their pair of statuses and last diagnostics, positions
stripped.  Each group lists its
first program indices: program i is item i of gen_programs(seed, count).
"""

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

SHOWN = 5  # program indices listed per difference group


def run_side(count, seed):
    """One JSON line per program: [status, diagnostics, output hex],
    plus the listing text when the status is ok."""
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
            if row[0] == "ok":  # the same program again, as a listing
                out.unlink()
                translate(replace(config, format="listing"))
                row.append(out.read_text() if out.exists() else "")
            print(json.dumps(row))


def _key(row):
    diag = row[1][-1] if row[1] else ""
    return row[0], re.sub(r"^\S+:\d+:\d+: ", "", diag)


def extract_rev(rev, into):
    """The src tree of a git revision of this repository, under into."""
    repo = Path(__file__).resolve().parent.parent
    try:
        archive = subprocess.run(
            ["git", "-C", str(repo), "archive", "--format=tar", rev, "src"],
            capture_output=True, check=True,
        ).stdout
    except subprocess.CalledProcessError as exc:
        why = exc.stderr.decode(errors="replace").strip().splitlines()
        sys.exit(f"--rev {rev}: {why[0] if why else 'git archive failed'}; "
                 "--rev needs a git checkout, so pass two source trees "
                 "instead")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src"


def run_tree(tree, count, seed):
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve()))
    cmd = [sys.executable, __file__, "--side",
           "--count", str(count), "--seed", str(seed)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="SRC")
    ap.add_argument("--rev", action="append", default=[],
                    help="a git revision whose src is a side, old side first")
    ap.add_argument("--count", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.side:
        run_side(args.count, args.seed)
        return
    if len(args.rev) + len(args.trees) != 2:
        ap.error("give two sides: source trees, --rev revisions, or both")
    with tempfile.TemporaryDirectory() as tmp:
        trees = [extract_rev(rev, Path(tmp, str(k)))
                 for k, rev in enumerate(args.rev)] + args.trees
        sides = [run_tree(tree, args.count, args.seed) for tree in trees]
    same, differ = Counter(), defaultdict(list)
    for index, (old, new) in enumerate(zip(*sides)):
        if old == new:
            same[old[0]] += 1
        else:
            differ[_key(old), _key(new)].append(index)
    print("identical:", dict(same))
    print("different:", sum(map(len, differ.values())))
    groups = sorted(differ.items(), key=lambda item: -len(item[1]))
    for (old, new), indices in groups:
        print(f"{len(indices):6}  {old[0]}: {old[1]}\n        -> {new[0]}: {new[1]}")
        print("        programs", " ".join(map(str, indices[:SHOWN])))


if __name__ == "__main__":
    main()
