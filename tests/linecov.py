"""Line coverage of src/gtrans by the tier-1 suite, without a coverage package.

    python tests/linecov.py [PYTEST_ARGS...]

Runs pytest in this process under sys.settrace and records every line
executed in a src/gtrans/*.py module.  A module's executable lines are
the lines its code objects map instructions to (co_lines()), nested
functions and classes included, less the body of any
'if __name__ == "__main__":' block, found from the module's AST: the
suite imports a module and never runs it as a script.  The report lists
each executable line that never ran as file:line, then one summary
line.  It exits 0 when the suite passed and every executable line ran,
and 1 otherwise.

test_translate_leaves_no_cyclic_garbage is deselected: it asserts that
a translation leaves nothing for gc.collect() to free, and under
sys.settrace every one of its cases fails that check.  PYTEST_ARGS
replace the default selection: the whole tests/ directory, quiet, with
Hypothesis seeded at 0, so the property tests draw the same examples on
every run and the verdict does not depend on a random draw.
"""

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "gtrans"
DESELECTED = "tests/test_cli.py::test_translate_leaves_no_cyclic_garbage"


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction of the module's code objects maps to,
    outside the body of an 'if __name__ == "__main__":' block."""
    text = path.read_text()
    lines: set[int] = set()
    codes = [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"):
            lines.difference_update(
                range(node.body[0].lineno, node.body[-1].end_lineno + 1)
            )
    return lines


def run_traced(pytest_args) -> tuple[int, dict[str, set[int]]]:
    """(pytest exit status, executed lines by file) of one traced run."""
    import pytest

    files = {str(p) for p in PACKAGE.glob("*.py")}
    executed: dict[str, set[int]] = {f: set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), executed


def main(argv) -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    args = argv or [str(REPO / "tests"), "-q", "-p", "no:cacheprovider",
                    "--hypothesis-seed=0"]
    status, executed = run_traced([*args, "--deselect", DESELECTED])
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - executed[str(path)])
        total += len(lines)
        missed += len(unrun)
        for line in unrun:
            print(f"{path.relative_to(REPO)}:{line}")
    print(
        f"{total - missed} of {total} executable lines in "
        f"{PACKAGE.relative_to(REPO)} ran; {missed} did not "
        f"(pytest exit status {status})"
    )
    return 0 if status == 0 and missed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
