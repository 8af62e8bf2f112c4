"""No gtrans module reaches into another module's private names."""

import ast
from pathlib import Path

import gtrans

SRC = Path(gtrans.__file__).parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def reach_ins(source):
    """(line, what) for each private name of a gtrans module that source
    imports or reads: 'from .x import _y', 'from ._x import y',
    'import gtrans._x' and 'x._y' where x names a gtrans module."""
    found = []
    modules = set()  # names bound to gtrans modules
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if not (node.level or (node.module or "").startswith("gtrans")):
                continue
            if any(map(_private, (node.module or "").split("."))):
                found.append((node.lineno, node.module))
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                if node.module in (None, "gtrans"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] != "gtrans":
                    continue
                if any(map(_private, path)):
                    found.append((node.lineno, alias.name))
                modules.add(alias.asname or path[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_checker_finds_each_kind_of_reach_in():
    assert reach_ins("from ._pylex import scan\n") == [(1, "_pylex")]
    assert reach_ins("from .lexer import Token, _make\n") == [(1, "_make")]
    assert reach_ins("from . import lexer\nlexer._make()\n") == [
        (2, "lexer._make")
    ]
    assert reach_ins("import gtrans.expr\ngtrans.expr._Compiler\n") == [
        (2, "gtrans.expr._Compiler")
    ]
    assert reach_ins("import gtrans._x\n") == [(1, "gtrans._x")]
    assert reach_ins("from gtrans import expr as e\ne._NO_NAMES\n") == [
        (2, "e._NO_NAMES")
    ]
    # a module's own privates and other packages' names are not reach-ins
    assert reach_ins("def _f(): pass\n_f()\nimport os\nos._exit\n") == []
    assert reach_ins("from __future__ import annotations\n") == []


def test_no_module_reaches_into_another():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 8
    faults = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in files
        for line, what in reach_ins(path.read_text())
    ]
    assert faults == []
