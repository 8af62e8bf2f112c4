"""No gtrans module reaches into another module's private names, every
private name a module defines is read somewhere in it, every name it
exports is read somewhere else, and another module constructs every
error type."""

import ast
from collections import Counter
from pathlib import Path

import gtrans
from gtrans import errors

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


def _reads(node):
    """How often each name is read under node, as a name or attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
        and isinstance(n.ctx, ast.Load)
    )


def dead_privates(source):
    """(line, name) for each private function, class, method and
    module-level constant that source defines but reads nowhere outside
    the definition itself, so a recursive call alone does not count."""
    tree = ast.parse(source)
    defs = [
        (node, node.name)
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            assign = isinstance(node, ast.Assign)
            targets = node.targets if assign else [node.target]
            defs += [
                (node, n.id)
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name)
            ]
    total = _reads(tree)
    return sorted(
        (node.lineno, name)
        for node, name in defs
        if _private(name) and total[name] <= _reads(node)[name]
    )


def test_checker_finds_dead_private_names():
    src = (
        "_LIMIT = 3\n"
        "def _plain(line):\n"
        "    return _plain(line)\n"
        "class Handler:\n"
        "    def content(self):\n"
        "        return _LIMIT\n"
        "    def _unused(self):\n"
        "        pass\n"
    )
    assert dead_privates(src) == [(2, "_plain"), (7, "_unused")]
    # read elsewhere in the module, whether by name or as an attribute
    src = "def _f(): pass\nclass _C:\n    def _m(self): _f()\n_C()._m()\n"
    assert dead_privates(src) == []
    assert dead_privates("_A, _B = 1, 2\nprint(_A)\n") == [(1, "_B")]


def test_no_private_name_is_dead():
    faults = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in dead_privates(path.read_text())
    ]
    assert faults == []


def _exports(tree):
    """The names listed in a module's __all__."""
    return [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
        for name in ast.literal_eval(node.value)
    ]


def unused_imports(source):
    """(line, name) for each name that source imports but neither reads
    by name nor lists in __all__.  'from __future__' imports are exempt."""
    tree = ast.parse(source)
    exported = set(_exports(tree))
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    found.append((node.lineno, name))
    return sorted(found)


def test_checker_finds_unused_imports():
    src = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import os.path\n"
        "from .errors import InternalError, StructureError\n"
        "from .lexer import Line as L, make_line\n"
        "__all__ = ['make_line']\n"
        "def check(line: L):\n"
        "    raise StructureError(system.argv)\n"
    )
    assert unused_imports(src) == [(2, "os"), (3, "os"), (4, "InternalError")]
    # an attribute of the same name is not a read of the import
    assert unused_imports("from x import field\ny = obj.field\n") == [
        (1, "field")
    ]


def test_no_module_imports_an_unused_name():
    faults = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert faults == []


def _reads_through(tree):
    """(module, name) for each name that tree imports from a module or
    reads as an attribute of one: 'from pkg.m import n', 'from .m import
    n' and 'm.n' (or 'pkg.m.n') each give ('m', 'n'), and 'from . import
    n' gives ('', 'n')."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            found.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            if isinstance(value, ast.Name):
                found.add((value.id, node.attr))
            elif isinstance(value, ast.Attribute):
                found.add((value.attr, node.attr))
    return found


def dead_exports(modules, others, package):
    """(module, name) for each name in the __all__ of a module in modules
    that no other source, in modules or in others, reads through that
    module: imports from it or reads as its attribute.  Both map a path
    to its source text; '__init__.py' is the package itself.  Dunder
    names such as __version__ are left to the tools that read them."""
    sources = {**others, **modules}
    trees = {path: ast.parse(text) for path, text in sources.items()}
    reads = {path: _reads_through(tree) for path, tree in trees.items()}

    def names(path):  # what the module is called where it is read
        stem = Path(path).stem
        return (package, "") if stem == "__init__" else (stem,)

    return sorted(
        (path, name)
        for path in modules
        for name in _exports(trees[path])
        if not name.endswith("__")
        and not any(
            (module, name) in read
            for p, read in reads.items()
            if p != path
            for module in names(path)
        )
    )


def test_checker_finds_dead_exports():
    modules = {
        "__init__.py": "from .a import imported\n__all__ = ['imported']\n",
        "a.py": (
            "__all__ = ['used', 'imported', 'own', 'unused', '__version__']\n"
            "def used(): pass\ndef own(): pass\nown()\n"
        ),
        "b.py": (
            "__all__ = ['helper']\n"
            "from .a import imported\nimport pkg.a\npkg.a.used()\n"
        ),
    }
    others = {"t.py": "from pkg.b import helper\nfrom pkg import imported\n"}
    assert dead_exports(modules, others, "pkg") == [
        ("a.py", "own"), ("a.py", "unused")
    ]
    assert dead_exports(modules, {}, "pkg") == [
        ("__init__.py", "imported"), ("a.py", "own"), ("a.py", "unused"),
        ("b.py", "helper"),
    ]
    # a read counts only through the exporting module: not as the same
    # attribute of another object, nor as an import from another module
    modules = {"a.py": "__all__ = ['ClassDef', 'helper']\n"}
    others = {
        "t.py": "import ast\nast.ClassDef\nobj.helper()\n"
                "from pkg.b import helper\n",
    }
    assert dead_exports(modules, others, "pkg") == [
        ("a.py", "ClassDef"), ("a.py", "helper")
    ]


def test_every_export_is_read_elsewhere():
    root = Path(__file__).resolve().parent.parent
    modules = {
        str(path.relative_to(SRC)): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    others = {
        str(path): path.read_text()
        for folder in ("tests", "pipebench")
        for path in sorted((root / folder).glob("*.py"))
    }
    assert len(others) >= 10
    assert dead_exports(modules, others, "gtrans") == []


def called_names(source):
    """Every name that source calls, by name or as an attribute."""
    return {
        n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and isinstance(n.func, (ast.Name, ast.Attribute))
    }


def test_checker_finds_called_names():
    src = "raise EvalError('x')\nerrors.LexError()\nfailing(EmitError, 'm')\n"
    assert called_names(src) == {"EvalError", "LexError", "failing"}


def test_every_error_type_is_constructed_elsewhere():
    # an error type that no other module constructs is one no run can end in
    defined = [
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj.__module__ == errors.__name__
    ]
    assert "TranslationError" in defined
    called = set().union(
        *(
            called_names(path.read_text())
            for path in sorted(SRC.rglob("*.py"))
            if path.name != "errors.py"
        )
    )
    assert [name for name in defined if name not in called] == []
