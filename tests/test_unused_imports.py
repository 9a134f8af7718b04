"""No module of the package imports a name it never reads, or defines a
constant or a private helper that nothing reads.

The toolchain has no linter, so this reads each module's syntax tree: every
name an import statement binds must be read somewhere in the module, and
every upper-case name a module assigns at its top level, and every function
or class it defines there under a name starting with an underscore, must be
read, bare or as an attribute, somewhere under ``src``, ``tests``,
``scripts`` or ``bench``. The ``__init__`` modules are left out, since
their imports are the re-exported API. Every local name a function of a
file under those directories binds must be read in that function.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coarsekit"
READERS = ("src", "tests", "scripts", "bench")


def unused_imports(source: str) -> list[str]:
    """The names bound by an import and never read, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_check_reports_each_unused_name():
    source = "import os.path\nfrom typing import Optional as Opt, Sequence\n\nx: Sequence\n"
    assert unused_imports(source) == ["os (line 1)", "Opt (line 2)"]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    found = {
        str(p.relative_to(PACKAGE)): names
        for p in modules
        if (names := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert found == {}


def names_read(source: str) -> set[str]:
    """Every name the source reads, bare or as an attribute."""
    tree = ast.parse(source)
    loads = [n for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load)]
    names = {n.id for n in loads if isinstance(n, ast.Name)}
    return names | {n.attr for n in loads if isinstance(n, ast.Attribute)}


def unread_constants(source: str, read: set[str]) -> list[str]:
    """The upper-case names assigned at the source's top level and not in
    read, with their lines."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
            if name.id.isupper() and name.id not in read:
                found.setdefault(name.id, node.lineno)
    return [f"{name} (line {line})" for name, line in found.items()]


def test_the_check_reports_each_unread_constant():
    source = "A = 1\nB: int = 2\n_C, d = 3, 4\nE = A\nif A:\n    F = 5\n"
    assert unread_constants(source, names_read(source)) == [
        "B (line 2)",
        "_C (line 3)",
        "E (line 4)",
    ]


def read_anywhere() -> set[str]:
    """Every name read, bare or as an attribute, by a file under READERS."""
    sources = [p.read_text(encoding="utf-8") for d in READERS for p in (ROOT / d).rglob("*.py")]
    return set().union(*map(names_read, sources))


def unread_in_package(check) -> dict[str, list[str]]:
    """Per package module, what check finds unread by any file under READERS."""
    read = read_anywhere()
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    return {
        str(p.relative_to(PACKAGE)): names
        for p in modules
        if (names := check(p.read_text(encoding="utf-8"), read))
    }


def test_every_module_constant_is_read_somewhere():
    assert unread_in_package(unread_constants) == {}


def unread_private_helpers(source: str, read: set[str]) -> list[str]:
    """The functions and classes defined at the source's top level under a
    name starting with an underscore and not in read, with their lines."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(source).body
        if isinstance(node, defs) and node.name.startswith("_") and node.name not in read
    ]


def test_the_check_reports_each_unread_private_helper():
    source = (
        "def _a():\n    return _b\n\n"
        "def _b():\n    pass\n\n"
        "class _C:\n    def _d(self):\n        pass\n\n"
        "def e():\n    pass\n"
    )
    assert unread_private_helpers(source, names_read(source)) == ["_a (line 1)", "_C (line 7)"]


def test_every_private_helper_is_read_somewhere():
    assert unread_in_package(unread_private_helpers) == {}


def unread_locals(source: str) -> list[str]:
    """Per function, the names it binds and never reads, with their lines.

    A function's reads include those of the functions, lambdas and
    comprehensions inside it; an augmented assignment counts as a read, and
    names starting with an underscore are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for n in nodes:
            if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                read.add(n.target.id)
            elif isinstance(n, (ast.Global, ast.Nonlocal)):
                read.update(n.names)
        bound = {}
        for n in nodes:
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                bound.setdefault(n.id, n.lineno)
            elif isinstance(n, ast.ExceptHandler) and n.name:
                bound.setdefault(n.name, n.lineno)
        found += [
            f"{fn.name}: {name} (line {line})"
            for name, line in sorted(bound.items(), key=lambda item: item[1])
            if not name.startswith("_") and name not in read
        ]
    return found


def test_the_check_reports_each_unread_local():
    source = (
        "def f(xs):\n"
        "    n = len(xs)\n"
        "    total = 0\n"
        "    for i, x in enumerate(xs):\n"
        "        total += x\n"
        "    try:\n"
        "        _unused, kept = xs\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    return [kept for _ in xs]\n"
    )
    assert unread_locals(source) == ["f: n (line 2)", "f: i (line 4)", "f: exc (line 8)"]


def test_no_function_binds_a_local_it_never_reads():
    files = sorted(p for d in READERS for p in (ROOT / d).rglob("*.py"))
    found = {
        str(p.relative_to(ROOT)): names
        for p in files
        if (names := unread_locals(p.read_text(encoding="utf-8")))
    }
    assert found == {}
