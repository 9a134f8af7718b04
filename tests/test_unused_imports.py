"""No module of the package imports a name it never reads.

The toolchain has no linter, so this reads each module's syntax tree: every
name an import statement binds must be read somewhere in the module. The
``__init__`` modules are left out, since their imports are the re-exported
API.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coarsekit"


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
