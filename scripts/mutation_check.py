"""Flip each comparison and each ``not`` of one module, one at a time, and
run a named test subset against each mutant.

    python3 scripts/mutation_check.py src/coarsekit/spaces.py tests/test_spaces.py

The module and the tests are paths relative to ``--root`` (the source
checkout by default). The tree under it is copied to a temporary directory
once, and each mutant is written into that copy only, so the checkout is
never changed. A comparison is flipped at its boundary (``<`` and ``<=``,
``>`` and ``>=``) or to its negation (``==`` and ``!=``, ``is`` and ``is
not``, ``in`` and ``not in``); a ``not`` is dropped. A mutant survives when
the tests still pass; a run past ``TIMEOUT_S`` seconds, which a mutant that
loops forever takes, counts as killed.

Each mutant is named by its enclosing function and the expression before
and after, without its line number, so that the names outlive edits
elsewhere in the module. Survivors named in the ``--known`` file (one name
a line, ``#`` starts a comment) are known to be equivalent and reported
apart. The exit code is 0 when every survivor is known, 1 when one is not,
and 2 when the tests fail on the unmutated module.

The scan is too slow for the tier-1 suite: each mutant is one pytest run.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KNOWN = os.path.join(ROOT, "scripts", "mutation_equivalent.txt")
TIMEOUT_S = 300
FLIPS = {
    ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">",
    ast.Eq: "!=", ast.NotEq: "==", ast.Is: "is not", ast.IsNot: "is",
    ast.In: "not in", ast.NotIn: "in",
}
OPERATOR = re.compile(rb"is\s+not|not\s+in|==|!=|<=|>=|<|>|\bis\b|\bin\b")
COPY_SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", ".replay_work"
)


class Mutant(NamedTuple):
    line: int
    name: str  # "qualname: before -> after"
    source: bytes


def _one_line(text: bytes) -> str:
    return " ".join(text.decode().split())


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of the module source, in source order."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    out = []

    def emit(scope: str, node: ast.AST, lo: int, hi: int, new: bytes) -> None:
        a, b = at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)
        before = source[a:b]
        after = before[: lo - a] + new + before[hi - a :]
        name = f"{scope or '<module>'}: {_one_line(before)} -> {_one_line(after)}"
        out.append(Mutant(node.lineno, name, source[:lo] + new + source[hi:]))

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                lo = at(left.end_lineno, left.end_col_offset)
                hi = at(right.lineno, right.col_offset)
                m = OPERATOR.search(source, lo, hi)
                emit(scope, node, m.start(), m.end(), FLIPS[type(op)].encode())
                left = right
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            lo = at(node.lineno, node.col_offset)
            emit(scope, node, lo, lo + len(b"not"), b"")
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, "")
    return sorted(out, key=lambda m: m.line)


def read_known(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        lines = (line.split("#", 1)[0].strip() for line in fh)
        return {line for line in lines if line}


def passes(copy: str, tests: list[str]) -> bool:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(copy, "src"), copy])
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="the module to mutate, relative to the root")
    ap.add_argument("tests", nargs="+", help="pytest arguments, relative to the root")
    ap.add_argument("--root", default=ROOT, help="the tree to copy (default: this checkout)")
    ap.add_argument("--known", default=KNOWN, help="file of known-equivalent mutant names")
    args = ap.parse_args(argv)
    known = read_known(args.known)
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(args.root, copy, ignore=COPY_SKIP)
        target = os.path.join(copy, args.module)
        with open(target, "rb") as fh:
            original = fh.read()
        if not passes(copy, args.tests):
            print(f"{args.module}: the tests fail on the unmutated module", file=sys.stderr)
            return 2
        found = mutants(original)
        survived, equivalent = [], []
        for m in found:
            with open(target, "wb") as fh:
                fh.write(m.source)
            if passes(copy, args.tests):
                label = f"{args.module} {m.name}"
                (equivalent if label in known else survived).append((m.line, label))
    print(
        f"{args.module}: {len(found)} mutants, {len(found) - len(survived) - len(equivalent)} "
        f"killed, {len(survived)} survived, {len(equivalent)} known equivalent"
    )
    for line, label in survived:
        print(f"SURVIVED line {line}: {label}")
    for line, label in equivalent:
        print(f"KNOWN    line {line}: {label}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
