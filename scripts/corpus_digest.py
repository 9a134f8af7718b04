"""Generate corpus instances in-process and print one sha256 per argument set.

    python3 scripts/corpus_digest.py [--repeat N] "c0 --s-max 3 --box 2" "unit-interval --n-max 16"

Run from the root of a source checkout. Each argument is one ``corpus``
command line (generator and options, split on whitespace). It runs as an
in-process ``coarsekit.cli.main(["corpus", *args, "--out-dir", tmp])`` call
into a fresh temporary directory. Over the written files in sorted name
order, one sha256 is fed ``f"{name} {len(data)}\\n"`` and then the file's
bytes. The script prints that digest, the file count and the best of N wall
times of the call (N = 1 by default), each call into its own fresh directory;
every call must give the same digest. Two checkouts that print the same
digest for an argument set wrote byte-identical documents for it. The
digests do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def corpus_digest(args: list[str]) -> tuple[str, int, float]:
    """The digest over the files one corpus command writes, their count and
    the command's wall time in seconds."""
    from coarsekit.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["corpus", *args, "--out-dir", tmp])
        elapsed = time.perf_counter() - start
        if rc != 0:
            raise SystemExit(f"corpus {' '.join(args)}: exit code {rc}")
        digest = hashlib.sha256()
        names = sorted(os.listdir(tmp))
        for name in names:
            with open(os.path.join(tmp, name), "rb") as fh:
                data = fh.read()
            digest.update(f"{name} {len(data)}\n".encode())
            digest.update(data)
    return digest.hexdigest(), len(names), elapsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cases", nargs="+", metavar="ARGS", help="one corpus command line")
    ap.add_argument("--repeat", type=int, default=1, metavar="N", help="calls per case (>= 1)")
    opts = ap.parse_args()
    if opts.repeat < 1:
        ap.error("--repeat must be at least 1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for case in opts.cases:
        runs = [corpus_digest(case.split()) for _ in range(opts.repeat)]
        digest, count, _ = runs[0]
        if any(run[:2] != (digest, count) for run in runs):
            raise SystemExit(f"corpus {case}: the calls wrote different files")
        best = min(run[2] for run in runs)
        print(f"{case}: {count} files, sha256 {digest}, {best:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
