"""Replay one benchmark workload's operation list and print a digest of it.

    python3 scripts/replay_digest.py --workload grid-cli --seed 7

Run from the root of a source checkout. The workload's documents are built
with the modules under ``bench/`` (imported, never changed) and written under
the relative directory ``.replay_work/``, so every path in an argv is the same
in any checkout. Each operation of one pass then runs once, in order, as an
in-process ``coarsekit.cli.main`` call. The printed sha256 covers, per
operation, its argv, exit code, stdout, stderr and the bytes of its ``-o``
file. Two checkouts that print the same digest for a workload and seed gave
byte-identical answers on every operation of it.

With ``--passes N`` the pass runs N times in the one process, with its
documents written afresh each time, and prints one line per pass. A later
pass reads the same bytes again, so it is served the values the CLI decoded
in the first, as far as the CLI still keeps them; every line matching shows
that no command changes a decoded value.

Like ``bench/run.py``, the script re-executes itself with ``PYTHONHASHSEED=0``
and without ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".replay_work"
HASH_SEED = "0"


def pin_environment() -> None:
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("PYTHONPATH", None)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def replay(workload: str, seed: int) -> tuple[str, int]:
    """The digest over one pass of the workload, and its operation count."""
    import grid
    import harmonic
    import randomcli
    from harness import Documents, call_cli

    modules = {m.NAME: m for m in (grid, harmonic, randomcli)}
    if workload not in modules:
        raise SystemExit(f"replay: unknown workload {workload!r}; one of {sorted(modules)}")
    wl = modules[workload]
    work = os.path.join(WORK, f"{workload}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        out = Documents()
        plan = wl.setup(out, work, seed)
        out.write()
        ops = wl.operations(plan)
        digest = hashlib.sha256()

        def feed(tag: str, data: bytes) -> None:
            digest.update(f"{tag} {len(data)}\n".encode())
            digest.update(data)

        for op in ops:
            if op.output:
                with open(op.output, "w", encoding="utf-8"):
                    pass
            res = call_cli(op.argv)
            feed("argv", "\0".join(op.argv).encode())
            feed("rc", str(res.rc).encode())
            feed("stdout", res.out.encode())
            feed("stderr", res.err.encode())
            if op.output:
                with open(op.output, "rb") as fh:
                    feed("output", fh.read())
        return digest.hexdigest(), len(ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1, help="passes in this one process")
    args = ap.parse_args()
    pin_environment()
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    for _ in range(args.passes):
        digest, count = replay(args.workload, args.seed)
        print(f"{args.workload} seed {args.seed}: {count} operations, sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
