"""Run one coarsekit benchmark workload and print its metrics.

    python3 bench/run.py --workload grid-cli --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and nothing needs building. The workload runs in a fresh
interpreter with a fixed ``PYTHONHASHSEED`` and without
``COARSEKIT_PINCH_TOL``, single-threaded, calling ``coarsekit.cli.main``
in-process on documents written during set-up under ``.bench_work/``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass, and the spans are written to ``.bench_work/``. The line before
it records the settings in effect.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"
TOL_ENV_VAR = "COARSEKIT_PINCH_TOL"


def pin_environment(argv) -> None:
    """Re-execute in a fresh interpreter unless the environment is pinned."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED and TOL_ENV_VAR not in os.environ:
        return
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop(TOL_ENV_VAR, None)
    env.pop("PYTHONPATH", None)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)


def load_workloads() -> dict:
    import grid
    import harmonic
    import randomcli

    return {m.NAME: m for m in (grid, harmonic, randomcli)}


def run(wl, seed: int, seconds: float, traced: bool) -> dict:
    from harness import SETUP_REPEATS, Documents, HostClock, Tally, peak_rss_mib, run_op, run_rounds, timing_metrics
    from tracing import Tracer

    work = os.path.join(ROOT, ".bench_work", f"{wl.NAME}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if traced else None
    host = HostClock()
    setup_s = []  # (raw seconds, scaled to the reference speed)
    setup_problems = []
    first = Documents()

    def set_up(out):
        gc.collect()
        host.sample()
        t0 = time.perf_counter()
        plan = wl.setup(out, work, seed)
        t1 = time.perf_counter()
        host.sample()
        setup_s.append((t1 - t0, (t1 - t0) * host.scale(t0, t1)))
        return plan

    def set_up_again():
        again = Documents()
        set_up(again)
        if again != first and not setup_problems:
            setup_problems.append("a repeated set-up built other documents than the first")

    try:
        if tracer:
            tracer.install()
            tracer.active = True
        plan = set_up(first)
        if tracer:
            tracer.active = False
            tracer.uninstall()
        first.write()
        ops = wl.operations(plan)
        for op in ops:  # each operation then rewrites its output file in place
            if op.output:
                open(op.output, "a", encoding="utf-8").close()
        run_op(ops[0], None)  # warm-up, left out of the timings
        tally = Tally()
        if not traced:
            # set-up is timed again between passes, so that its median
            # samples the host over the whole run, not one moment of it
            rounds = run_rounds(ops, seconds, tally, between=set_up_again, host=host)
            host.sample()
            while len(setup_s) < SETUP_REPEATS:
                set_up_again()
            scaled = [d * host.scale(t, t + d) for t, d in zip(tally.starts, tally.durations)]
            metrics = {"setup_s": (statistics.median(s for _, s in setup_s), "s")}
            metrics.update(timing_metrics(scaled))
            metrics["peak_rss_mb"] = (peak_rss_mib(), "MiB")
            raw = {"setup_s": statistics.median(r for r, _ in setup_s)}
            raw.update({k: v for k, (v, _) in timing_metrics(tally.durations).items()})
            tallies = [tally]
        else:
            rounds = run_rounds(ops, seconds, tally)
            setup_part = tracer.snapshot()
            tracer.install()
            traced_tally = Tally()
            run_rounds(ops, 0, traced_tally, rounds=rounds, tracer=tracer)
            tracer.uninstall()
            total = tracer.snapshot()
            metrics = {}
            for name, value in setup_part.items():
                unit = "count" if name.endswith("_calls") else "s"
                metrics[name] = (value + (total[name] - value) / rounds, unit)
            overhead = (sum(traced_tally.durations) - sum(tally.durations)) / rounds
            metrics["trace.overhead_s"] = (overhead, "s")
            tracer.write(os.path.join(ROOT, ".bench_work", f"trace-{wl.NAME}-seed{seed}.tsv.gz"))
            tallies = [tally, traced_tally]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kinds: dict = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    from coarsekit.invariants.pinch import comparison_tolerance
    from harness import REFERENCE_S

    settings = {
        "workload": wl.NAME,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "pinch_tolerance": str(comparison_tolerance()),
        "python": platform.python_version(),
        "rounds": rounds,
        "setups": len(setup_s),
        "ops_per_round": len(ops),
        "ops_by_kind": kinds,
        "reference_s": REFERENCE_S,
        "calibration_s": statistics.median(host.seconds),
    }
    if not traced:
        settings["unscaled"] = raw
    print("settings " + json.dumps(settings, sort_keys=True))
    problems = setup_problems + [p for t in tallies for p in t.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for f in (f for t in tallies for f in t.failures):
        print(f"operation failed: {f}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coarsekit", "__init__.py")):
        print(f"bench: no coarsekit sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment(argv)
    sys.path[:0] = [SRC, HERE]
    import coarsekit

    if not os.path.abspath(coarsekit.__file__).startswith(SRC + os.sep):
        print(f"bench: coarsekit imported from {coarsekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    result = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
