"""Operation lists, the timed loop and the checks shared by every workload.

An operation is one ``coarsekit.cli.main(argv)`` call made in-process with
stdout and stderr captured in memory. Only that call is timed; the output
checks that follow it run outside the timing. A run repeats the whole
operation list until the requested number of seconds has passed and at least
``MIN_OPS`` operations were timed, so every run attempts whole lists.

The host's CPU speed moves by a third and more over minutes, the same for
every process on it. ``HostClock`` runs a fixed calibration loop between
operations and scales each measured time to a reference speed, at which the
loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import io
import json
import os
import re
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import coarsekit.cli

MIN_OPS = 100
SETUP_REPEATS = 5
REFERENCE_S = 0.009  # calibration loop time at the reference speed
SAMPLE_EVERY_S = 0.5
WINDOW_S = 2.0  # host phases last tens of seconds and more
VERDICT_EXIT = {"verified": 0, "refuted": 1, "undecided-at-truncation": 2}


class CheckFailed(Exception):
    """An operation produced an output the harness does not accept."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def canonical(obj) -> str:
    """The document emission rule, written out here: sorted keys, two-space
    indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class Documents(dict):
    """The documents one set-up builds, path to text. Building them is the
    timed set-up; ``write`` puts them on disk outside the timing. Creating a
    file where files were just deleted can cost twenty times the system time
    of creating one elsewhere (ext4 on the VM of the README's figures), which
    says nothing about coarsekit."""

    def add(self, path: str, text: str) -> str:
        self[path] = text
        return path

    def json(self, path: str, obj) -> str:
        return self.add(path, canonical(obj))

    def write(self) -> None:
        for path, text in self.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def envelope(kind: str, body) -> dict:
    return {"kind": kind, "version": "1", "body": body}


def read_canonical(path: str) -> dict:
    """Parse an emitted document and require that emitting it again gives the
    same bytes."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return reparse(text, path)


def reparse(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{what}: not JSON ({exc})") from None
    require(canonical(doc) == text, f"{what}: re-emission changes the bytes")
    return doc


def frac(v) -> Fraction:
    return Fraction(v) if isinstance(v, str) else Fraction(int(v))


# host speed


def calibration_loop():
    """Fixed pure-Python work that uses the interpreter the way coarsekit
    does (frozenset stars and containment, pretty-printed JSON, Fractions)
    but shares no code with it, so its time tracks the host, not the
    program."""
    pts = [(x, y) for x in range(-5, 6) for y in range(-5, 6)]

    def balls(r):
        return [frozenset(p for p in pts if abs(p[0] - c[0]) + abs(p[1] - c[1]) <= r) for c in pts]

    l1, l2 = balls(1), balls(2)
    stars = [frozenset().union(m, *[w for w in l2 if m & w]) for m in l1]
    fits = sum(any(m <= w for w in l2) for m in stars)
    text = json.dumps({"members": [sorted(f"{a},{b}" for a, b in m) for m in l1[:60]]}, indent=2, sort_keys=True)
    total = sum((Fraction(1, i) for i in range(1, 200)), Fraction(0))
    return fits, len(text), total


class HostClock:
    """Calibration samples (start, seconds) taken between operations."""

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []

    def sample(self) -> None:
        """The faster of two loops, with the collector off, so that a
        collection or a one-off stall does not read as a slow host."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            calibration_loop()
            t1 = time.perf_counter()
            calibration_loop()
            t2 = time.perf_counter()
        finally:
            gc.enable()
        self.starts.append(t0)
        self.seconds.append(min(t1 - t0, t2 - t1))

    def due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Reference speed over the host speed: the median sample within
        ``WINDOW_S`` of the interval, or the samples just around it."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = self.seconds[lo:hi]
        if not near:
            before = max(bisect.bisect_right(self.starts, t0) - 1, 0)
            after = min(bisect.bisect_left(self.starts, t1), len(self.starts) - 1)
            near = [self.seconds[before], self.seconds[after]]
        return REFERENCE_S / statistics.median(near)


# reports


def clause(report: dict, name: str) -> dict:
    for c in report["clauses"]:
        if c["name"] == name:
            return c
    raise CheckFailed(f"report has no clause {name!r}")


_CERT = re.compile(r"piece '(?P<piece>[^']+)' at level (?P<level>\d+)$")


def certificate(detail: str) -> tuple[str, int]:
    m = _CERT.search(detail)
    require(m is not None, f"no piece certificate in {detail!r}")
    return m["piece"], int(m["level"])


# operations


@dataclass
class Outcome:
    rc: Optional[int]
    out: str
    err: str
    started: float
    seconds: float
    report: Optional[dict] = None
    artifact: Optional[dict] = None


@dataclass
class Op:
    """One CLI call with a structured report, which is parsed back. ``kind``
    names its class in the workload's make-up; ``output`` is its ``-o``
    path, if any; ``check`` inspects the outcome and raises CheckFailed."""

    kind: str
    argv: list
    check: Optional[Callable[[Outcome], None]] = None
    output: Optional[str] = None
    expect_rc: Optional[tuple] = None

    def __post_init__(self):
        self.argv = [*self.argv, "--format", "structured"]
        if self.output:
            self.argv += ["-o", self.output]


def call_cli(argv) -> Outcome:
    """Time one in-process CLI call; a raised exception is an outcome too."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = coarsekit.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 64
    except Exception:  # a traceback is a failed operation, not a crash
        rc = None
        err.write(traceback.format_exc())
    return Outcome(rc, out.getvalue(), err.getvalue(), t0, time.perf_counter() - t0)


def inspect(op: Op, res: Outcome) -> None:
    """Checks that hold for every operation, then the operation's own."""
    doc = reparse(res.out, f"{op.kind} report")
    require(doc.get("kind") == "report", f"{op.kind}: not a report")
    res.report = doc["body"]
    verdict = res.report["verdict"]
    require(VERDICT_EXIT[verdict] == res.rc, f"{op.kind}: verdict {verdict} but exit code {res.rc}")
    if op.expect_rc is not None:
        require(res.rc in op.expect_rc, f"{op.kind}: exit {res.rc}, expected {op.expect_rc}")
    if op.output and os.path.exists(op.output) and os.path.getsize(op.output):
        res.artifact = read_canonical(op.output)
        kept = res.report.get("artifacts", {})
        require(
            any(a["body"] == res.artifact["body"] for a in kept.values()),
            f"{op.kind}: -o artifact differs from the report's artifact",
        )
    if op.check is not None:
        op.check(res)


@dataclass
class Tally:
    starts: list = field(default_factory=list)
    durations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed output checks
    failures: list = field(default_factory=list)  # failed operations


def run_op(op: Op, tally: Optional[Tally], tracer=None) -> None:
    """Run one operation; with a tally, record its time, a failure or a
    failed check."""
    if op.output and os.path.exists(op.output):
        os.truncate(op.output, 0)  # kept, not deleted: see Documents
    if tracer is not None:
        tracer.active = True
    try:
        res = call_cli(op.argv)
    finally:
        if tracer is not None:
            tracer.active = False
    if tally is None:
        return
    tally.attempted += 1
    tally.starts.append(res.started)
    tally.durations.append(res.seconds)
    if res.rc not in (0, 1, 2):
        tally.failed += 1
        if len(tally.failures) < 5:
            tally.failures.append(f"{op.kind} {op.argv}: exit {res.rc}\n{res.err[-2000:]}")
        return
    try:
        inspect(op, res)
    except CheckFailed as exc:
        if len(tally.problems) < 5:
            tally.problems.append(f"{op.kind} {op.argv}: {exc}")
    except Exception:  # output the checks could not even read is wrong too
        if len(tally.problems) < 5:
            tally.problems.append(f"{op.kind} {op.argv}: {traceback.format_exc(limit=-3)}")


def run_rounds(
    ops, seconds: float, tally: Tally, rounds: Optional[int] = None, tracer=None, between=None, host=None
) -> int:
    """Whole passes over the list: a fixed count, or until both the time and
    the operation floor are reached. ``between`` runs before every pass but
    the first; ``host`` samples the host speed between operations."""
    start = time.perf_counter()
    done = 0
    while True:
        if done and between is not None:
            between()
        for op in ops:
            if host is not None:
                host.due()
            run_op(op, tally, tracer)
        done += 1
        if rounds is not None:
            if done >= rounds:
                return done
        elif time.perf_counter() - start >= seconds and tally.attempted >= MIN_OPS:
            return done


def timing_metrics(d: list) -> dict:
    out = {
        "verdicts_per_s": (len(d) / sum(d), "1/s"),
        "verdict_s.p50": (statistics.median(d), "s"),
    }
    if len(d) >= MIN_OPS:
        out["verdict_s.p90"] = (statistics.quantiles(d, n=10, method="inclusive")[8], "s")
    return out


def peak_rss_mib() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
