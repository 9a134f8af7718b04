"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each coarsekit module under
every name a coarsekit module binds them to (``from .spaces import
validate_space`` in ``colimit`` included), so calls between layers are seen
as well as calls from the CLI. Every wrapped call is counted and timed where
it happens: its duration, its self time (duration minus the time covered by
wrapped calls inside it) and, per metric, whether it is the outermost call of
the metric's group. Each call outside the ``families`` kernels is also kept
as a span (name, start, end, parent) in memory and written out when the run
ends; the kernels run hundreds of thousands of times a pass, so they are
counted and timed in place without a stored span."""

from __future__ import annotations

import gzip
import sys
import time
from functools import wraps

INVARIANTS = ("asdim", "exactness", "pinch", "amenability", "property_a")
MAP_CHECKS = (
    "bornologous_check",
    "system_bornologous_check",
    "close_check",
    "close_report",
    "coarse_equivalence_check",
    "slowly_oscillating_verify",
    "system_slowly_oscillating_verify",
    "slowly_oscillating_search",
)
GENERATORS = ("gen_c0", "gen_disjoint_union", "gen_unit_interval", "gen_random_system")


def _codecs(decoders: bool) -> set:
    """The ``doc_to_*`` decoders, or the ``*_to_doc`` encoders."""
    from coarsekit import documents

    return {
        f"documents.{name}"
        for name, fn in vars(documents).items()
        if callable(fn) and (name.startswith("doc_to_") if decoders else name.endswith("_to_doc"))
    }


# metric name -> (how, span names); "self" sums self time, "time" sums the
# outermost spans of the group, "calls" counts spans
def layer_metrics() -> dict:
    out = {
        "cli.self_s": ("self", {"cli.main"}),
        "documents.parse_s": ("time", {"documents.parse_document"}),
        "documents.decode_s": ("self", _codecs(decoders=True)),
        "documents.emit_s": ("time", _codecs(decoders=False) | {"documents.emit_document"}),
        "spaces.validate_s": ("time", {"spaces.validate_space"}),
        "spaces.validate_calls": ("calls", {"spaces.validate_space"}),
        "spaces.restrict_calls": ("calls", {"spaces.restrict"}),
        "colimit.validate_s": ("self", {"colimit.validate_system"}),
        "colimit.bounded_s": ("time", {"colimit.colimit_bounded"}),
        "colimit.star_s": ("time", {"colimit.colimit_star"}),
        "families.star_calls": ("calls", {"families.star_set", "families.star_family"}),
        "families.star_s": ("time", {"families.star_set", "families.star_family"}),
        "families.refine_calls": ("calls", {"families.refines", "families.essentially_refines"}),
        "families.refine_s": ("time", {"families.refines", "families.essentially_refines"}),
    }
    for inv in INVARIANTS:
        for step in ("verify", "lift"):
            out[f"invariants.{inv}.{step}_s"] = ("time", {f"invariants.{inv}.{inv}_{step}"})
    out["invariants.asdim.search_s"] = ("time", {"invariants.asdim.asdim_search"})
    out["invariants.apc.probe_s"] = ("time", {"invariants.apc.apc_probe"})
    out["maps.check_s"] = ("time", {f"maps.{f}" for f in MAP_CHECKS})
    out["corpus.gen_s"] = ("time", {f"corpus.{f}" for f in GENERATORS})
    return out


class Tracer:
    def __init__(self):
        self.active = False
        metrics = layer_metrics()
        self.metric_names = list(metrics)
        self.how = [how for how, _ in metrics.values()]
        names = sorted({n for _, group in metrics.values() for n in group} | {"cli.main"})
        self.nid = {n: i for i, n in enumerate(names)}
        self.names = names
        # metric indices each name feeds
        self.feeds = [[k for k, (_, group) in enumerate(metrics.values()) if n in group] for n in names]
        self.value = [0] * len(metrics)
        self.depth = [0] * len(metrics)
        self.frames: list = []  # [nid, start, child_ns, span index or -1]
        self.spans: list = []  # (nid, start, end, parent span index)
        self._patched: list = []

    def _wrap(self, name: str, fn):
        nid = self.nid[name]
        feeds = self.feeds[nid]
        how = self.how
        value, depth, frames, spans = self.value, self.depth, self.frames, self.spans
        keep = not name.startswith("families.")
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = -1
            if keep:
                parent = next((f[3] for f in reversed(frames) if f[3] >= 0), -1)
                span = len(spans)
                spans.append((nid, 0, 0, parent))
            for k in feeds:
                depth[k] += 1
            frame = [nid, clock(), 0, span]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - frame[1]
                if frames:
                    frames[-1][2] += dur
                if span >= 0:
                    spans[span] = (nid, frame[1], end, spans[span][3])
                for k in feeds:
                    depth[k] -= 1
                    if how[k] == "calls":
                        value[k] += 1
                    elif how[k] == "self":
                        value[k] += dur - frame[2]
                    elif depth[k] == 0:
                        value[k] += dur

        return traced

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "coarsekit" or n.startswith("coarsekit.")}
        for name in self.names:
            module, fname = name.rsplit(".", 1)
            orig = getattr(mods[f"coarsekit.{module}"], fname)
            traced = self._wrap(name, orig)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, traced)
                    elif isinstance(val, dict) and not attr.startswith("__"):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._patched.append((val, k, orig))
                                val[k] = traced

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Per-layer totals so far: seconds, or a count for ``*_calls``."""
        return {
            m: v if how == "calls" else v / 1e9
            for m, how, v in zip(self.metric_names, self.how, self.value)
        }

    def write(self, path: str) -> None:
        """One line per stored span: index, parent, name, start and end in ns."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{self.names[nid]}\t{start}\t{end}\n")
