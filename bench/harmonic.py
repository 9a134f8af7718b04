"""harmonic-cli: CLI commands on unit-interval instances of 8 to 16 pieces.

The pieces are many, small and nested, so the time for a load goes to
``colimit.validate_system``, which restricts and certifies again for every
overlapping pair, quadratic in the number of pieces: hundreds of
``validate_space`` calls on small spaces rather than a few on large ones.
The many map checks on piece chains are cheap and keep the median apart from
the loads.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from coarsekit import corpus
from coarsekit import documents as docs

from harness import Op, clause, envelope, require
from ops import (
    add_doc,
    add_piece_space,
    bornologous_ops,
    certificate_ops,
    family_doc,
    probe_op,
    read_system,
)

NAME = "harmonic-cli"

# n_max of each instance: loads cost about 0.06, 0.2 and 0.6 s
SIZES = (8, 12, 16)


def _run_family(rng, points, count) -> list:
    """Runs of two or three consecutive harmonic points of one piece."""
    members = []
    for _ in range(count):
        k = rng.randint(2, 3)
        i = rng.randrange(len(points) - k + 1)
        members.append(points[i : i + k])
    return members


def setup(out, work: str, seed: int) -> list:
    rng = random.Random(seed)
    plan = []
    for n in SIZES:
        d = f"{work}/ui-{n}"
        inst = corpus.gen_unit_interval(n)
        sdoc = docs.system_to_doc(inst.system)
        add_doc(out, f"{d}/system.json", sdoc)
        add_doc(out, f"{d}/reciprocal-map.json", docs.map_to_doc(inst.f))
        add_doc(out, f"{d}/constant-map.json", docs.map_to_doc(inst.g))
        for k, chain in enumerate(inst.piece_chains, start=1):
            add_doc(out, f"{d}/piece-chain-{k}.json", docs.space_to_doc(chain))
        add_doc(out, f"{d}/colimit-chain.json", docs.space_to_doc(inst.colimit_chain))
        ambient = sdoc.body["ambient"]
        table = docs.map_to_doc(inst.f).body
        for pc in sdoc.body["pieces"]:
            add_piece_space(out, d, pc)
            body = {
                "domain": pc["carrier"],
                "codomain": table["codomain"],
                "table": {p: table["table"][p] for p in pc["carrier"]},
            }
            out.json(f"{d}/map-{pc['name']}.json", envelope("map", body))
        fams = []
        for k in range(2):
            piece = rng.choice(sdoc.body["pieces"][1:])
            members = _run_family(rng, piece["carrier"], rng.randint(2, 4))
            fams.append((out.json(f"{d}/f{k}.json", family_doc(ambient, members)), members))
        plan.append((d, n, fams, [pc["name"] for pc in sdoc.body["pieces"]]))
    return plan


def _chain(path: str) -> list:
    """Levels of a chain document over integer points, as sets of ints."""
    with open(path, encoding="utf-8") as fh:
        body = json.load(fh)["body"]
    return [[{int(p) for p in m} for m in level] for level in body["scales"]]


def _close_ops(d: str, n: int) -> list:
    f, g = f"{d}/reciprocal-map.json", f"{d}/constant-map.json"
    colimit = _chain(f"{d}/colimit-chain.json")

    def colimit_refuted(res):
        # the widest member has diameter M, so the first point whose image
        # pair {m, 1} fits no member is 1/(M+2)
        require(res.rc == 1, "closeness on the colimit chain is not refuted")
        for j, level in enumerate(colimit, start=1):
            widest = max(max(m) - min(m) for m in level)
            c = clause(res.report, f"level {j}")
            want = f"violated at point '{Fraction(1, widest + 2)}'"
            require(c["detail"] == want, f"colimit level {j}: {c['detail']!r}, expected {want!r}")

    ops = [Op("map-check close", ["map-check", "close", f"{d}/colimit-chain.json", f, g], colimit_refuted)]
    for k in range(1, n + 1):
        path = f"{d}/piece-chain-{k}.json"
        holding = [j for j, level in enumerate(_chain(path), start=1) if any({1, n + 1} <= m for m in level)]

        def piece_close(res, least=holding[0] if holding else None, k=k):
            if least is None:
                require(res.rc == 1, f"piece chain {k}: no level holds 1 and {n + 1}, yet exit {res.rc}")
                return
            require(res.rc == 0, f"piece chain {k}: exit {res.rc}, expected verified at level {least}")
            first = next(c["name"] for c in res.report["clauses"] if c["ok"])
            require(first == f"level {least}", f"piece chain {k}: first close at {first}, expected level {least}")

        ops.append(Op("map-check close", ["map-check", "close", path, f, g], piece_close))
    return ops


def operations(plan) -> list:
    ops = []
    for d, n, fams, pieces in plan:
        system_path = f"{d}/system.json"
        sysdoc = read_system(system_path)
        ops += certificate_ops(system_path, sysdoc, fams)
        ops.append(probe_op(system_path, f"{d}/apc.json"))
        ops += _close_ops(d, n)
        parts = [(p, f"{d}/piece-{p}.json", f"{d}/map-{p}.json") for p in pieces]
        # the deepest piece chain as target, the same for every seed, so that
        # the cost of the map checks around the median does not depend on it
        ops += bornologous_ops(system_path, f"{d}/reciprocal-map.json", parts, f"{d}/piece-chain-{n}.json")
    return ops

