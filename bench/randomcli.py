"""random-cli: the grid commands, plus probes and map checks, on the 200
seeded ``gen_random_system`` systems of at most 12 points.

Each command takes a few milliseconds, so ``cli`` dispatch and
``documents`` parse, decode and emit dominate and the kernels do little. A
change that adds set-up to every object, or that restructures CLI or codec
dispatch, shows its cost here. Every command writes a structured report and
most write an ``-o`` artifact; both are parsed back.
"""

from __future__ import annotations

import random

from coarsekit import corpus
from coarsekit import documents as docs

from harness import envelope
from ops import (
    add_doc,
    add_piece_space,
    add_piece_witnesses,
    bornologous_ops,
    certificate_ops,
    family_doc,
    lift_ops,
    probe_op,
    read_system,
    search_ops,
)

NAME = "random-cli"

# the corpus the acceptance suite uses: generator seeds 0..199; the workload
# seed picks the families, maps, lifted piece and invariant of each system
SYSTEMS = range(200)
LIFTS = ("asdim", "exactness", "pinch", "amenability", "property-a")
TARGET = [str(i) for i in range(4)]


def _ball_target() -> dict:
    """Four points on a line with singletons, radius-1 and radius-2 balls."""
    levels = [[[p] for p in TARGET]]
    for r in (1, 2):
        levels.append([[q for q in TARGET if abs(int(q) - int(p)) <= r] for p in TARGET])
    return envelope("space", {"points": TARGET, "scales": levels})


def _multiplicity(level) -> int:
    counts: dict = {}
    for m in level:
        if len(m) > 1:
            for p in m:
                counts[p] = counts.get(p, 0) + 1
    return max(counts.values(), default=1)


def setup(out, work: str, seed: int) -> list:
    rng = random.Random(seed)
    target = out.json(f"{work}/target.json", _ball_target())
    plan = []
    for k in SYSTEMS:
        d = f"{work}/r{k}"
        sdoc = docs.system_to_doc(corpus.gen_random_system(k))
        add_doc(out, f"{d}/system.json", sdoc)
        ambient = sdoc.body["ambient"]
        pieces = sdoc.body["pieces"]
        fams = []
        for j in range(2):
            pc = rng.choice(pieces)
            level = rng.choice(pc["scales"])
            fams.append((out.json(f"{d}/f{j}.json", family_doc(ambient, level)), level))
        images = {p: rng.choice(TARGET) for p in ambient}
        maps = {"system": {"domain": ambient, "codomain": TARGET, "table": images}}
        for pc in pieces:
            add_piece_space(out, d, pc)
            maps[pc["name"]] = {
                "domain": pc["carrier"],
                "codomain": TARGET,
                "table": {p: images[p] for p in pc["carrier"]},
            }
        for name, body in maps.items():
            out.json(f"{d}/map-{name}.json", envelope("map", body))
        lift_piece = rng.choice(pieces)
        inv = LIFTS[(k + seed) % len(LIFTS)]
        coords = {p: [int(p == q) for q in lift_piece["carrier"]] for p in lift_piece["carrier"]}
        add_piece_witnesses(out, d, ambient, lift_piece, coords, rng, [inv], grid=False)
        # the level-1 members as their own coarsening verify at this bound,
        # so the exhaustive search on at most 12 points finds a witness
        n = _multiplicity(lift_piece["scales"][0]) - 1
        plan.append((d, fams, [pc["name"] for pc in pieces], lift_piece["name"], n, inv, target))
    return plan


def operations(plan) -> list:
    ops = []
    for d, fams, pieces, lift_piece, n, inv, target in plan:
        system_path = f"{d}/system.json"
        sysdoc = read_system(system_path)
        ops += certificate_ops(system_path, sysdoc, fams)
        ops += search_ops(d, [lift_piece], [n])
        ops += lift_ops(system_path, sysdoc, lift_piece, d, n, [inv])
        ops.append(probe_op(system_path, f"{d}/apc.json"))
        parts = [(p, f"{d}/piece-{p}.json", f"{d}/map-{p}.json") for p in pieces]
        ops += bornologous_ops(system_path, f"{d}/map-system.json", parts, target)
    return ops
