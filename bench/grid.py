"""grid-cli: CLI commands on c0 integer-grid systems of 49 to 125 points.

Each system has a few large pieces, and every command reloads its system, so
the time goes to star-depth certification (``spaces.validate_space`` over the
``families`` star kernel) and to the verifiers run on lifted witnesses.
"""

from __future__ import annotations

import random

from coarsekit import corpus
from coarsekit import documents as docs

from ops import (
    add_doc,
    add_piece_space,
    add_piece_witnesses,
    certificate_ops,
    family_doc,
    lift_ops,
    read_system,
    search_ops,
)

NAME = "grid-cli"

# (s_max, box, families for bounded and star, commands on the system,
# pieces searched, invariants lifted from the largest proper piece). The
# 49-point system carries the full command set; the 81-point one adds loads
# at about three times the cost, and one star on the 125-point system keeps
# the largest load in every pass. Its lifted pinch check (about 7 s) is left
# out to keep a pass near 10 s. Six families on the 49-point system put the
# median in the middle of its 0.15 s loads, away from the cheap searches and
# the lighter lifts.
SYSTEMS = (
    (2, 3, 6, ("validate", "bounded", "star"), ("grid1",), ("asdim", "exactness", "pinch", "amenability", "property-a")),
    (4, 1, 2, ("validate", "bounded", "star"), ("grid1", "grid2", "grid3"), ("asdim",)),
    (3, 2, 2, ("star",), ("grid1", "grid2"), ()),
)
SEARCH_BOUNDS = (1, 2)


def _coords(p: str) -> tuple:
    return tuple(int(v) for v in p.split(","))


def _ball_family(rng, ambient, points, count) -> list:
    """l1 balls of radius 1 or 2 around random points of one piece, plus two
    ambient singletons."""
    members = []
    for c in rng.sample(points, min(count, len(points))):
        r = rng.choice((1, 2))
        cc = _coords(c)
        members.append([q for q in points if sum(abs(a - b) for a, b in zip(_coords(q), cc)) <= r])
    members += [[p] for p in rng.sample(ambient, 2)]
    return members


def setup(out, work: str, seed: int) -> list:
    """Generate every system and add its documents to ``out``; returns the plan the
    operation list is built from."""
    rng = random.Random(seed)
    plan = []
    for s_max, box, nfam, commands, searched, lifts in SYSTEMS:
        d = f"{work}/c0-{s_max}-{box}"
        doc = docs.system_to_doc(corpus.gen_c0(s_max, box))
        add_doc(out, f"{d}/system.json", doc)
        ambient = doc.body["ambient"]
        pieces = {pc["name"]: pc for pc in doc.body["pieces"]}
        fams = []
        for k in range(nfam):
            piece = rng.choice(list(pieces.values()))
            members = _ball_family(rng, ambient, piece["carrier"], rng.randint(3, 5))
            fams.append((out.json(f"{d}/f{k}.json", family_doc(ambient, members)), members))
        for name in searched:
            add_piece_space(out, d, pieces[name])
        lift_piece = list(pieces.values())[-2]
        coords = {p: _coords(p) for p in lift_piece["carrier"]}
        add_piece_witnesses(out, d, ambient, lift_piece, coords, rng, lifts, grid=True)
        n = rng.choice(SEARCH_BOUNDS)
        plan.append((f"{d}/system.json", commands, fams, searched, lift_piece["name"], d, n, lifts))
    return plan


def operations(plan) -> list:
    ops = []
    for system_path, commands, fams, searched, piece, d, n, lifts in plan:
        sysdoc = read_system(system_path)
        ops += certificate_ops(system_path, sysdoc, fams, commands)
        ops += search_ops(d, searched, [n])
        ops += lift_ops(system_path, sysdoc, piece, d, n, lifts)
    return ops
