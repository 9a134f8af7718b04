"""Operation groups and piece witnesses shared by the grid and random
workloads.

Piece witnesses are written by hand as document bodies, each valid by
construction, so a lift that does not verify is a wrong answer.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import isqrt

from coarsekit import documents as docs

from checks import (
    SystemDoc,
    check_bounded,
    check_multiplicity,
    check_pinch_geometry,
    check_star,
    check_unit_rows,
)
from harness import Op, call_cli, envelope, require

VERIFIED = (0,)


def add_doc(out, path: str, doc) -> str:
    """Add a library document, emitted by the library's own emitter."""
    return out.add(path, docs.emit_document(doc))


def family_doc(points, members) -> dict:
    return envelope("family", {"points": list(points), "members": [list(m) for m in members]})


# piece witnesses


def exactness_witness(points, level1, eps) -> dict:
    """Uniform weight over the level-1 members holding each point; the
    supports are the level-1 members themselves, and two points sharing a
    member differ by at most 2 in l1."""
    weights = {}
    for p in points:
        holders = [i for i, m in enumerate(level1) if p in m]
        w = str(Fraction(1, len(holders)))
        weights[p] = {f"m{i}": w for i in holders}
    body = {
        "scale": {"level": 1},
        "eps": str(eps),
        "indices": [f"m{i}" for i in range(len(level1))],
        "weights": weights,
        "support_bound": 1,
    }
    return envelope("witness:exactness", body)


def pinch_witness(points, level1, coords) -> dict:
    """Integer coordinates, unit separation off the singletons, and the
    least integer threshold above every level-1 image diameter."""

    def sq(a, b):
        return sum((x - y) ** 2 for x, y in zip(coords[a], coords[b]))

    worst = max((sq(a, b) for m in level1 for a in m for b in m), default=0)
    body = {
        "scale": {"level": 1},
        "sep": [[p] for p in points],
        "c": 1,
        "eps": isqrt(worst) + 1,
        "dim": len(coords[points[0]]),
        "coords": {p: list(coords[p]) for p in points},
        "sep_bound": 1,
    }
    return envelope("witness:pinch", body)


def amenability_witness(level1, eps) -> dict:
    body = {"scale": {"level": 1}, "companion": [list(m) for m in level1], "eps": str(eps), "bound": 1}
    return envelope("witness:amenability", body)


def property_a_witness(points, scale, support, support_bound, eps) -> dict:
    """Each point tags the union of the support members that hold it."""
    sets = {}
    for p in points:
        star = sorted({q for m in support if p in m for q in m} | {p}, key=points.index)
        sets[p] = [[q, 1] for q in star]
    body = {
        "scale": scale,
        "support": [list(m) for m in support],
        "eps": str(eps),
        "n_cap": 1,
        "sets": sets,
        "support_bound": support_bound,
    }
    return envelope("witness:property_a", body)


def add_piece_witnesses(out, d, ambient, piece: dict, coords, rng, invariants, grid: bool) -> None:
    """The piece witnesses the lifts of ``invariants`` read, plus the ambient
    input family of the amenability lift, added to ``out`` under ``d``. The asdim
    witness comes from a search."""
    points, scales = piece["carrier"], piece["scales"]
    level1 = scales[0]
    if "exactness" in invariants:
        out.json(f"{d}/w-exactness.json", exactness_witness(points, level1, rng.choice(("3", "5/2"))))
    if "pinch" in invariants:
        out.json(f"{d}/w-pinch.json", pinch_witness(points, level1, coords))
    if "amenability" in invariants:
        out.json(f"{d}/w-amenability.json", amenability_witness(level1, rng.choice(("1", "3/2", "2"))))
        outside = [[p] for p in ambient if p not in set(points)]
        out.json(f"{d}/u-amenability.json", family_doc(ambient, level1 + outside))
    if "property-a" in invariants:
        if grid:
            # one support member holding the whole piece, bounded at the top level
            pa = property_a_witness(points, {"level": 1}, [points], len(scales), rng.choice(("1/2", "1")))
        else:
            singles = [[p] for p in points]
            pa = property_a_witness(points, singles, singles, 1, "1/2")
        out.json(f"{d}/w-property_a.json", pa)


def add_piece_space(out, d, piece: dict) -> str:
    body = {"points": piece["carrier"], "scales": piece["scales"]}
    return out.json(f"{d}/piece-{piece['name']}.json", envelope("space", body))


# operation groups


def read_system(path: str) -> SystemDoc:
    with open(path, encoding="utf-8") as fh:
        return SystemDoc(json.load(fh))


def certificate_ops(system_path, sysdoc: SystemDoc, fams, commands=("validate", "bounded", "star")) -> list:
    """validate, then bounded on each family and star on each pair of
    neighbouring families, each where ``commands`` names it."""
    ops = []
    if "validate" in commands:
        ops.append(Op("validate", ["validate", system_path], expect_rc=VERIFIED))
    masks = {path: sysdoc.masks.family(members) for path, members in fams}
    for path, _ in fams if "bounded" in commands else ():

        def bounded(res, fam=masks[path]):
            check_bounded(sysdoc, fam, res.report, res.rc)

        ops.append(Op("bounded", ["bounded", system_path, path], bounded, expect_rc=(0, 2)))
    paths = [p for p, _ in fams]
    for a, b in zip(paths, paths[1:]) if "star" in commands else ():
        out = f"{os.path.dirname(a)}/star-{os.path.basename(a)[:-5]}-{os.path.basename(b)}"

        def star(res, f=masks[a], g=masks[b]):
            check_star(sysdoc, f, g, res.report, res.rc, res.artifact)

        ops.append(Op("star", ["star", system_path, a, b], star, output=out, expect_rc=(0, 2)))
    return ops


def search_ops(d: str, pieces, ns) -> list:
    """asdim witness searches on piece spaces, one per piece and bound."""
    ops = []
    for piece in pieces:
        for n in ns:

            def searched(res, n=n):
                check_multiplicity(res.artifact["body"]["coarsening"], n)

            ops.append(
                Op(
                    "check asdim --search",
                    ["check", "asdim", f"{d}/piece-{piece}.json", "--n", str(n), "--search", "--level", "1"],
                    searched,
                    output=f"{d}/w-asdim-{piece}-{n}.json",
                    expect_rc=VERIFIED,
                )
            )
    return ops


def lift_ops(system_path, sysdoc: SystemDoc, piece: str, d: str, n: int, invariants) -> list:
    """For each invariant: lift the piece witness, then check the lifted
    artifact on the system. The asdim witness is the one a search on the
    piece space wrote for bound ``n``."""
    ambient = sysdoc.masks.ids
    carrier = {p for p in ambient if sysdoc.pieces[piece][0] >> sysdoc.masks.pos[p] & 1}
    artifact_checks = {
        "asdim": lambda body: check_multiplicity(body["coarsening"], n),
        "exactness": lambda body: check_unit_rows(ambient, body["weights"]),
        "pinch": lambda body: check_pinch_geometry(ambient, carrier, body["coords"]),
        "amenability": None,
        "property-a": None,
    }
    ops = []
    for inv in invariants:
        key = inv.replace("-", "_")
        witness = f"{d}/w-asdim-{piece}-{n}.json" if inv == "asdim" else f"{d}/w-{key}.json"
        extra = {"asdim": ["--n", str(n)], "amenability": ["--input", f"{d}/u-amenability.json"]}.get(inv, [])
        lifted = f"{d}/lifted-{key}.json"

        def lift_check(res, inv=inv):
            require(res.artifact is not None, f"lift {inv} wrote no witness")
            if artifact_checks[inv] is not None:
                artifact_checks[inv](res.artifact["body"])

        ops.append(
            Op(
                f"lift {inv}",
                ["lift", inv, system_path, "--piece", piece, "--witness", witness, *extra],
                lift_check,
                output=lifted,
                expect_rc=VERIFIED,
            )
        )
        check_extra = ["--n", str(n)] if inv == "asdim" else []
        ops.append(
            Op(
                f"check {inv}",
                ["check", inv, system_path, "--witness", lifted, *check_extra],
                expect_rc=VERIFIED,
            )
        )
    return ops


def bornologous_ops(system_path: str, system_map: str, pieces, target: str) -> list:
    """map-check bornologous on the system and on each piece, given as
    (name, space, map) paths. The system verdict must equal the conjunction
    of the piece verdicts whenever every one of them is decided."""
    seen: dict = {}

    def record(name):
        def check(res):
            seen[name] = res.rc
            if len(seen) == len(pieces) + 1 and 2 not in seen.values():
                parts = all(seen[p] == 0 for p, _, _ in pieces)
                require((seen[None] == 0) == parts, f"system verdict against piece verdicts {seen}")

        return check

    argv = ["map-check", "bornologous", system_path, target, system_map]
    ops = [Op("map-check bornologous system", argv, record(None))]
    for name, space, fmap in pieces:
        argv = ["map-check", "bornologous", space, target, fmap]
        ops.append(Op("map-check bornologous piece", argv, record(name)))
    return ops


def probe_op(system_path: str, out: str) -> Op:
    """probe apc never refutes, and a witness it writes checks again."""

    def probed(res):
        require(res.rc != 1, "probe answered refuted")
        if res.artifact is not None:
            again = call_cli(["check", "apc", system_path, "--witness", out])
            require(again.rc == 0, f"probe witness does not check again: exit {again.rc}")

    return Op("probe apc", ["probe", "apc", system_path], probed, output=out)
