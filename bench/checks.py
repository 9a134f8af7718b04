"""Output checks computed apart from the library.

Families are read from the documents as lists of point-id lists and turned
into integer bitmasks over the ambient point order, so nothing here shares
code or representation with coarsekit: each function transcribes a
definition.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from harness import certificate, clause, frac, require


class Masks:
    """Bitmask transcription of subsets of one ordered point list."""

    def __init__(self, ids):
        self.ids = list(ids)
        self.pos = {p: i for i, p in enumerate(self.ids)}

    def of(self, members) -> int:
        m = 0
        for p in members:
            m |= 1 << self.pos[p]
        return m

    def family(self, members) -> list:
        return [self.of(m) for m in members]


def star_mask(v: int, fam: list) -> int:
    out = v
    for m in fam:
        if m & v:
            out |= m
    return out


def fits(m: int, level: list) -> bool:
    return any(m & ~w == 0 for w in level)


def popcount(m: int) -> int:
    return bin(m).count("1")


class SystemDoc:
    """The pieces of a system document, as carrier and level bitmasks over
    the ambient order."""

    def __init__(self, doc: dict):
        body = doc["body"]
        self.masks = Masks(body["ambient"])
        self.pieces = {}
        for pc in body["pieces"]:
            self.pieces[pc["name"]] = (
                self.masks.of(pc["carrier"]),
                [self.masks.family(level) for level in pc["scales"]],
            )

    def certifies(self, fam: list, piece: str, level: int) -> bool:
        """Strip the family to the named piece and test containment in the
        named level: members of two or more points must sit in the carrier
        and inside one member of the level."""
        require(piece in self.pieces, f"certificate names unknown piece {piece!r}")
        carrier, levels = self.pieces[piece]
        require(1 <= level <= len(levels), f"certificate level {level} out of range")
        stripped = [m for m in fam if popcount(m) != 1 or m & ~carrier == 0]
        return all(
            popcount(m) <= 1 or (m & ~carrier == 0 and fits(m, levels[level - 1]))
            for m in stripped
        )

    def bounded_somewhere(self, fam: list) -> bool:
        return any(
            self.certifies(fam, name, lvl)
            for name, (_, levels) in self.pieces.items()
            for lvl in range(1, len(levels) + 1)
        )


def check_bounded(system: SystemDoc, fam: list, report: dict, rc: int) -> None:
    """A verified answer carries a certificate that checks; an undecided one
    only where no piece level bounds the family."""
    c = clause(report, "bounded in some piece")
    if rc == 0:
        piece, level = certificate(c["detail"])
        require(system.certifies(fam, piece, level), f"certificate {piece}@{level} fails")
    else:
        require(rc == 2, f"bounded answered exit {rc}")
        require(not system.bounded_somewhere(fam), "undecided, yet a piece level bounds it")


def check_star(system: SystemDoc, f: list, g: list, report: dict, rc: int, artifact) -> None:
    """A verified star equals the member-wise bitmask star and its
    certificate checks against the emitted members."""
    if rc == 2:
        return
    require(rc == 0, f"star answered exit {rc}")
    require(artifact is not None, "verified star wrote no family")
    got = system.masks.family(artifact["body"]["members"])
    want = [star_mask(m, g) for m in f]
    require(got == want, "star members differ from the bitmask star")
    piece, level = certificate(clause(report, "star stays bounded")["detail"])
    require(system.certifies(got, piece, level), f"star certificate {piece}@{level} fails")


def check_multiplicity(coarsening, n: int) -> None:
    counts = Counter(p for m in coarsening for p in set(m))
    worst = max(counts.values(), default=0)
    require(worst <= n + 1, f"lifted coarsening has multiplicity {worst} > {n + 1}")


def check_unit_rows(ambient, weights: dict) -> None:
    for p in ambient:
        total = sum((frac(v) for v in weights.get(p, {}).values()), Fraction(0))
        require(total == 1, f"lifted weights at {p!r} sum to {total}")


def check_pinch_geometry(ambient, carrier: set, coords: dict) -> None:
    """Outside pairs at squared distance exactly 2, mixed pairs at least 1."""
    sparse = {
        p: {k: frac(v) for k, v in enumerate(row) if v not in (0, "0")}
        for p, row in coords.items()
    }

    def sq(a, b):
        ra, rb = sparse[a], sparse[b]
        keys = ra.keys() | rb.keys()
        return sum(((ra.get(k, 0) - rb.get(k, 0)) ** 2 for k in keys), Fraction(0))

    outside = [p for p in ambient if p not in carrier]
    inside = [p for p in ambient if p in carrier]
    for i, a in enumerate(outside):
        for b in outside[i + 1 :]:
            require(sq(a, b) == 2, f"outside pair {a!r}, {b!r} not at squared distance 2")
        for b in inside:
            require(sq(a, b) >= 1, f"mixed pair {a!r}, {b!r} closer than 1")
