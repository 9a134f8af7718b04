"""Pinch witnesses: coordinate embeddings with small member images and
uniform separation off a bounded family.

The verifier is exact, like every other: it compares squared distances with
the squared thresholds the witness states, strictly below ``eps**2`` for the
member images and at least ``c**2`` off the separation family, and no
floating point or tolerance enters any verdict. It scales every coordinate
row by the lcm of all denominators once, so each squared distance is an
integer, two squared row norms less twice a dot product, over that
denominator squared.

Integral coordinates are held as ints and only the others as Fractions. A
lifted witness gives every outside point its own unit axis, so most of its
coordinates are the int 0, and most pairs of its rows have disjoint
supports: for such a pair the dot product is 0 and is not computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

from ..colimit import FilteredSystem, extend_to_ambient
from ..errors import DomainError, number_text
from ..families import Family, Point, bits
from ..reports import Clause, Report, from_clauses
from .common import (
    Bound,
    Entry,
    Target,
    bound_clause,
    ensure_over_target,
    integer_rows,
    nonzero_mask,
    outside_points,
    piece_certificate,
    rational,
    require_verified,
    unit_padded_rows,
)


def comparison_tolerance() -> Fraction:
    """Always 0: the comparisons are exact. Read only by ``bench/run.py``."""
    return Fraction(0)


def sq_dist(a: Sequence[Entry], b: Sequence[Entry]) -> Fraction:
    return sum(((x - y) ** 2 for x, y in zip(a, b)), Fraction(0))


@dataclass(frozen=True)
class PinchWitness:
    dim: int
    coords: tuple[tuple[Entry, ...], ...]
    scale: Family
    sep: Family
    c: Fraction
    eps: Fraction
    sep_bound: Bound = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("embedding dimension must be at least 1")
        if len(self.coords) != len(self.scale.space):
            raise DomainError("one coordinate row per point is required")
        for row in self.coords:
            if len(row) != self.dim:
                raise DomainError("coordinate row length must match the dimension")
        if self.c <= 0 or self.eps <= 0:
            raise DomainError("separation and diameter thresholds must be positive")

    def vec(self, p: Point) -> tuple[Entry, ...]:
        return self.coords[self.scale.space.index(p)]


def pinch_witness(dim, coords, scale, sep, c, eps, sep_bound=None) -> PinchWitness:
    rows = tuple(tuple(map(rational, row)) for row in coords)
    return PinchWitness(dim, rows, scale, sep, Fraction(c), Fraction(eps), sep_bound)


def pinch_verify(target: Target, w: PinchWitness) -> Report:
    ensure_over_target(target, w.scale, "input scale")
    ensure_over_target(target, w.sep, "separation family")
    clauses = [bound_clause("separation family bounded", target, w.sep, w.sep_bound)]

    den, rows = integer_rows(w.coords)
    norms = [sum(map(mul, row, row)) for row in rows]
    supports = list(map(nonzero_mask, rows))
    rows = [row[: s.bit_length()] for row, s in zip(rows, supports)]

    def sq(a: int, b: int) -> int:
        """Squared distance between the points at indices a and b, times den**2,
        as |a|^2 + |b|^2 - 2 a.b: exact, since every entry is an integer. Rows
        with disjoint supports have a.b = 0; each row ends at its last nonzero
        entry, where the product stops."""
        if supports[a] & supports[b]:
            return norms[a] + norms[b] - 2 * sum(map(mul, rows[a], rows[b]))
        return norms[a] + norms[b]

    ids = w.scale.space.ids
    worst_pair = None
    worst = -1
    for m in w.scale.masks:
        for a, b in combinations(bits(m), 2):
            d = sq(a, b)
            if d > worst:
                worst, worst_pair = d, (ids[a], ids[b])
    worst = Fraction(worst, den**2)
    diam_ok = worst_pair is None or worst < w.eps**2
    clauses.append(
        Clause(
            "image diameters stay below the pinch threshold",
            diam_ok,
            ""
            if worst_pair is None
            else f"extremal pair {worst_pair!r} at squared distance {number_text(worst)}",
        )
    )

    nearest_pair = None
    nearest = None
    shared = w.sep.incidence
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            if shared[a] >> b & 1:
                continue
            d = sq(a, b)
            if nearest is None or d < nearest:
                nearest, nearest_pair = d, (ids[a], ids[b])
    if nearest is not None:
        nearest = Fraction(nearest, den**2)
    sep_ok = nearest is None or nearest >= w.c**2
    clauses.append(
        Clause(
            "separated off the separation family",
            sep_ok,
            ""
            if nearest_pair is None
            else f"extremal pair {nearest_pair!r} at squared distance {number_text(nearest)}",
        )
    )
    return from_clauses(clauses)


def pinch_lift(system: FilteredSystem, piece: int, w: PinchWitness) -> PinchWitness:
    """Pad the piece embedding with one fresh coordinate per outside point.

    Outside points map to unit vectors on their own axes, so outside pairs
    sit at squared distance exactly 2 and mixed pairs at 1 plus the inside
    point's squared norm. Calibrated for unit separation only.
    """
    if w.c != 1:
        raise DomainError("lift is calibrated for unit separation")
    require_verified(
        pinch_verify(system.pieces[piece].space, w), "piece witness does not verify"
    )
    return PinchWitness(
        w.dim + len(outside_points(system, piece)),
        unit_padded_rows(system, piece, w.coords),
        extend_to_ambient(system, w.scale),
        extend_to_ambient(system, w.sep),
        Fraction(1),
        w.eps,
        piece_certificate(system, piece, w.sep, w.sep_bound),
    )
