"""Exactness: partitions of unity with bounded supports and small variation.

All weights are rationals and sums are compared exactly; there is no drift
tolerance anywhere in this module. The checks scale every weight row by the
lcm of all weight denominators once, so each row sum and each l1 variation is
an integer over that common denominator.

Integral weights are held as ints and only the others as Fractions. A lifted
partition is zero-extended off its piece and gives each outside point a delta
of its own, so most of its weights are the int 0, and the support family
reads the nonzero weights of each column without a Python step per zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import sub
from typing import Optional

from ..colimit import FilteredSystem, extend_to_ambient
from ..errors import DomainError, number_text
from ..families import Family, Point, PointSet, bits
from ..reports import Report, from_clauses, offense_clause
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


@dataclass(frozen=True)
class PartitionOfUnity:
    space: PointSet
    indices: tuple[str, ...]
    rows: tuple[tuple[Entry, ...], ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise DomainError("partition indices must be distinct")
        if len(self.rows) != len(self.space):
            raise DomainError("one weight row per point is required")
        for row in self.rows:
            if len(row) != len(self.indices):
                raise DomainError("weight row length must match the index count")

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(den, rows)``: den is the lcm of every weight's denominator and
        rows are the weight rows times den, as integers."""
        return integer_rows(self.rows)

    def weight(self, p: Point, i: int) -> Entry:
        return self.rows[self.space.index(p)][i]

    def support(self, i: int) -> frozenset:
        return frozenset(
            p for p, row in zip(self.space.ids, self.rows) if row[i] != 0
        )


def partition_of_unity(space: PointSet, indices, rows) -> PartitionOfUnity:
    """Validated construction: nonnegative rational rows summing to one."""
    rows = tuple(tuple(map(rational, row)) for row in rows)
    pou = PartitionOfUnity(space, tuple(indices), rows)
    offense = _unit_offense(pou)
    if offense is not None:
        raise DomainError(offense)
    return pou


def _unit_offense(pou: PartitionOfUnity) -> Optional[str]:
    """The first point whose weights are negative or do not sum to one."""
    den, rows = pou.scaled
    for p, row in zip(pou.space.ids, rows):
        if min(row, default=0) < 0:
            return f"negative weight at point {p!r}"
        total = sum(row)
        if total != den:
            return f"weights at point {p!r} sum to {number_text(Fraction(total, den))}, not 1"
    return None


def support_family(pou: PartitionOfUnity) -> Family:
    """One member per index: the points where its weight is nonzero."""
    return Family.from_masks(pou.space, tuple(map(nonzero_mask, zip(*pou.rows))))


def _scaled_l1(rows, a: int, b: int) -> int:
    """l1 distance between the scaled rows at indices a and b."""
    return sum(map(abs, map(sub, rows[a], rows[b])))


def l1_variation(pou: PartitionOfUnity, x: Point, y: Point) -> Fraction:
    den, rows = pou.scaled
    return Fraction(_scaled_l1(rows, pou.space.index(x), pou.space.index(y)), den)


@dataclass(frozen=True)
class ExactnessWitness:
    scale: Family
    eps: Fraction
    pou: PartitionOfUnity
    support_bound: Bound = None

    def __post_init__(self):
        if self.eps <= 0:
            raise DomainError("variation threshold must be positive")
        if self.pou.space != self.scale.space:
            raise DomainError("partition of unity is not over the input scale's point set")


def _variation_offense(w: ExactnessWitness) -> Optional[str]:
    """The first pair inside a scale member whose variation reaches eps."""
    den, rows = w.pou.scaled
    limit = w.eps.numerator * den
    per = w.eps.denominator
    ids = w.scale.space.ids
    for m in w.scale.masks:
        for a, b in combinations(bits(m), 2):
            v = _scaled_l1(rows, a, b)
            if not v * per < limit:
                return f"pair ({ids[a]!r}, {ids[b]!r}) varies by {number_text(Fraction(v, den))}"
    return None


def exactness_verify(target: Target, w: ExactnessWitness) -> Report:
    ensure_over_target(target, w.scale, "input scale")
    clauses = [
        bound_clause("support family bounded", target, support_family(w.pou), w.support_bound),
        offense_clause("weights form a unit partition at every point", _unit_offense(w.pou)),
        offense_clause("variation below threshold inside every member", _variation_offense(w)),
    ]
    return from_clauses(clauses)


def exactness_lift(
    system: FilteredSystem, piece: int, w: ExactnessWitness
) -> ExactnessWitness:
    """Zero-extend the partition off the piece and adjoin outside deltas."""
    require_verified(
        exactness_verify(system.pieces[piece].space, w), "piece witness does not verify"
    )
    deltas = tuple(f"delta:{p}" for p in outside_points(system, piece))
    if set(deltas) & set(w.pou.indices):
        raise DomainError("delta index names collide with existing indices")
    rows = unit_padded_rows(system, piece, w.pou.rows)
    pou = PartitionOfUnity(system.ambient, w.pou.indices + deltas, rows)
    return ExactnessWitness(
        extend_to_ambient(system, w.scale),
        w.eps,
        pou,
        piece_certificate(system, piece, support_family(w.pou), w.support_bound),
    )
