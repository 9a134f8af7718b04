"""Exactness: partitions of unity with bounded supports and small variation.

All weights are rationals and sums are compared exactly; there is no drift
tolerance anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..colimit import FilteredSystem, extend_to_ambient
from ..errors import DomainError
from ..families import Family, Point, PointSet
from ..reports import Clause, Report, from_clauses
from .common import (
    Bound,
    Target,
    bound_clause,
    ensure_over_target,
    outside_points,
    piece_certificate,
    unit_padded_rows,
)

ONE = Fraction(1)


@dataclass(frozen=True)
class PartitionOfUnity:
    space: PointSet
    indices: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise DomainError("partition indices must be distinct")
        if len(self.rows) != len(self.space):
            raise DomainError("one weight row per point is required")
        for row in self.rows:
            if len(row) != len(self.indices):
                raise DomainError("weight row length must match the index count")

    def weight(self, p: Point, i: int) -> Fraction:
        return self.rows[self.space.index(p)][i]

    def support(self, i: int) -> frozenset:
        return frozenset(
            p for p, row in zip(self.space.ids, self.rows) if row[i] != 0
        )


def partition_of_unity(space: PointSet, indices, rows) -> PartitionOfUnity:
    """Validated construction: nonnegative rational rows summing to one."""
    rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
    pou = PartitionOfUnity(space, tuple(indices), rows)
    offense = _unit_offense(pou)
    if offense is not None:
        raise DomainError(offense)
    return pou


def _unit_offense(pou: PartitionOfUnity) -> Optional[str]:
    """The first point whose weights are negative or do not sum to one."""
    for p, row in zip(pou.space.ids, pou.rows):
        if any(v < 0 for v in row):
            return f"negative weight at point {p!r}"
        if sum(row) != ONE:
            return f"weights at point {p!r} sum to {sum(row)}, not 1"
    return None


def support_family(pou: PartitionOfUnity) -> Family:
    return Family(
        pou.space, tuple(pou.support(i) for i in range(len(pou.indices)))
    )


def l1_variation(pou: PartitionOfUnity, x: Point, y: Point) -> Fraction:
    rx = pou.rows[pou.space.index(x)]
    ry = pou.rows[pou.space.index(y)]
    return sum((abs(a - b) for a, b in zip(rx, ry)), Fraction(0))


@dataclass(frozen=True)
class ExactnessWitness:
    scale: Family
    eps: Fraction
    pou: PartitionOfUnity
    support_bound: Bound = None


def exactness_verify(target: Target, w: ExactnessWitness) -> Report:
    if w.eps <= 0:
        raise DomainError("variation threshold must be positive")
    ensure_over_target(target, w.scale, "input scale")
    if w.pou.space != w.scale.space:
        raise DomainError("partition of unity is not over the target's point set")
    clauses = [
        bound_clause(
            "support family bounded", target, support_family(w.pou), w.support_bound
        )
    ]
    offense = _unit_offense(w.pou)
    clauses.append(
        Clause("weights form a unit partition at every point", offense is None, offense or "")
    )
    var_offense = None
    for m in w.scale.members:
        inside = w.scale.space.sort(m)
        for a in range(len(inside)):
            for b in range(a + 1, len(inside)):
                v = l1_variation(w.pou, inside[a], inside[b])
                if not v < w.eps:
                    var_offense = (
                        f"pair ({inside[a]!r}, {inside[b]!r}) varies by {v}"
                    )
                    break
            if var_offense:
                break
        if var_offense:
            break
    clauses.append(
        Clause(
            "variation below threshold inside every member",
            var_offense is None,
            var_offense or "",
        )
    )
    return from_clauses(clauses)


def exactness_lift(
    system: FilteredSystem, piece: int, w: ExactnessWitness
) -> ExactnessWitness:
    """Zero-extend the partition off the piece and adjoin outside deltas."""
    if not exactness_verify(system.pieces[piece].space, w):
        raise DomainError("piece witness does not verify")
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
