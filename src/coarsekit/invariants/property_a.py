"""Property A: per-point tag sets with small symmetric-difference ratios.

Tag sets live in the product of the point set with a finite index range; the
range cap stands in for the naturals and is reported alongside the bounded
geometry cap. An empty intersection between neighbouring tag sets is a hard
failure: the ratio is undefined there, not infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..colimit import FilteredSystem, extend_to_ambient
from ..errors import DomainError
from ..families import Family, Point, bits, star_mask
from ..reports import Clause, Report, from_clauses, offense_clause
from ..spaces import ScaledSpace
from .common import (
    Bound,
    Target,
    bound_clause,
    ensure_over_target,
    piece_certificate,
    require_verified,
    with_outside_singletons,
)

Tag = tuple[Point, int]


@dataclass(frozen=True)
class PropertyAFamily:
    n_cap: int
    sets: tuple[frozenset, ...]
    scale: Family
    support: Family
    eps: Fraction
    support_bound: Bound = None

    def __post_init__(self):
        if self.n_cap < 1:
            raise DomainError("index cap must be at least 1")
        if len(self.sets) != len(self.scale.space):
            raise DomainError("one tag set per point is required")
        for a in self.sets:
            for entry in a:
                if (
                    not isinstance(entry, tuple)
                    or len(entry) != 2
                    or not isinstance(entry[1], int)
                ):
                    raise DomainError("tags must be (point, index) pairs")
                if entry[0] not in self.scale.space:
                    raise DomainError(f"tag point {entry[0]!r} is not in the space")
                if entry[1] < 1:
                    raise DomainError("tag indices start at 1")
        if self.eps <= 0:
            raise DomainError("ratio threshold must be positive")

    def tags(self, p: Point) -> frozenset:
        return self.sets[self.scale.space.index(p)]


def geometry_cap(target: Target) -> int:
    """Largest member size over every level in sight: that of the top level,
    of the top piece for a system (see the spaces and colimit docstrings)."""
    space = target if isinstance(target, ScaledSpace) else target.pieces[target.top_piece()].space
    return max(m.bit_count() for m in space.levels[-1].masks)


def pair_ratio(w: PropertyAFamily, x: Point, y: Point) -> Optional[Fraction]:
    ax, ay = w.tags(x), w.tags(y)
    denom = len(ax & ay)
    if denom == 0:
        return None
    return Fraction(len(ax ^ ay), denom)


def _base_offense(w: PropertyAFamily) -> Optional[str]:
    """The first point whose tag set lacks its own index-1 tag."""
    for p in w.scale.space.ids:
        if (p, 1) not in w.tags(p):
            return f"point {p!r} lacks its base tag"
    return None


def _confined_offense(w: PropertyAFamily) -> Optional[str]:
    """The first tag, in sorted order per point, past the index cap or off the support star."""
    ids, index = w.scale.space.ids, w.scale.space.index
    inc = w.support.incidence
    for i, p in enumerate(ids):
        star = star_mask(1 << i, inc)
        for q, k in sorted(w.sets[i]):
            if k > w.n_cap or not star >> index(q) & 1:
                return f"tag ({q!r}, {k}) at point {p!r} escapes the support star"
    return None


def _ratio_offense(w: PropertyAFamily) -> Optional[str]:
    """The first pair within a scale star whose ratio is undefined or reaches eps."""
    ids = w.scale.space.ids
    inc = w.scale.incidence
    for i, x in enumerate(ids):
        for j in bits(star_mask(1 << i, inc)):
            y = ids[j]
            r = pair_ratio(w, x, y)
            if r is None:
                return f"empty tag intersection for pair ({x!r}, {y!r})"
            if not r < w.eps:
                return f"ratio {r} for pair ({x!r}, {y!r}) reaches the threshold"
    return None


def property_a_verify(target: Target, w: PropertyAFamily) -> Report:
    ensure_over_target(target, w.scale, "input scale")
    ensure_over_target(target, w.support, "support family")
    cap = f"largest member size {geometry_cap(target)}, index cap {w.n_cap}"
    clauses = [
        Clause("bounded geometry cap", True, cap),
        bound_clause("support family bounded", target, w.support, w.support_bound),
        offense_clause("base tag present at every point", _base_offense(w)),
        offense_clause("tags confined to support stars", _confined_offense(w)),
        offense_clause("symmetric difference ratios below threshold", _ratio_offense(w)),
    ]
    return from_clauses(clauses)


def property_a_lift(
    system: FilteredSystem, piece: int, w: PropertyAFamily
) -> PropertyAFamily:
    """Keep piece tag sets; every outside point tags only itself."""
    pc = system.pieces[piece]
    require_verified(property_a_verify(pc.space, w), "piece witness does not verify")
    sets = tuple(
        w.tags(p) if p in pc.space.points else frozenset({(p, 1)})
        for p in system.ambient.ids
    )
    return PropertyAFamily(
        w.n_cap,
        sets,
        extend_to_ambient(system, w.scale),
        with_outside_singletons(system, piece, w.support),
        w.eps,
        piece_certificate(system, piece, w.support, w.support_bound),
    )
