"""Coarse amenability: horizon ratio witnesses and their colimit lift.

The horizon of a set against a family counts member occurrences, duplicates
included; ratios compare the members meeting a point against the members
meeting its star. An empty denominator at a covered point is a hard failure,
never a division error. Ratios count member masks: those meeting a point's
bit, and those meeting its star mask against the scale's incidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Optional

from ..colimit import FilteredSystem, stripped
from ..errors import DomainError
from ..families import Family, Point, family_key, reroot, star_mask
from ..reports import Report, from_clauses, offense_clause
from .common import (
    Bound, Target, bound_clause, ensure_over_target, piece_certificate, require_verified
)


@dataclass(frozen=True)
class AmenabilityWitness:
    scale: Family
    v: Family
    eps: Fraction
    v_bound: Bound = None

    def __post_init__(self):
        if self.eps <= 0:
            raise DomainError("ratio threshold must be positive")


def covered_points(scale: Family) -> tuple[Point, ...]:
    return scale.space.points_of(reduce(or_, scale.masks, 0))


def horizon_ratio(scale: Family, v: Family, x: Point) -> Optional[Fraction]:
    """Members of v at x over members of v at x's star; None when the star's
    horizon is empty."""
    here = 1 << scale.space.index(x)
    star = star_mask(here, scale.incidence)
    if v.space != scale.space:
        here, star = (v.space.mask(scale.space.points_of(m)) for m in (here, star))
    denom = sum(1 for m in v.masks if m & star)
    if denom == 0:
        return None
    return Fraction(sum(1 for m in v.masks if m & here), denom)


def _horizon_offense(w: AmenabilityWitness) -> Optional[str]:
    """The first covered point whose horizon ratio is undefined or too small."""
    for x in covered_points(w.scale):
        r = horizon_ratio(w.scale, w.v, x)
        if r is None:
            return f"empty horizon denominator at point {x!r}"
        if not r > 1 - w.eps:
            return f"ratio {r} at point {x!r} does not exceed {1 - w.eps}"
    return None


def amenability_verify(target: Target, w: AmenabilityWitness) -> Report:
    ensure_over_target(target, w.scale, "input scale")
    ensure_over_target(target, w.v, "companion family")
    clauses = [
        bound_clause("companion family bounded", target, w.v, w.v_bound),
        offense_clause("horizon ratios exceed the threshold", _horizon_offense(w)),
    ]
    return from_clauses(clauses)


def amenability_lift(
    system: FilteredSystem, piece: int, w: AmenabilityWitness, u: Family
) -> AmenabilityWitness:
    """Colimit witness: the piece companion plus the input's outside singletons.

    The input must strip to the piece, so its members off the carrier are
    singletons, and its stripped core must equal the piece witness's input
    scale as a multiset. A horizon count over the lifted companion is the sum
    of the counts over its two parts, which share no member: the piece
    members lie in the carrier and the singletons do not. So a carrier point
    keeps its piece ratio, and a point outside keeps ratio exactly 1, as its
    star meets only its own singleton occurrences.
    """
    pc = system.pieces[piece]
    if u.space != system.ambient:
        raise DomainError("input family is not over the system's ambient point set")
    inner = stripped(u, pc.space.points, pc.space.points)
    if inner is None:
        raise DomainError("input family has a member outside the piece's carrier")
    if family_key(inner) != family_key(w.scale):
        raise DomainError("piece witness input does not match the stripped input")
    require_verified(amenability_verify(pc.space, w), "piece witness does not verify")
    inside = u.space.mask(pc.space.points.ids)
    outside = tuple(m for m in u.masks if m & ~inside)
    v = Family.from_masks(u.space, reroot(w.v, u.space).masks + outside)
    return AmenabilityWitness(u, v, w.eps, piece_certificate(system, piece, w.v, w.v_bound))
