"""Coarse amenability: horizon ratio witnesses and their colimit lift.

The horizon of a set against a family counts member occurrences, duplicates
included; ratios compare the members meeting a point against the members
meeting its star. An empty denominator at a covered point is a hard failure,
never a division error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..colimit import FilteredSystem, stripped
from ..errors import CoarseError, DomainError
from ..families import Family, Point, family_key, horizon, reroot, star_set
from ..reports import Clause, Report, from_clauses
from .common import Bound, Target, bound_clause, ensure_over_target, piece_certificate


@dataclass(frozen=True)
class AmenabilityWitness:
    scale: Family
    v: Family
    eps: Fraction
    v_bound: Bound = None


def covered_points(scale: Family) -> tuple[Point, ...]:
    hit = frozenset().union(*scale.members, frozenset())
    return tuple(p for p in scale.space.ids if p in hit)


def horizon_ratio(scale: Family, v: Family, x: Point) -> Optional[Fraction]:
    """Members of v at x over members of v at x's star; None when the star's
    horizon is empty."""
    here = frozenset({x})
    denom = len(horizon(star_set(here, scale), v))
    if denom == 0:
        return None
    return Fraction(len(horizon(here, v)), denom)


def amenability_verify(target: Target, w: AmenabilityWitness) -> Report:
    if w.eps <= 0:
        raise DomainError("ratio threshold must be positive")
    ensure_over_target(target, w.scale, "input scale")
    ensure_over_target(target, w.v, "companion family")
    clauses = [bound_clause("companion family bounded", target, w.v, w.v_bound)]
    offense = None
    for x in covered_points(w.scale):
        r = horizon_ratio(w.scale, w.v, x)
        if r is None:
            offense = f"empty horizon denominator at point {x!r}"
            break
        if not r > 1 - w.eps:
            offense = f"ratio {r} at point {x!r} does not exceed {1 - w.eps}"
            break
    clauses.append(
        Clause("horizon ratios exceed the threshold", offense is None, offense or "")
    )
    return from_clauses(clauses)


def amenability_lift(
    system: FilteredSystem, piece: int, w: AmenabilityWitness, u: Family
) -> AmenabilityWitness:
    """Colimit witness: the piece companion plus the input's outside singletons.

    The input's stripped core must equal the piece witness's input scale as a
    multiset. Every point outside the piece keeps ratio exactly 1, because its
    star meets only its own singleton occurrences.
    """
    pc = system.pieces[piece]
    if u.space != system.ambient:
        raise DomainError("input family is not over the system's ambient point set")
    inner = stripped(u, pc.carrier, pc.space.points)
    if inner is None:
        raise DomainError("input family has a member outside the piece's carrier")
    if family_key(inner) != family_key(w.scale):
        raise DomainError("piece witness input does not match the stripped input")
    if not amenability_verify(pc.space, w):
        raise DomainError("piece witness does not verify")
    outside_members = tuple(
        m for m in u.members if len(m) == 1 and not m <= pc.carrier
    )
    v = Family(
        system.ambient, reroot(w.v, system.ambient).members + outside_members
    )
    if set(w.v.members) & set(outside_members):
        raise CoarseError("horizon decomposition is not disjoint")
    for x in covered_points(u):
        star = star_set(frozenset({x}), u)
        total = len(horizon(star, v))
        piece_part = len(horizon(star, reroot(w.v, system.ambient)))
        outside_part = len(horizon(star, Family(system.ambient, outside_members)))
        if piece_part + outside_part != total:
            raise CoarseError("horizon decomposition is not disjoint")
    return AmenabilityWitness(u, v, w.eps, piece_certificate(system, piece, w.v, w.v_bound))
