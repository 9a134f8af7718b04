"""Asymptotic dimension witnesses: verify, search, lift, restrict.

A witness for dimension at most n pairs an input family with a bounded
coarsening of multiplicity at most n + 1. Search explores coarsenings built
as unions of the input's members; that loses no generality, since any valid
coarsening member can be shrunk to the union of the input members assigned
to it without raising multiplicity or losing boundedness.

Both searches run on member masks, with a per-point count of the groups
holding each point; the coarsening found is built with Family.from_masks
and checked once, by asdim_verify, before the search returns it.
asdim_restrict cuts both families to the piece with families.cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Union

from ..colimit import FilteredSystem, extend_to_ambient
from ..errors import DomainError
from ..families import Family, bits, cut, first_misfit, multiplicity
from ..reports import Clause, Report, SearchOutcome, checked, from_clauses, offense_clause
from ..spaces import ScaledSpace, is_bounded
from .common import (
    Bound,
    Target,
    bound_clause,
    ensure_over_target,
    piece_certificate,
    require_verified,
    with_outside_singletons,
)


@dataclass(frozen=True)
class AsdimWitness:
    scale: Family
    coarsening: Family
    bound: Bound = None


def _misfit_offense(w: AsdimWitness) -> Optional[str]:
    """The first input member, singletons aside, that fits no coarsening member."""
    bad = first_misfit((m for m in w.scale.masks if m & (m - 1)), w.coarsening.masks)
    if bad is None:
        return None
    return "member {" + ", ".join(w.scale.space.points_of(bad)) + "} fits no coarsening member"


def asdim_verify(target: Target, n: int, w: AsdimWitness) -> Report:
    if n < 0:
        raise DomainError("dimension bound must be nonnegative")
    ensure_over_target(target, w.scale, "input scale")
    ensure_over_target(target, w.coarsening, "coarsening")
    mult = multiplicity(w.coarsening)
    clauses = [
        offense_clause("input scale essentially refines the coarsening", _misfit_offense(w)),
        Clause(
            "coarsening multiplicity within the dimension bound",
            mult <= n + 1,
            f"multiplicity {mult}, allowed {n + 1}",
        ),
        bound_clause("coarsening bounded", target, w.coarsening, w.bound),
    ]
    return from_clauses(clauses)


def _as_scale(space: ScaledSpace, scale: Union[Family, int]) -> Family:
    if isinstance(scale, int):
        return space.level(scale)
    if scale.space != space.points:
        raise DomainError("input scale is not over the space's point set")
    return scale


def _search_exhaustive(
    n: int, items: list[int], tops: tuple[int, ...], size: int
) -> Optional[tuple[int, ...]]:
    """Assign the item masks to groups in order, each group's union fitting
    a top member, keeping per-point counts of the groups holding a point."""
    counts = [0] * size
    groups: list[int] = []

    def assign(i: int) -> Optional[tuple[int, ...]]:
        if i == len(items):
            return tuple(groups)
        m = items[i]
        for gi in range(len(groups) + 1):
            g = groups[gi] if gi < len(groups) else 0
            union = g | m
            if first_misfit((union,), tops) is not None:
                continue
            fresh = bits(m & ~g)
            if any(counts[k] > n for k in fresh):
                continue
            if gi == len(groups):
                groups.append(0)
            groups[gi] = union
            for k in fresh:
                counts[k] += 1
            found = assign(i + 1)
            if found is not None:
                return found
            for k in fresh:
                counts[k] -= 1
            if g:
                groups[gi] = g
            else:
                groups.pop()
        return None

    return assign(0)


def _search_greedy(
    n: int, items: list[int], tops: tuple[int, ...], size: int
) -> Optional[tuple[int, ...]]:
    """Start from the item masks and, while some point lies in more than
    n + 1 groups, merge the first pair of its groups whose union fits a top
    member. Counts are kept across merges: each point of the merged pair's
    overlap loses one."""
    if first_misfit(items, tops) is not None:
        return None
    groups = list(items)
    counts = [sum(g >> k & 1 for g in groups) for k in range(size)]
    crowded = sum(1 << k for k, c in enumerate(counts) if c > n + 1)
    while crowded:
        low = crowded & -crowded
        holders = [gi for gi, g in enumerate(groups) if g & low]
        for a, b in combinations(holders, 2):
            if first_misfit((groups[a] | groups[b],), tops) is None:
                break
        else:
            return None
        for k in bits(groups[a] & groups[b]):
            counts[k] -= 1
            if counts[k] == n + 1:
                crowded ^= 1 << k
        groups[a] |= groups.pop(b)
    return tuple(groups)


def asdim_search(
    space: ScaledSpace,
    n: int,
    scale: Union[Family, int],
    cap: int = 12,
    mode: str = "auto",
) -> SearchOutcome:
    """First witness in canonical enumeration order, checked by asdim_verify.

    Exhaustive mode walks set partitions of the input's non-singleton members;
    the union-built search space is complete, so finding none is exhausted.
    Greedy mode merges crowded members, and finding none there stops the
    search without deciding anything. So does a coarsening that asdim_verify
    rejects: a failed consistency check, in either mode.
    """
    if not isinstance(space, ScaledSpace):
        raise DomainError("witness search needs a single-space target")
    if n < 0:
        raise DomainError("dimension bound must be nonnegative")
    if mode not in ("auto", "exhaustive", "greedy"):
        raise DomainError(f"unknown search mode {mode!r}")
    if mode == "exhaustive" and len(space.points) > cap:
        raise DomainError(f"exhaustive mode supports at most {cap} points")
    exhaustive = mode == "exhaustive" or (mode == "auto" and len(space.points) <= cap)
    u = _as_scale(space, scale)
    items = [m for m in u.masks if m & (m - 1)]
    tops = space.level(space.depth).masks
    search = _search_exhaustive if exhaustive else _search_greedy
    groups = search(n, items, tops, len(space.points))
    if groups is None:
        if exhaustive:
            detail = "no coarsening of the scale verifies at this dimension"
            return SearchOutcome(detail=detail, exhausted=True)
        return SearchOutcome(detail="greedy search found nothing; absence decides nothing")
    coarsening = Family.from_masks(space.points, groups)
    w = AsdimWitness(u, coarsening, is_bounded(space, coarsening))
    rejected = "the coarsening found failed re-verification; this decides nothing"
    return checked(w, asdim_verify(space, n, w), rejected)


def asdim_lift(system: FilteredSystem, piece: int, n: int, w: AsdimWitness) -> AsdimWitness:
    """Colimit witness from a piece witness: adjoin outside singletons."""
    require_verified(
        asdim_verify(system.pieces[piece].space, n, w),
        "piece witness does not verify at the stated dimension",
    )
    return AsdimWitness(
        extend_to_ambient(system, w.scale),
        with_outside_singletons(system, piece, w.coarsening),
        piece_certificate(system, piece, w.coarsening, w.bound),
    )


def asdim_restrict(system: FilteredSystem, piece: int, n: int, w: AsdimWitness) -> AsdimWitness:
    """Piece witness from a colimit witness: intersect members with the carrier."""
    require_verified(
        asdim_verify(system, n, w), "colimit witness does not verify at the stated dimension"
    )
    pc = system.pieces[piece]
    coarsening = cut(w.coarsening, pc.space.points)
    return AsdimWitness(cut(w.scale, pc.space.points), coarsening, is_bounded(pc.space, coarsening))
