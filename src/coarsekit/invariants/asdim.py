"""Asymptotic dimension witnesses: verify, search, lift, restrict.

A witness for dimension at most n pairs an input family with a bounded
coarsening of multiplicity at most n + 1. Search explores coarsenings built
as unions of the input's members; that loses no generality, since any valid
coarsening member can be shrunk to the union of the input members assigned
to it without raising multiplicity or losing boundedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..colimit import FilteredSystem, extend_to_ambient
from ..errors import DomainError
from ..families import Family, essentially_refines, first_misfit, multiplicity, reroot
from ..reports import Clause, Report, from_clauses
from ..spaces import ScaledSpace, is_bounded
from .common import (
    Bound,
    Target,
    bound_clause,
    ensure_over_target,
    piece_certificate,
    with_outside_singletons,
)


@dataclass(frozen=True)
class AsdimWitness:
    scale: Family
    coarsening: Family
    bound: Bound = None


@dataclass(frozen=True)
class AsdimSearchResult:
    witness: Optional[AsdimWitness]
    exhaustive: bool


def asdim_verify(target: Target, n: int, w: AsdimWitness) -> Report:
    if n < 0:
        raise DomainError("dimension bound must be nonnegative")
    ensure_over_target(target, w.scale, "input scale")
    ensure_over_target(target, w.coarsening, "coarsening")
    clauses = []
    if essentially_refines(w.scale, w.coarsening):
        clauses.append(Clause("input scale essentially refines the coarsening", True))
    else:
        counted = (m for m in w.scale.masks if m & (m - 1))
        bad = w.scale.space.points_of(first_misfit(counted, w.coarsening.masks))
        clauses.append(
            Clause(
                "input scale essentially refines the coarsening",
                False,
                "member {" + ", ".join(bad) + "} fits no coarsening member",
            )
        )
    mult = multiplicity(w.coarsening)
    clauses.append(
        Clause(
            "coarsening multiplicity within the dimension bound",
            mult <= n + 1,
            f"multiplicity {mult}, allowed {n + 1}",
        )
    )
    clauses.append(bound_clause("coarsening bounded", target, w.coarsening, w.bound))
    return from_clauses(clauses)


def _as_scale(space: ScaledSpace, scale: Union[Family, int]) -> Family:
    if isinstance(scale, int):
        return space.level(scale)
    if scale.space != space.points:
        raise DomainError("input scale is not over the space's point set")
    return scale


def _top_fits(union: frozenset, tops: tuple[frozenset, ...]) -> bool:
    return any(union <= t for t in tops)


def _search_exhaustive(
    space: ScaledSpace, n: int, items: list[frozenset], tops
) -> Optional[tuple[frozenset, ...]]:
    counts = {p: 0 for p in space.points.ids}
    groups: list[set] = []

    def assign(i: int) -> Optional[tuple[frozenset, ...]]:
        if i == len(items):
            return tuple(frozenset(g) for g in groups)
        m = items[i]
        for gi in range(len(groups) + 1):
            fresh = m - groups[gi] if gi < len(groups) else set(m)
            if gi < len(groups) and not _top_fits(frozenset(groups[gi] | m), tops):
                continue
            if gi == len(groups) and not _top_fits(m, tops):
                continue
            if any(counts[p] + 1 > n + 1 for p in fresh):
                continue
            if gi == len(groups):
                groups.append(set())
            groups[gi] |= m
            for p in fresh:
                counts[p] += 1
            found = assign(i + 1)
            if found is not None:
                return found
            for p in fresh:
                counts[p] -= 1
            groups[gi] -= fresh
            if not groups[gi]:
                groups.pop()
        return None

    return assign(0)


def _search_greedy(
    space: ScaledSpace, n: int, items: list[frozenset], tops
) -> Optional[tuple[frozenset, ...]]:
    groups = [set(m) for m in items if _top_fits(m, tops)]
    if len(groups) != len(items):
        return None
    while True:
        counts: dict = {}
        for g in groups:
            for p in g:
                counts[p] = counts.get(p, 0) + 1
        crowded = [p for p in space.points.ids if counts.get(p, 0) > n + 1]
        if not crowded:
            return tuple(frozenset(g) for g in groups)
        p = crowded[0]
        holders = [gi for gi, g in enumerate(groups) if p in g]
        merged = None
        for a in range(len(holders)):
            for b in range(a + 1, len(holders)):
                union = groups[holders[a]] | groups[holders[b]]
                if _top_fits(frozenset(union), tops):
                    merged = (holders[a], holders[b], union)
                    break
            if merged:
                break
        if merged is None:
            return None
        a, b, union = merged
        groups[a] = union
        groups.pop(b)


def asdim_search(
    space: ScaledSpace,
    n: int,
    scale: Union[Family, int],
    cap: int = 12,
    mode: str = "auto",
) -> AsdimSearchResult:
    """First verified witness in canonical enumeration order, if any.

    Exhaustive mode walks set partitions of the input's non-singleton members
    (complete for the union-built search space); greedy mode merges crowded
    members and is flagged non-exhaustive. Greedy absence decides nothing.
    """
    if n < 0:
        raise DomainError("dimension bound must be nonnegative")
    if mode not in ("auto", "exhaustive", "greedy"):
        raise DomainError(f"unknown search mode {mode!r}")
    if mode == "exhaustive" and len(space.points) > cap:
        raise DomainError(f"exhaustive mode supports at most {cap} points")
    exhaustive = mode == "exhaustive" or (mode == "auto" and len(space.points) <= cap)
    u = _as_scale(space, scale)
    items = [m for m in u.members if len(m) > 1]
    tops = space.level(space.depth).members
    if not items:
        groups: Optional[tuple[frozenset, ...]] = ()
    elif exhaustive:
        groups = _search_exhaustive(space, n, items, tops)
    else:
        groups = _search_greedy(space, n, items, tops)
    if groups is None:
        return AsdimSearchResult(None, exhaustive)
    coarsening = Family(space.points, groups)
    w = AsdimWitness(u, coarsening, is_bounded(space, coarsening))
    if not asdim_verify(space, n, w):
        return AsdimSearchResult(None, exhaustive)
    return AsdimSearchResult(w, exhaustive)


def asdim_lift(system: FilteredSystem, piece: int, n: int, w: AsdimWitness) -> AsdimWitness:
    """Colimit witness from a piece witness: adjoin outside singletons."""
    if not asdim_verify(system.pieces[piece].space, n, w):
        raise DomainError("piece witness does not verify at the stated dimension")
    return AsdimWitness(
        extend_to_ambient(system, w.scale),
        with_outside_singletons(system, piece, w.coarsening),
        piece_certificate(system, piece, w.coarsening, w.bound),
    )


def asdim_restrict(system: FilteredSystem, piece: int, n: int, w: AsdimWitness) -> AsdimWitness:
    """Piece witness from a colimit witness: intersect members with the carrier."""
    if not asdim_verify(system, n, w):
        raise DomainError("colimit witness does not verify at the stated dimension")
    pc = system.pieces[piece]
    inside = system.ambient.mask(pc.carrier)

    def cut(fam: Family) -> Family:
        masks = tuple(m & inside for m in fam.masks if m & inside)
        return reroot(Family.from_masks(fam.space, masks), pc.space.points)

    coarsening = cut(w.coarsening)
    return AsdimWitness(cut(w.scale), coarsening, is_bounded(pc.space, coarsening))
