"""Asymptotic dimension witnesses: verify, search, lift, restrict.

A witness for dimension at most n pairs an input family with a bounded
coarsening of multiplicity at most n + 1. Search explores coarsenings built
as unions of the input's members; that loses no generality, since any valid
coarsening member can be shrunk to the union of the input members assigned
to it without raising multiplicity or losing boundedness.

The one search is exact on every size of space and spends at most
NODE_BUDGET nodes unless told otherwise. It runs on member masks, with a
per-point count of the groups holding each point; the coarsening found is
built with Family.from_masks and checked once, by asdim_verify, before the
search returns it.
asdim_restrict cuts both families to the piece with families.cut.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# assign calls one search may make before it stops undecided
NODE_BUDGET = 100_000


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


class _BudgetSpent(Exception):
    """The search passed its node budget before deciding."""


def _search(
    n: int, items: list[int], tops: tuple[int, ...], size: int, budget: int
) -> Optional[tuple[int, ...]]:
    """Assign the item masks to groups in order, each group's union fitting
    a top member, keeping per-point counts of the groups holding a point.

    holds[i] is the bitset of top members containing item i, and fits[g]
    the AND of its items' holds, so a union fits iff fits[g] & holds[i] is
    nonzero. The walk is depth first, with an explicit trail of placements
    in place of recursion, so its depth is not bounded by the interpreter's
    stack: each item tries the groups in order and then a new one, and when
    none takes it the last placement is undone and moved to its next group.
    Each item offered to the groups is one node; passing budget nodes raises
    _BudgetSpent."""
    holds = [sum(1 << t for t, v in enumerate(tops) if m & ~v == 0) for m in items]
    counts = [0] * size
    groups: list[int] = []
    fits: list[int] = []
    trail: list[tuple[int, int, int, list[int], bool]] = []  # (group, union, fit, fresh, new)
    nodes, start = 1, 0
    while True:
        if nodes > budget:
            raise _BudgetSpent
        i = len(trail)
        if i == len(items):
            return tuple(groups)
        m, h = items[i], holds[i]
        for gi in range(start, len(groups) + 1):
            new = gi == len(groups)
            g, f = (0, -1) if new else (groups[gi], fits[gi])
            if not f & h:
                continue
            fresh = bits(m & ~g)
            if any(counts[k] > n for k in fresh):
                continue
            if new:
                groups.append(0)
                fits.append(-1)
            groups[gi], fits[gi] = g | m, f & h
            for k in fresh:
                counts[k] += 1
            trail.append((gi, g, f, fresh, new))
            nodes, start = nodes + 1, 0
            break
        else:
            if not trail:
                return None
            gi, g, f, fresh, new = trail.pop()
            for k in fresh:
                counts[k] -= 1
            if new:
                groups.pop()
                fits.pop()
            else:
                groups[gi], fits[gi] = g, f
            start = gi + 1


def asdim_search(
    space: ScaledSpace, n: int, scale: Union[Family, int], budget: int = NODE_BUDGET
) -> SearchOutcome:
    """First witness in canonical enumeration order, checked by asdim_verify.

    The search walks set partitions of the input's non-singleton members,
    each part's union inside a top-level member. The union-built search
    space is complete, so finding none is exhausted: it refutes that any
    coarsening of multiplicity at most n + 1 is bounded at the top level.
    Passing budget nodes stops the search, and so does a coarsening that
    asdim_verify rejects; neither decides anything.
    """
    if not isinstance(space, ScaledSpace):
        raise DomainError("witness search needs a single-space target")
    if n < 0:
        raise DomainError("dimension bound must be nonnegative")
    u = _as_scale(space, scale)
    items = [m for m in u.masks if m & (m - 1)]
    tops = space.level(space.depth).masks
    try:
        groups = _search(n, items, tops, len(space.points), budget)
    except _BudgetSpent:
        detail = f"search stopped after its budget of {budget} nodes; this decides nothing"
        return SearchOutcome(detail=detail)
    if groups is None:
        detail = f"no coarsening of multiplicity at most {n + 1} is bounded at level {space.depth}"
        return SearchOutcome(detail=detail, exhausted=True)
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
