"""Asymptotic property C: witness verification and a probe harness.

A witness against a monotone chain prefix picks one bounded selection family
per chain entry so that the selections jointly cover and each selection is
star-disjoint at its own scale. The probe searches pieces and colimit alike
and reports found/undecided only; absence of a witness in the greedy search
space never claims a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..colimit import FilteredSystem, extend_to_ambient
from ..errors import DomainError
from ..families import Family, refines, star_family, uncovered_point
from ..reports import Clause, Report, SearchOutcome, from_clauses
from ..spaces import ScaledSpace
from .common import Bound, Target, bound_clause, find_bound, target_points


@dataclass(frozen=True)
class ApcWitness:
    selections: tuple[Family, ...]
    bounds: tuple[Bound, ...]


def _default_chain(target: Target, n: int) -> tuple[Family, ...]:
    if isinstance(target, ScaledSpace):
        if n > target.depth:
            raise DomainError("witness prefix exceeds the chain depth")
        return target.levels[:n]
    raise DomainError("a system target needs an explicit chain")


def apc_verify(
    target: Target, w: ApcWitness, chain: Optional[Sequence[Family]] = None
) -> Report:
    n = len(w.selections)
    if n == 0:
        raise DomainError("a witness needs at least one selection")
    if len(w.bounds) != n:
        raise DomainError("one boundedness claim per selection is required")
    chain = tuple(chain) if chain is not None else _default_chain(target, n)
    if len(chain) < n:
        raise DomainError("chain is shorter than the witness prefix")
    chain = chain[:n]
    pts = target_points(target)
    for fam in chain:
        if fam.space != pts:
            raise DomainError("chain entry is not over the target's point set")
    for fam in w.selections:
        if fam.space != pts:
            raise DomainError("selection is not over the target's point set")

    clauses = []
    mono = next(
        (i for i in range(n - 1) if not refines(chain[i], chain[i + 1])), None
    )
    clauses.append(
        Clause(
            "chain monotone",
            mono is None,
            "" if mono is None else f"entry {mono + 1} does not refine entry {mono + 2}",
        )
    )
    for j, (sel, b) in enumerate(zip(w.selections, w.bounds), start=1):
        clauses.append(bound_clause(f"selection {j} bounded", target, sel, b))
    joint = tuple(m for sel in w.selections for m in sel.masks)
    missing = uncovered_point(Family.from_masks(pts, joint))
    clauses.append(
        Clause(
            "selections jointly cover",
            missing is None,
            "" if missing is None else f"point {missing!r} is uncovered",
        )
    )
    for j, sel in enumerate(w.selections, start=1):
        ms, stars = sel.masks, star_family(sel, chain[j - 1]).masks
        meets = ((m, w) for a, m in enumerate(ms) for w in ms if stars[a] & w)
        offense = next((pair for pair in meets if pair[0] != pair[1]), None)
        clauses.append(
            Clause(
                f"selection {j} star-disjoint at its scale",
                offense is None,
                ""
                if offense is None
                else "members {"
                + ", ".join(pts.points_of(offense[0]))
                + "} and {"
                + ", ".join(pts.points_of(offense[1]))
                + "} meet through a star",
            )
        )
    return from_clauses(clauses)


def apc_search(target: Target, chain: Sequence[Family]) -> SearchOutcome:
    """Greedy witness against the chain, found or stopped.

    Candidates for selection j are the j-th chain entry's members followed by
    the point singletons not already among them; a candidate is kept when it
    covers a new point and stays star-disjoint from the kept ones. Incomplete
    by design, so finding none decides nothing. The witness found is not
    verified here; apc_verify judges it.
    """
    stopped = SearchOutcome(detail="no witness within the greedy search space")
    pts = target_points(target)
    covered = 0
    selections: list[Family] = []
    bounds: list[Bound] = []
    for u in chain:
        if u.space != pts:
            raise DomainError("chain entry is not over the target's point set")
        present = set(u.masks)
        singletons = (1 << i for i in range(len(pts)))
        pool = Family.from_masks(pts, u.masks + tuple(b for b in singletons if b not in present))
        stars = star_family(pool, u).masks
        kept: list[int] = []  # positions in the pool
        for i, m in enumerate(pool.masks):
            if not m & ~covered:
                continue
            if any(stars[i] & pool.masks[k] or stars[k] & m for k in kept if pool.masks[k] != m):
                continue
            kept.append(i)
            covered |= m
        sel = Family.from_masks(pts, tuple(pool.masks[k] for k in kept))
        b = find_bound(target, sel)
        if b is None:
            return stopped
        selections.append(sel)
        bounds.append(b)
        if covered == (1 << len(pts)) - 1:
            return SearchOutcome(ApcWitness(tuple(selections), tuple(bounds)))
    return stopped


@dataclass(frozen=True)
class ApcProbeOutcome:
    report: Report
    piece_witnesses: tuple[Optional[ApcWitness], ...]
    colimit_witness: Optional[ApcWitness]
    colimit_chain: tuple[Family, ...]


def colimit_probe_chain(
    system: FilteredSystem, prefix_len: Optional[int] = None
) -> tuple[Family, ...]:
    """Extended levels of a piece sitting above every other piece."""
    top = 0
    for s in range(1, len(system.pieces)):
        top = system.upper_piece(top, s)
    depth = system.pieces[top].space.depth
    n = depth if prefix_len is None else min(prefix_len, depth)
    return tuple(
        extend_to_ambient(system, system.pieces[top].space.level(i))
        for i in range(1, n + 1)
    )


def apc_probe(
    system: FilteredSystem, prefix_len: Optional[int] = None, budget: int = 16
) -> ApcProbeOutcome:
    """Per-piece and colimit witness searches, reported without negatives.

    Each search, the pieces' in order and then the colimit's, spends one unit
    of the budget; a search left without one is stopped, undecided."""
    chain = colimit_probe_chain(system, prefix_len)
    searches = [(f"piece {p.name}", p.space, p.space.levels[:prefix_len]) for p in system.pieces]
    searches.append(("colimit", system, chain))
    spent = SearchOutcome(detail="search budget exhausted")
    clauses, found = [], []
    for k, (name, target, levels) in enumerate(searches):
        outcome = apc_search(target, levels) if k < budget else spent
        w = outcome.witness
        found.append(w)
        if w is None:
            clauses.append(outcome.clause(name))
        else:
            clauses.append(Clause(name, True, f"witness with {len(w.selections)} selections"))
    return ApcProbeOutcome(from_clauses(clauses), tuple(found[:-1]), found[-1], chain)
