"""Metrizability generators: closure of pairs under union-with-star.

A generator list certifies metrizability when every ordered pair of its
families, together with their member-wise star, fits inside some listed
family. The merge over a filtered system pools per-piece generator lists and
routes each pair through the pieces' upper bound, failing with a truncation
error when that piece's list has no coarse enough family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..colimit import FilteredSystem
from ..errors import DomainError, TruncationError
from ..families import Family, PointSet, refines, reroot, star_family
from ..reports import Clause, Report, from_clauses


@dataclass(frozen=True)
class GeneratorSet:
    space: PointSet
    families: tuple[Family, ...]


def generator_set(space: PointSet, families: Sequence[Family]) -> GeneratorSet:
    families = tuple(families)
    if not families:
        raise DomainError("a generator set needs at least one family")
    for fam in families:
        if fam.space != space:
            raise DomainError("generator family is not over the stated point set")
    return GeneratorSet(space, families)


def combined_pair(a: Family, b: Family) -> Family:
    return Family.from_masks(a.space, a.masks + b.masks + star_family(a, b).masks)


def metrizability_generator_check(g: GeneratorSet) -> Report:
    clauses = []
    for i, a in enumerate(g.families):
        for j, b in enumerate(g.families):
            combined = combined_pair(a, b)
            k = next(
                (
                    idx
                    for idx, cand in enumerate(g.families)
                    if refines(combined, cand)
                ),
                None,
            )
            clauses.append(
                Clause(
                    f"pair ({i}, {j})",
                    k is not None,
                    f"coarsened by family {k}"
                    if k is not None
                    else "no family in the list coarsens the combination",
                )
            )
    return from_clauses(clauses)


def metrizability_merge(
    system: FilteredSystem, piece_sets: Sequence[GeneratorSet]
) -> tuple[GeneratorSet, Report]:
    """Pooled ambient generator set plus the routed pair-by-pair report."""
    if len(piece_sets) != len(system.pieces):
        raise DomainError("one generator set per piece is required")
    for pc, gs in zip(system.pieces, piece_sets):
        if gs.space != pc.space.points:
            raise DomainError(
                f"generator set for piece {pc.name!r} is not over its carrier"
            )
        if not metrizability_generator_check(gs):
            # A list drawn from a short chain may close only at deeper levels,
            # so an unclosed piece list is a truncation symptom, not an error
            # in the input itself.
            raise TruncationError(
                f"generator set for piece {pc.name!r} fails its own pair check"
            )
    merged: list[Family] = []
    piece_of: list[int] = []
    for s, gs in enumerate(piece_sets):
        for fam in gs.families:
            merged.append(reroot(fam, system.ambient))
            piece_of.append(s)
    clauses = []
    for i, a in enumerate(merged):
        for j, b in enumerate(merged):
            t = system.upper_piece(piece_of[i], piece_of[j])
            combined = combined_pair(a, b)
            k = next(
                (
                    idx
                    for idx in range(len(merged))
                    if piece_of[idx] == t and refines(combined, merged[idx])
                ),
                None,
            )
            if k is None:
                raise TruncationError(
                    f"no coarsening for the pair (family {i}, family {j}) "
                    f"within piece {system.pieces[t].name!r}'s generator list"
                )
            clauses.append(
                Clause(
                    f"pair ({i}, {j})",
                    True,
                    f"coarsened by family {k} via piece {system.pieces[t].name!r}",
                )
            )
    return GeneratorSet(system.ambient, tuple(merged)), from_clauses(clauses)
