"""Metrizability generators: closure of pairs under union-with-star.

A generator list certifies metrizability when every ordered pair of its
families, together with their member-wise star, fits inside some listed
family. The merge over a filtered system pools per-piece generator lists and
routes each pair through the pieces' upper bound, failing with a truncation
error when that piece's list has no coarse enough family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..colimit import FilteredSystem
from ..errors import DomainError, TruncationError
from ..families import Family, PointSet, first_misfit, reroot, star_family
from ..reports import Clause, Report, from_clauses


@dataclass(frozen=True)
class GeneratorSet:
    """At least one family, each over space; checked when built."""

    space: PointSet
    families: tuple[Family, ...]

    def __post_init__(self):
        if not self.families:
            raise DomainError("a generator set needs at least one family")
        for fam in self.families:
            if fam.space != self.space:
                raise DomainError("generator family is not over the stated point set")


def generator_set(space: PointSet, families: Sequence[Family]) -> GeneratorSet:
    return GeneratorSet(space, tuple(families))


def combined_pair(a: Family, b: Family) -> Family:
    return Family.from_masks(a.space, a.masks + b.masks + star_family(a, b).masks)


def _first_coarsening(
    a: Family, b: Family, candidates: Iterable[tuple[int, Family]]
) -> Optional[int]:
    """Index of the first listed (index, family) candidate that coarsens
    combined_pair(a, b), or None."""
    masks = combined_pair(a, b).masks
    return next((k for k, c in candidates if first_misfit(masks, c.masks) is None), None)


def metrizability_generator_check(g: GeneratorSet) -> Report:
    clauses = []
    for i, a in enumerate(g.families):
        for j, b in enumerate(g.families):
            k = _first_coarsening(a, b, enumerate(g.families))
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
    merged = [reroot(fam, system.ambient) for gs in piece_sets for fam in gs.families]
    piece_of = [s for s, gs in enumerate(piece_sets) for _ in gs.families]
    clauses = []
    for i, a in enumerate(merged):
        for j, b in enumerate(merged):
            t = system.upper_piece(piece_of[i], piece_of[j])
            owned = ((idx, c) for idx, c in enumerate(merged) if piece_of[idx] == t)
            k = _first_coarsening(a, b, owned)
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
