"""Shared plumbing for invariant verifiers.

A verifier target is either a single scaled space or a filtered system, and a
boundedness claim is a level index, a piece certificate, or None to request a
search. Absence under search is reported as a truncation failure; an explicit
claim that fails to check is a hard failure.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Sequence, Union

from ..colimit import ColimitBoundedness, FilteredSystem, check_boundedness, colimit_bounded
from ..errors import DomainError
from ..families import Family, Point, PointSet, essentially_refines, reroot
from ..reports import Clause, Report, SearchOutcome
from ..spaces import ScaledSpace, is_bounded

Target = Union[ScaledSpace, FilteredSystem]
Bound = Union[int, ColimitBoundedness, None]


def target_points(target: Target) -> PointSet:
    if isinstance(target, ScaledSpace):
        return target.points
    return target.ambient


def ensure_over_target(target: Target, fam: Family, what: str) -> None:
    if fam.space != target_points(target):
        raise DomainError(f"{what} is not over the target's point set")


def find_bound(target: Target, fam: Family) -> Bound:
    if isinstance(target, ScaledSpace):
        return is_bounded(target, fam)
    return colimit_bounded(target, fam)


def bound_holds(target: Target, fam: Family, bound: Union[int, ColimitBoundedness]) -> bool:
    if isinstance(target, ScaledSpace):
        if not isinstance(bound, int):
            raise DomainError("a single space takes a level index as its bound")
        if not 1 <= bound <= target.depth:
            return False
        return essentially_refines(fam, target.level(bound))
    if not isinstance(bound, ColimitBoundedness):
        raise DomainError("a system takes a piece certificate as its bound")
    return check_boundedness(target, fam, bound)


def describe_bound(bound: Union[int, ColimitBoundedness]) -> str:
    if isinstance(bound, int):
        return f"bounded at level {bound}"
    return f"bounded in piece {bound.piece} at level {bound.level}"


def bound_clause(name: str, target: Target, fam: Family, bound: Bound) -> Clause:
    if bound is None:
        found = find_bound(target, fam)
        if found is None:
            return SearchOutcome(detail="no bounding level within this truncation").clause(name)
        return Clause(name, True, describe_bound(found))
    if bound_holds(target, fam, bound):
        return Clause(name, True, describe_bound(bound))
    return Clause(name, False, "claimed boundedness certificate does not check")


def resolve_bound(target: Target, fam: Family, bound: Bound) -> Bound:
    """An explicit bound passed through, or the first found by search."""
    if bound is not None:
        return bound
    return find_bound(target, fam)


def integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, rows)``: den is the lcm of the entries' distinct denominators,
    and rows are the rows times den, as integers. Integer rows, as in every
    corpus pinch witness, are their numerators, left unscaled."""
    den = lcm(*{v.denominator for row in rows for v in row})
    if den == 1:
        numerator = attrgetter("numerator")
        return den, tuple(tuple(map(numerator, row)) for row in rows)
    return den, tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in rows)


# steps shared by the lifters, which push a verified piece witness to the colimit


def outside_points(system: FilteredSystem, piece: int) -> tuple[Point, ...]:
    """Ambient points off the piece's carrier, in ambient order."""
    carrier = system.pieces[piece].carrier
    return tuple(p for p in system.ambient.ids if p not in carrier)


def require_verified(report: Report, text: str) -> None:
    """The guard of every lifter and asdim_restrict on the witness it is given."""
    if not report:
        raise DomainError(text)


def with_outside_singletons(system: FilteredSystem, piece: int, fam: Family) -> Family:
    """A piece family over the ambient set, plus one singleton per outside point."""
    pts = system.ambient
    singletons = tuple(pts.mask((p,)) for p in outside_points(system, piece))
    return Family.from_masks(pts, reroot(fam, pts).masks + singletons)


def piece_certificate(
    system: FilteredSystem, piece: int, fam: Family, bound: Bound
) -> ColimitBoundedness:
    """The piece witness's bound on fam, as a certificate in that piece."""
    return ColimitBoundedness(piece, resolve_bound(system.pieces[piece].space, fam, bound))


def unit_padded_rows(
    system: FilteredSystem, piece: int, rows: tuple[tuple[Fraction, ...], ...]
) -> tuple[tuple[Fraction, ...], ...]:
    """Rows over the ambient set from rows over the piece's points.

    A piece row gains one zero per outside point; the k-th outside point gets
    zeros in the piece's columns and the k-th unit vector after them.
    """
    pc = system.pieces[piece]
    zero_pad = (Fraction(0),) * len(outside_points(system, piece))
    zero_row = (Fraction(0),) * len(rows[0])
    out = []
    k = 0
    for p in system.ambient.ids:
        if p in pc.carrier:
            out.append(rows[pc.space.points.index(p)] + zero_pad)
        else:
            out.append(zero_row + zero_pad[:k] + (Fraction(1),) + zero_pad[k + 1 :])
            k += 1
    return tuple(out)
