"""Finite presentations of asymptotic filtered colimits.

A FilteredSystem is a list of pieces covering an ambient point set, with an
upper-bound table on piece pairs and pairwise coincidence of the chains
restricted to each overlap. A piece is a named scaled space whose points,
listed in ambient order, are its carrier. A system checks itself when it is
built (FilteredSystem.__post_init__), as a piece's space checked its chain:
every FilteredSystem value, however it was made, is covering, directed and
coincident. The check runs on bitmasks over the ambient index, without
building restricted spaces, and is the only code that puts chain members
there: each piece's top level, on which coincidence is decided, and the
full chains of a failing pair, to name the failing level. Every piece chain
is monotone, so comparing top levels is exact: every level refines its
chain's top, so a level fits wherever its top fits, and a level that fits
some level of the other chain fits that chain's top.

Coincidence is checked against one top piece T, whose carrier is the whole
ambient set: upper_piece folded over every piece (top_piece). Each other
piece is compared with T on its own carrier, one comparison per piece in
place of one per overlapping pair. Lemma: if every piece coincides with T,
every pair coincides. Let pieces r and s each coincide with T on their own
carriers, and take a level of r. It fits, cut to r's carrier, some level L
of T, and L, cut to s's carrier, fits some level of s. A member m of the
level of r, cut to the overlap of r and s, with two or more points, lies in
m cut to r's carrier, so in some member w of L. Then w cut to s's carrier
holds those two or more points, so it lies in some member of that level of
s, and so does m cut to the overlap. The same holds with r and s swapped.
Only a failing system runs the pairwise scan: it compares the top levels of
every overlapping pair in order and names the first failing pair and its
first failing level. It finds one, since a piece that fails against T
makes a failing pair with T.

System-wide questions are asked of T's top level. Lemma: every piece
member lies in a member of T's top level. A member with
two or more points lies in a member of its own chain's top level, and that
level coincides with T on the piece's carrier, so the member lies in a
member of T's top level; a single point does too, since that level covers.
So system_weakly_bounded is weakly_bounded on T's space, and property A's
geometry cap reads T's top level.

A family over the ambient set is colimit-bounded when, for some piece, every
member with more than one point sits inside the carrier and the family
stripped of outside singletons is bounded in that piece's chain. stripped
gives that family over the piece's points, or None when it does not exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DomainError, TruncationError, ValidationError
from .families import (
    Family,
    Point,
    PointSet,
    Subset,
    essentially_refines,
    reroot,
    star_family,
    trivial_extension,
    uncovered_point,
)
from .spaces import ScaledSpace, coincidence_masks, deepen, is_bounded, weakly_bounded


@dataclass(frozen=True)
class Piece:
    """A named space; its points, in ambient order, are the piece's carrier."""

    name: str
    space: ScaledSpace


@dataclass(frozen=True)
class ColimitBoundedness:
    """Certificate: strip the family to the piece's carrier and it essentially
    refines that piece's chain at the stated 1-based level. Only existence is
    contractual; a different valid piece is an equally good certificate."""

    piece: int
    level: int


@dataclass(frozen=True)
class FilteredSystem:
    """Pieces covering the ambient set, directed by the upper table and
    coinciding on overlaps, checked when built (see the module docstring).
    The checks, in order: at least one piece; each piece's points are
    ambient points in ambient order; upper's keys are piece pairs and its
    values pieces, with no pair named twice in either order; distinct names;
    coverage; directedness, which fills a missing pair with the least piece
    holding the union; coincidence. Stored: pieces and meta as tuples, upper
    as the full table."""

    ambient: PointSet
    pieces: tuple[Piece, ...]
    upper: dict[tuple[int, int], int] = field(hash=False)  # {(r, s): t} for r <= s
    meta: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        ambient, pieces = self.ambient, tuple(self.pieces)
        if not pieces:
            raise ValidationError("a system needs at least one piece")
        carriers = []
        for p in pieces:
            ids = p.space.points.ids
            mask = ambient.mask(filter(ambient.__contains__, ids))
            if ambient.points_of(mask) != ids:
                raise DomainError(
                    f"piece {p.name!r} points are not ambient points in ambient order"
                )
            carriers.append(mask)
        n = len(pieces)
        names = [p.name for p in pieces]
        index = lambda x: isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n
        given: dict[tuple[int, int], int] = {}
        for pair, t in self.upper.items():
            if not (
                isinstance(pair, tuple) and len(pair) == 2 and index(pair[0]) and index(pair[1])
            ):
                raise ValidationError(
                    f"upper bound given for {pair!r}, which is not a pair of pieces"
                )
            r, s = pair
            if not index(t):
                raise ValidationError(
                    f"upper bound of pieces {names[r]} and {names[s]} is {t!r}, not a piece index"
                )
            r, s = key = (r, s) if r <= s else (s, r)
            if key in given:
                raise ValidationError(
                    f"upper bound of pieces {names[r]} and {names[s]} given twice"
                )
            given[key] = t

        if len(set(names)) != n:
            raise ValidationError("piece names must be distinct")
        q = uncovered_point(Family.from_masks(ambient, tuple(carriers)))
        if q is not None:
            raise ValidationError(f"carriers do not cover: point {q!r} is in no piece")
        table: dict[tuple[int, int], int] = {}
        for r in range(n):
            for s in range(r, n):
                t = given.get((r, s))
                union = carriers[r] | carriers[s]
                if t is not None:
                    if union & ~carriers[t]:
                        raise ValidationError(
                            f"directedness failure: upper({names[r]}, {names[s]}) = "
                            f"{names[t]} does not contain the union"
                        )
                else:
                    t = next((c for c in range(n) if not union & ~carriers[c]), None)
                    if t is None:
                        raise ValidationError(
                            f"directedness failure: no piece contains "
                            f"{names[r]} union {names[s]}"
                        )
                table[(r, s)] = t
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "upper", table)
        object.__setattr__(self, "meta", tuple(self.meta))

        tops = [[set(reroot(p.space.levels[-1], ambient).masks)] for p in pieces]
        top = self.top_piece()
        if all(
            coincidence_masks(tops[r], tops[top], carriers[r]) is None
            for r in range(n)
            if r != top
        ):
            return
        for r in range(n):
            for s in range(r + 1, n):
                inter = carriers[r] & carriers[s]
                if not inter or coincidence_masks(tops[r], tops[s], inter) is None:
                    continue
                full = [
                    [reroot(lv, ambient).masks for lv in pieces[x].space.levels] for x in (r, s)
                ]
                side, lvl = coincidence_masks(full[0], full[1], inter)
                owner = names[r] if side == "first" else names[s]
                raise ValidationError(
                    f"restrictions of pieces {names[r]} and {names[s]} do not "
                    f"coincide: level {lvl} of {owner} restricted to the "
                    f"intersection essentially refines no level of the other"
                )
        raise AssertionError("a piece that fails against the top piece fails with it")

    def piece_index(self, name: str) -> int:
        """Index of the piece with this name, else the name read as an index
        when it is ASCII digits only."""
        for i, p in enumerate(self.pieces):
            if p.name == name:
                return i
        try:
            if not (name.isascii() and name.isdigit()):
                raise ValueError(name)
            i = int(name)
        except ValueError:
            raise DomainError(f"no piece named {name!r}") from None
        if not 0 <= i < len(self.pieces):
            raise DomainError(f"piece index {i} out of range")
        return i

    def upper_piece(self, r: int, s: int) -> int:
        try:
            return self.upper[(min(r, s), max(r, s))]
        except KeyError:
            raise DomainError(f"no upper bound recorded for pieces {r}, {s}") from None

    def top_piece(self) -> int:
        """A piece whose carrier holds every carrier, so the whole ambient
        set: upper_piece folded over the pieces in index order."""
        return reduce(self.upper_piece, range(len(self.pieces)))


def validate_system(
    ambient: PointSet,
    pieces: Sequence[Piece],
    upper: Optional[Mapping[tuple[int, int], int]] = None,
    meta: Iterable[str] = (),
) -> FilteredSystem:
    """The system of these pieces, checked when built; upper may be partial."""
    return FilteredSystem(ambient, tuple(pieces), upper or {}, tuple(meta))


def deepen_system(system: FilteredSystem) -> FilteredSystem:
    """Every piece deepened (spaces.deepen), with the same upper table. The
    rebuilt system checks itself and passes: carriers are unchanged, and
    each overlap compares two single members cut to the same carrier, which
    every level of either piece, cut alike, fits."""
    pieces = tuple(Piece(p.name, deepen(p.space)) for p in system.pieces)
    return replace(system, pieces=pieces)


def strip(f: Family, keep: Iterable[Point]) -> Family:
    """Drop singleton members lying outside keep; keep everything else."""
    inside = f.space.mask(p for p in keep if p in f.space)
    return Family.from_masks(f.space, tuple(m for m in f.masks if m & (m - 1) or not m & ~inside))


def stripped(f: Family, keep: Iterable[Point], pts: PointSet) -> Optional[Family]:
    """f stripped to keep and viewed over pts, which holds it; None when a
    member with two or more points leaves keep."""
    try:
        return reroot(strip(f, keep), pts)
    except DomainError:
        return None


def _check_ambient(system: FilteredSystem, f: Family) -> None:
    if f.space != system.ambient:
        raise DomainError("family is not over the system's ambient point set")


def colimit_bounded(system: FilteredSystem, f: Family) -> Optional[ColimitBoundedness]:
    """First piece (ascending index) admitting the family, with least level.

    Absence means not bounded within this truncation; it never proves
    unboundedness of a deeper presentation.
    """
    _check_ambient(system, f)
    for s, piece in enumerate(system.pieces):
        inner = stripped(f, piece.space.points, piece.space.points)
        lvl = None if inner is None else is_bounded(piece.space, inner)
        if lvl is not None:
            return ColimitBoundedness(s, lvl)
    return None


def check_boundedness(system: FilteredSystem, f: Family, cert: ColimitBoundedness) -> bool:
    """Does the certificate actually certify the family?"""
    _check_ambient(system, f)
    if not 0 <= cert.piece < len(system.pieces):
        return False
    piece = system.pieces[cert.piece]
    if not 1 <= cert.level <= piece.space.depth:
        return False
    inner = stripped(f, piece.space.points, piece.space.points)
    return inner is not None and essentially_refines(inner, piece.space.level(cert.level))


def colimit_star(
    system: FilteredSystem, f: Family, g: Family
) -> tuple[Family, ColimitBoundedness]:
    """Member-wise star of f against g, with a boundedness certificate.

    Both inputs are stripped to their certifying pieces, pushed into the upper
    piece t, starred there against the stripped g, and the bounding level of
    that pushed star certifies the ambient star family. Raises
    TruncationError when piece t's chain lacks the star depth to certify.
    """
    cf = colimit_bounded(system, f)
    cg = colimit_bounded(system, g)
    if cf is None:
        raise TruncationError(
            "first family has no boundedness certificate within this truncation"
        )
    if cg is None:
        raise TruncationError(
            "second family has no boundedness certificate within this truncation"
        )
    t = system.upper_piece(cf.piece, cg.piece)
    pt = system.pieces[t]
    fs = stripped(f, system.pieces[cf.piece].space.points, pt.space.points)
    gs = stripped(g, system.pieces[cg.piece].space.points, pt.space.points)
    i = is_bounded(pt.space, fs)
    j = is_bounded(pt.space, gs)
    if i is None or j is None:
        raise TruncationError(
            f"piece {pt.name!r} chain is too shallow to absorb the stripped inputs"
        )
    if max(i, j) > pt.space.star_depth:
        raise TruncationError(
            f"star budget exhausted in piece {pt.name!r}: inputs bounded at levels "
            f"{i} and {j} but star depth is {pt.space.star_depth}"
        )
    pushed = Family.from_masks(pt.space.points, fs.masks + gs.masks)
    bounding = is_bounded(pt.space, star_family(pushed, gs))
    if bounding is None:
        raise TruncationError(
            f"piece {pt.name!r} chain does not bound the pushed star"
        )
    return star_family(f, g), ColimitBoundedness(t, bounding)


def extend_to_ambient(system: FilteredSystem, fam: Family) -> Family:
    """View a piece family over the ambient set and adjoin all singletons."""
    return trivial_extension(reroot(fam, system.ambient))


def extended_level(system: FilteredSystem, piece: int, level: int) -> Family:
    return extend_to_ambient(system, system.pieces[piece].space.level(level))


def system_weakly_bounded(system: FilteredSystem, b: Subset) -> bool:
    """b is weakly bounded in the top piece's space; see the module docstring."""
    return weakly_bounded(system.pieces[system.top_piece()].space, b)
