"""Finite presentations of asymptotic filtered colimits.

A FilteredSystem is a list of pieces covering an ambient point set, with an
upper-bound table on piece pairs and pairwise coincidence of the chains
restricted to each overlap. A piece is a named scaled space whose points,
listed in ambient order, are its carrier. A piece's space checked its
chain when it was built, so every piece chain is monotone and covering and
each overlap is compared on top levels. validate_system checks coverage,
directedness and coincidence on bitmasks over the ambient index, without
building restricted spaces. Its core, validate_pieces, which the system
decoder shares, is the only code that puts chain members on the ambient
index: each piece's top level, on which coincidence is decided, and the
full chains of a failing pair, to name the failing level.

Coincidence is checked against one top piece T, whose carrier is the whole
ambient set: one comparison per other piece, on that piece's carrier, in
place of one per overlapping pair. That decides every pair (the lemma in
validate_pieces): when pieces r and s each coincide with T, a member of r
cut to their overlap lies in a member of T, and that member cut to s lies
in a member of s. Only a failing system runs the pairwise scan, which names
the first failing pair and its first failing level.

System-wide questions are asked of T's top level. Lemma: in a validated
system every piece member lies in a member of T's top level. A member with
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
    ambient: PointSet
    pieces: tuple[Piece, ...]
    upper: dict[tuple[int, int], int] = field(hash=False)  # {(r, s): t} for r <= s
    meta: tuple[str, ...] = field(default=(), compare=False)

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
    """Check coverage, directedness, and pairwise coincidence of
    restrictions; each piece's space checked its own chain when it was built.

    Per piece, in order: its points are ambient points, listed in ambient
    order. Then validate_pieces checks the system.

    Every key of upper is a pair of piece indices and every value a piece
    index. When upper is None or partial, missing pairs are filled by
    scanning for the least piece whose carrier contains the union; an
    unfillable pair is a directedness failure, and a pair named in both
    orders is refused.
    """
    pieces = tuple(pieces)
    if not pieces:
        raise ValidationError("a system needs at least one piece")
    for p in pieces:
        if tuple(q for q in ambient.ids if q in p.space.points) != p.space.points.ids:
            raise DomainError(f"piece {p.name!r} points are not ambient points in ambient order")
    n = len(pieces)
    index = lambda x: isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n
    table: dict[tuple[int, int], int] = {}
    for pair, t in (upper or {}).items():
        if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(index, pair))):
            raise ValidationError(f"upper bound given for {pair!r}, which is not a pair of pieces")
        r, s = pair
        if not index(t):
            raise ValidationError(
                f"upper bound of pieces {pieces[r].name} and {pieces[s].name} is {t!r}, "
                "not a piece index"
            )
        r, s = key = (min(pair), max(pair))
        if key in table:
            raise ValidationError(
                f"upper bound of pieces {pieces[r].name} and {pieces[s].name} given twice"
            )
        table[key] = t
    return validate_pieces(ambient, pieces, table, meta)


def validate_pieces(
    ambient: PointSet,
    pieces: Sequence[Piece],
    upper: Mapping[tuple[int, int], int],
    meta: Iterable[str],
) -> FilteredSystem:
    """The checks of validate_system on pieces whose points are ambient
    points in ambient order, with upper keyed by piece pairs (r, s), r <= s:
    distinct names, coverage, directedness and coincidence.

    Each carrier becomes an ambient mask here. Only this code puts chain
    members on the ambient index: every piece's top level, on which
    coincidence is decided, and the full chains of a pair that fails, to
    name its first failing level as coincidence_masks does. Every
    chain is monotone, so comparing top levels is exact: every level refines
    its chain's top, so a level fits wherever its top fits, and a level that
    fits some level of the other chain fits that chain's top.

    Folding the directedness table over every piece (top_piece) gives a top
    piece T whose carrier holds every carrier, so the whole ambient set. Each
    other piece is compared with T on its own carrier, and if all of them
    coincide with T, every pair coincides. Lemma: let pieces r and s each
    coincide with T on their own carriers, and take a level of r. It fits,
    cut to r's carrier, some level L of T, and L, cut to s's carrier, fits
    some level of s. A member m of the level of r, cut to the overlap of r
    and s, with two or more points, lies in m cut to r's carrier, so in some
    member w of L. Then w cut to s's carrier holds those two or more points,
    so it lies in some member of that level of s, and so does m cut to the
    overlap. The same holds with r and s swapped.

    Otherwise the pairwise scan runs: it compares the top levels of every
    overlapping pair in order and names the first failing pair and
    level. It finds a failing pair, since a piece that fails against T
    makes one with T.
    """
    names = [p.name for p in pieces]
    if len(set(names)) != len(names):
        raise ValidationError("piece names must be distinct")
    carriers = [ambient.mask(p.space.points.ids) for p in pieces]
    q = uncovered_point(Family.from_masks(ambient, tuple(carriers)))
    if q is not None:
        raise ValidationError(f"carriers do not cover: point {q!r} is in no piece")

    table: dict[tuple[int, int], int] = {}
    n = len(pieces)
    for r in range(n):
        for s in range(r, n):
            t = upper.get((r, s))
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

    system = FilteredSystem(ambient, tuple(pieces), table, tuple(meta))
    tops = [[set(reroot(p.space.levels[-1], ambient).masks)] for p in pieces]
    top = system.top_piece()
    if any(
        coincidence_masks(tops[r], tops[top], carriers[r]) is not None
        for r in range(n)
        if r != top
    ):
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
    return system


def deepen_system(system: FilteredSystem) -> FilteredSystem:
    """Every piece deepened (spaces.deepen), with the same upper table. It
    stays valid: carriers are unchanged, and each overlap compares two
    single members cut to the same carrier, which every level of either
    piece, cut alike, fits."""
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
