"""Finite point sets and multiset families of subsets.

Families are the basic currency: a Family is an ordered tuple of subsets of a
fixed PointSet, with duplicates allowed and counted (multiset semantics).
A Family stores each member as an int bitmask over its point set (``masks``:
bit i is set when the member holds point i of the point set). Library code
builds and reads families as masks: ``Family.from_masks`` takes masks built
from checked points, and ``bits`` walks a mask's point indices in order. The
frozenset forms are the API edge: ``Family(space, members)`` and ``family``
check every member against the point set, ``members`` (frozensets in member
order) is built on first read, and ``star_set``, ``horizon`` and
``chain_components`` take or give frozensets. Masks move between point sets
in two places only: reroot views the same members over another point set,
and cut intersects them with a smaller one and reindexes them over it
(restrict, asdim_restrict and the corpus's nested pieces all cut).

Each family operation has one kernel, on masks: incidence with star_mask for
stars, first_misfit for refinement and essential refinement, and one body each
for multiplicity, components, horizons and cover. Star here always includes
the base set itself, so star_set(v, u) >= v even when no member of u meets v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import compress, cycle
from operator import or_
from typing import Collection, Iterable, Optional, Sequence

from .errors import DomainError

Point = str
Subset = frozenset

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits as 0/1 bytes


@dataclass(frozen=True)
class PointSet:
    """Non-empty ordered set of distinct point ids. Order fixes determinism."""

    ids: tuple[Point, ...]
    _bit: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not self.ids:
            raise DomainError("point set must be non-empty")
        bit: dict[Point, int] = {}
        for i, p in enumerate(self.ids):
            if not isinstance(p, str):
                raise DomainError(f"point ids must be strings, got {p!r}")
            if p in bit:
                raise DomainError(f"duplicate point id {p!r}")
            bit[p] = 1 << i
        object.__setattr__(self, "_bit", bit)

    def __contains__(self, p: object) -> bool:
        return p in self._bit

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def index(self, p: Point) -> int:
        try:
            return self._bit[p].bit_length() - 1
        except KeyError:
            raise DomainError(f"point {p!r} not in this point set") from None

    def subset(self, ids: Iterable[Point]) -> Subset:
        s = frozenset(ids)
        self.mask(s)
        return s

    def sort(self, s: Iterable[Point]) -> tuple[Point, ...]:
        """Order points by their position in this point set; a repeated point
        is kept once."""
        return self.points_of(self.mask(s))

    def mask(self, ids: Iterable[Point]) -> int:
        """The points as a bitmask over this point set; a repeated point
        counts once."""
        try:
            return reduce(or_, map(self._bit.__getitem__, ids), 0)
        except KeyError as exc:
            raise DomainError(f"point {exc.args[0]!r} not in this point set") from None

    def points_of(self, mask: int) -> tuple[Point, ...]:
        """The points of a mask over this point set, in point order.

        A dense mask is named in one C pass: its binary digits, low bit
        first, as 0/1 bytes that ``compress`` selects the ids by. A sparse
        mask takes one loop step per set bit. The dense pass costs about
        1/16 of a loop step per point plus six steps, so a mask of k bits on
        n points takes the loop while 16k <= n + 96.
        """
        ids = self.ids
        if mask.bit_count() * 16 > len(ids) + 96:
            # through a list: a tuple grown from an iterator is resized as it
            # grows, and the small ones then pile up on the tuple free lists
            return tuple(list(compress(ids, bin(mask)[:1:-1].encode().translate(_BIT_FLAGS))))
        out = []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


def points(ids: Iterable[Point]) -> PointSet:
    return PointSet(tuple(ids))


@dataclass(frozen=True, init=False)
class Family:
    """Multiset of subsets of a shared point set, as an ordered tuple of
    member bitmasks over it."""

    space: PointSet
    masks: tuple[int, ...]

    def __init__(self, space: PointSet, members: Iterable[Subset]):
        members = tuple(members)
        bit = space._bit
        masks = []
        for m in members:
            if not isinstance(m, frozenset):
                raise DomainError("family members must be frozensets")
            try:
                masks.append(sum(map(bit.__getitem__, m)))
            except KeyError as exc:
                raise DomainError(f"member point {exc.args[0]!r} outside the point set") from None
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "masks", tuple(masks))
        self.__dict__["members"] = members  # the given tuple is the members view

    @classmethod
    def from_masks(cls, space: PointSet, masks: tuple[int, ...]) -> Family:
        """The family of these masks over space, taken unchecked: every
        mask must already lie within the point set."""
        u = object.__new__(cls)
        object.__setattr__(u, "space", space)
        object.__setattr__(u, "masks", masks)
        return u

    @cached_property
    def members(self) -> tuple[Subset, ...]:
        """The members as frozensets, in member order."""
        points_of = self.space.points_of
        return tuple(frozenset(points_of(m)) for m in self.masks)

    @cached_property
    def incidence(self) -> tuple[int, ...]:
        """Per point index, the union of the members holding that point, as a
        bitmask; a point in no member has 0. Two points share a member
        exactly when each one's bit is set in the other's entry."""
        inc = [0] * len(self.space)
        for mask in self.masks:
            m = mask
            while m:
                low = m & -m
                inc[low.bit_length() - 1] |= mask
                m ^= low
        return tuple(inc)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.members)


def bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def family(space: PointSet, members: Iterable[Iterable[Point]]) -> Family:
    return Family(space, tuple(space.subset(m) for m in members))


def reroot(u: Family, space: PointSet) -> Family:
    """Same members viewed over a different point set. Members must fit.
    Each distinct member is moved once, in member order; ball levels repeat
    members often."""
    if u.space == space:
        return u
    points_of, bit = u.space.points_of, space._bit
    try:
        moved = {m: sum(map(bit.__getitem__, points_of(m))) for m in dict.fromkeys(u.masks)}
    except KeyError as exc:
        raise DomainError(f"member point {exc.args[0]!r} outside the point set") from None
    return Family.from_masks(space, tuple(map(moved.__getitem__, u.masks)))


def cut(u: Family, pts: PointSet) -> Family:
    """Each member intersected with pts, the members left empty dropped, and
    the rest over pts, which must lie within u's point set."""
    inside = u.space.mask(pts.ids)
    return reroot(Family.from_masks(u.space, tuple(r for m in u.masks if (r := m & inside))), pts)


def family_key(u: Family):
    """Canonical multiset key: sorted tuple of sorted member tuples."""
    return tuple(sorted(map(u.space.points_of, u.masks)))


def _check_same_space(u: Family, v: Family) -> None:
    if u.space != v.space:
        raise DomainError("families live over different point sets")


def star_mask(v: int, inc: Sequence[int]) -> int:
    """The star of mask v: v joined with the incidence entry of each of its
    points, for the incidence table of the family starred against."""
    out = v
    while v:
        low = v & -v
        out |= inc[low.bit_length() - 1]
        v ^= low
    return out


def star_set(v: Subset, u: Family) -> Subset:
    """Union of v with every member of u that meets v."""
    return frozenset(u.space.points_of(star_mask(u.space.mask(v), u.incidence)))


def star_family(v: Family, u: Family) -> Family:
    """Member-wise star of v against u, preserving index correspondence."""
    _check_same_space(v, u)
    inc = u.incidence
    return Family.from_masks(v.space, tuple(star_mask(m, inc) for m in v.masks))


def first_misfit(xs: Iterable[int], ys: Collection[int]) -> Optional[int]:
    """The first mask of xs that sits inside no mask of ys, or None when all
    fit. Chains of balls keep one member per point in point order, so the
    mask of ys at the same position is tried first."""
    if not ys:
        return next(iter(xs), None)
    for m, w in zip(xs, cycle(ys)):
        if m & ~w and not any(m & ~v == 0 for v in ys):
            return m
    return None


def refines(u: Family, v: Family) -> bool:
    """Every member of u (singletons and empties included) sits inside some member of v."""
    _check_same_space(u, v)
    return first_misfit(u.masks, v.masks) is None


def essentially_refines(u: Family, v: Family) -> bool:
    """Like refines but members with at most one point are ignored."""
    _check_same_space(u, v)
    return first_misfit([m for m in u.masks if m & (m - 1)], v.masks) is None


def covers(u: Family) -> bool:
    return uncovered_point(u) is None


def uncovered_point(u: Family) -> Optional[Point]:
    """The first point, in point order, that no member holds."""
    gap = ~reduce(or_, u.masks, 0) & ((1 << len(u.space)) - 1)
    return u.space.ids[(gap & -gap).bit_length() - 1] if gap else None


def trivial_extension(u: Family) -> Family:
    """Adjoin every singleton of the point set; the result always covers."""
    return Family.from_masks(u.space, u.masks + tuple(1 << i for i in range(len(u.space))))


def multiplicity(v: Family) -> int:
    """Largest number of members (counted with duplicity) sharing one point."""
    counts = [0] * len(v.space)
    for m in v.masks:
        while m:
            low = m & -m
            counts[low.bit_length() - 1] += 1
            m ^= low
    return max(counts)


def component_masks(masks: Iterable[int]) -> list[int]:
    """Blocks of the overlap relation on the masks, as unions of masks,
    ordered by least bit. Bits in no mask appear in no block."""
    blocks: list[int] = []
    for m in masks:
        if m:
            kept = [b for b in blocks if not b & m]
            kept.append(reduce(or_, (b for b in blocks if b & m), m))
            blocks = kept
    return sorted(blocks, key=lambda b: b & -b)


def chain_components(u: Family) -> tuple[Subset, ...]:
    """Blocks of the overlap relation on u's members, as unions of members.

    Returns a partition of the covered points, ordered by least point index.
    Points not covered by u do not appear.
    """
    return tuple(frozenset(u.space.points_of(b)) for b in component_masks(u.masks))


def horizon(a: Subset, u: Family) -> Family:
    """Sub-family of members meeting a, duplicates and order preserved."""
    return Family.from_masks(u.space, tuple(u.masks[i] for i in horizon_indices(a, u)))


def horizon_indices(a: Subset, u: Family) -> tuple[int, ...]:
    am = u.space.mask(a)
    return tuple(i for i, m in enumerate(u.masks) if m & am)
