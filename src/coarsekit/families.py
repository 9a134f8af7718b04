"""Finite point sets and multiset families of subsets.

Families are the basic currency: a Family is an ordered tuple of subsets of a
fixed PointSet, with duplicates allowed and counted (multiset semantics).
Star here always includes the base set itself, so star_set(v, u) >= v even
when no member of u meets v.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import DomainError

Point = str
Subset = frozenset


@dataclass(frozen=True)
class PointSet:
    """Non-empty ordered set of distinct point ids. Order fixes determinism."""

    ids: tuple[Point, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not self.ids:
            raise DomainError("point set must be non-empty")
        index: dict[Point, int] = {}
        for i, p in enumerate(self.ids):
            if not isinstance(p, str):
                raise DomainError(f"point ids must be strings, got {p!r}")
            if p in index:
                raise DomainError(f"duplicate point id {p!r}")
            index[p] = i
        object.__setattr__(self, "_index", index)

    def __contains__(self, p: object) -> bool:
        return p in self._index

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def index(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise DomainError(f"point {p!r} not in this point set") from None

    def subset(self, ids: Iterable[Point]) -> Subset:
        s = frozenset(ids)
        if not self._index.keys() >= s:
            p = next(p for p in s if p not in self._index)
            raise DomainError(f"point {p!r} not in this point set")
        return s

    def sort(self, s: Iterable[Point]) -> tuple[Point, ...]:
        """Order points by their position in this point set."""
        try:
            return tuple(sorted(s, key=self._index.__getitem__))
        except KeyError as exc:
            raise DomainError(f"point {exc.args[0]!r} not in this point set") from None


def points(ids: Iterable[Point]) -> PointSet:
    return PointSet(tuple(ids))


@dataclass(frozen=True)
class Family:
    """Multiset of subsets of a shared point set, as an ordered tuple."""

    space: PointSet
    members: tuple[Subset, ...]

    def __post_init__(self):
        keys = self.space._index.keys()
        for m in self.members:
            if not isinstance(m, frozenset):
                raise DomainError("family members must be frozensets")
            if not keys >= m:
                p = next(p for p in m if p not in keys)
                raise DomainError(f"member point {p!r} outside the point set")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def family(space: PointSet, members: Iterable[Iterable[Point]]) -> Family:
    return Family(space, tuple(space.subset(m) for m in members))


def reroot(u: Family, space: PointSet) -> Family:
    """Same members viewed over a different point set. Members must fit."""
    return Family(space, u.members)


def family_key(u: Family):
    """Canonical multiset key: sorted tuple of sorted member tuples."""
    return tuple(sorted(u.space.sort(m) for m in u.members))


def _check_same_space(u: Family, v: Family) -> None:
    if u.space != v.space:
        raise DomainError("families live over different point sets")


def star_set(v: Subset, u: Family) -> Subset:
    """Union of v with every member of u that meets v."""
    v = u.space.subset(v)
    out = set(v)
    for m in u.members:
        if v & m:
            out |= m
    return frozenset(out)


def star_family(v: Family, u: Family) -> Family:
    """Member-wise star of v against u, preserving index correspondence."""
    _check_same_space(v, u)
    return Family(v.space, tuple(star_set(m, u) for m in v.members))


def member_masks(u: Family, over: Optional[PointSet] = None) -> tuple[int, ...]:
    """Each member as a bitmask: bit i is set when the member holds point i
    of u's point set, or of ``over``, a point set holding every member."""
    bit = {p: 1 << i for p, i in (u.space if over is None else over)._index.items()}
    return tuple(sum(map(bit.__getitem__, m)) for m in u.members)


def incidence(u: Family) -> tuple[int, ...]:
    """Per point index, the union of the members of u holding that point, as a
    bitmask; a point in no member has 0. Two points share a member exactly
    when each one's bit is set in the other's entry."""
    index = u.space._index
    inc = [0] * len(u.space)
    for m, mask in zip(u.members, member_masks(u)):
        for p in m:
            inc[index[p]] |= mask
    return tuple(inc)


def star_mask(v: int, inc: Sequence[int]) -> int:
    """star_set on bitmasks: v joined with the incidence entry of each of its
    points, for the incidence table of the family starred against."""
    out = v
    while v:
        low = v & -v
        out |= inc[low.bit_length() - 1]
        v ^= low
    return out


def refines(u: Family, v: Family) -> bool:
    """Every member of u (singletons and empties included) sits inside some member of v."""
    _check_same_space(u, v)
    return all(any(m <= w for w in v.members) for m in u.members)


def essentially_refines(u: Family, v: Family, carrier: Optional[Subset] = None) -> bool:
    """Like refines but members with at most one point are ignored.

    When carrier is given, members that do count must also sit inside it.
    """
    _check_same_space(u, v)
    for m in u.members:
        if len(m) <= 1:
            continue
        if carrier is not None and not m <= carrier:
            return False
        if not any(m <= w for w in v.members):
            return False
    return True


def covers(u: Family) -> bool:
    return uncovered_point(u) is None


def uncovered_point(u: Family) -> Optional[Point]:
    covered = set()
    for m in u.members:
        covered |= m
    for p in u.space.ids:
        if p not in covered:
            return p
    return None


def trivial_extension(u: Family, x: Optional[PointSet] = None) -> Family:
    """Adjoin every singleton of the point set; the result always covers."""
    if x is None:
        x = u.space
    elif x != u.space:
        raise DomainError("family is not over the given point set")
    return Family(x, u.members + tuple(frozenset((p,)) for p in x.ids))


def multiplicity(v: Family) -> int:
    """Largest number of members (counted with duplicity) sharing one point."""
    counts: Counter = Counter()
    for m in v.members:
        for p in m:
            counts[p] += 1
    return max(counts.values()) if counts else 0


def chain_components(u: Family, x: Optional[PointSet] = None) -> tuple[Subset, ...]:
    """Blocks of the overlap relation on u's members, as unions of members.

    Returns a partition of the covered points, ordered by least point index.
    Points not covered by u do not appear.
    """
    if x is None:
        x = u.space
    elif x != u.space:
        raise DomainError("family is not over the given point set")
    parent: dict[Point, Point] = {}

    def find(a: Point) -> Point:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in u.members:
        it = iter(m)
        first = next(it, None)
        if first is None:
            continue
        parent.setdefault(first, first)
        ra = find(first)
        for p in it:
            parent.setdefault(p, p)
            rb = find(p)
            if ra != rb:
                parent[rb] = ra
    blocks: dict[Point, set] = {}
    for p in parent:
        blocks.setdefault(find(p), set()).add(p)
    ordered = sorted(blocks.values(), key=lambda b: min(x.index(p) for p in b))
    return tuple(frozenset(b) for b in ordered)


def horizon(a: Subset, u: Family) -> Family:
    """Sub-family of members meeting a, duplicates and order preserved."""
    a = u.space.subset(a)
    return Family(u.space, tuple(m for m in u.members if a & m))


def horizon_indices(a: Subset, u: Family) -> tuple[int, ...]:
    a = u.space.subset(a)
    return tuple(i for i, m in enumerate(u.members) if a & m)
