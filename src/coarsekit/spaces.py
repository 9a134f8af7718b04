"""Scaled spaces: finite monotone chains of covers standing in for an
infinite large scale structure.

A ScaledSpace checks its chain when it is built, so every space is a
monotone chain of covers, and validate_space only builds one.

A ScaledSpace carries its certified star depth: the largest d such that for
all levels i, j <= d the member-wise star of level i against level j
essentially refines some level of the chain. On a monotone chain every such
star lies inside a star of level d against itself, so that diagonal star
decides it. Operations that would need stars past that depth raise
TruncationError instead of silently extending the chain. Star depth is
certified lazily, on its first read, and kept with the space; only the
colimit star reads it.

Chain-wide questions are asked of the top level. Lemma: on a monotone chain
every member lies in a member of the top level, so a set fits some member
of some level exactly when it fits a top-level member, and members of all
levels together overlap into the same blocks as the top level's members.
Hence coarse_components and weakly_bounded read only the top level, and
coincidence_masks compares each cut level with the other chain's top.

Every fit test here (monotonicity, star depth, boundedness, coincidence) is
families.first_misfit. Coincidence of two chains on a shared carrier is
decided by one kernel, coincidence_masks, which cuts members to the carrier
as bits and builds no restricted space; restrict builds one, by families.cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Optional, Sequence

from .errors import DomainError, ValidationError
from .families import (
    Family,
    PointSet,
    Subset,
    chain_components,
    component_masks,
    cut,
    essentially_refines,
    first_misfit,
    star_mask,
)


@dataclass(frozen=True)
class ScaledSpace:
    """A monotone chain of covers of a point set, checked when built. The
    first fault raises: no level; then per level, a level over another point
    set (DomainError) or the first point it leaves uncovered; then the first
    level that does not refine the next."""

    points: PointSet
    levels: tuple[Family, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValidationError("a scaled space needs at least one level")
        pts, levels = self.points, self.levels
        full = (1 << len(pts)) - 1
        for i, lv in enumerate(levels, 1):
            if lv.space != pts:
                raise DomainError(f"level {i} is not over the space's point set")
            gap = full & ~reduce(or_, lv.masks, 0)
            if gap:
                p = pts.ids[(gap & -gap).bit_length() - 1]
                raise ValidationError(f"level {i} does not cover: point {p!r} is in no member")
        for i in range(1, len(levels)):
            if first_misfit(levels[i - 1].masks, levels[i].masks) is not None:
                raise ValidationError(
                    f"chain not monotone: level {i} does not refine level {i + 1}"
                )

    @cached_property
    def star_depth(self) -> int:
        """Certified on first read, once per space, from the diagonal star of
        each level (_compute_star_depth); exact on a monotone chain."""
        return _compute_star_depth(self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, i: int) -> Family:
        """1-based chain level."""
        if not 1 <= i <= len(self.levels):
            raise DomainError(f"level {i} out of range 1..{len(self.levels)}")
        return self.levels[i - 1]


def _compute_star_depth(levels: tuple[Family, ...]) -> int:
    """The largest d whose level-d stars against level d essentially refine
    the top level, or 0; levels are tried from the top down, on bitmasks.

    Lemma: on a monotone chain, take i, j <= d. A level-i member lies in some
    level-d member. At each point, the union of the level-j members holding
    it lies inside the union of the level-d members holding it. So each star
    of level i against level j lies inside a star of level d against level d.
    Hence the (d, d) check decides "star depth >= d" (on a monotone chain,
    fitting some level is fitting the top), and a fit at d implies a fit at
    every level below d. Stars stream in member order, so first_misfit tries
    the top member at the same position first, and a failing level stops at
    its first misfit.
    """
    for d in range(len(levels), 0, -1):
        inc = levels[d - 1].incidence
        stars = (s for m in levels[d - 1].masks if (s := star_mask(m, inc)) & (s - 1))
        if first_misfit(stars, levels[-1].masks) is None:
            return d
    return 0


def validate_space(pts: PointSet, levels: Iterable[Family]) -> ScaledSpace:
    """The space of these levels, which checks its chain; its star depth is
    certified on first read (ScaledSpace.star_depth)."""
    return ScaledSpace(pts, tuple(levels))


def is_bounded(space: ScaledSpace, f: Family) -> Optional[int]:
    """Least level that the family essentially refines, if any.

    Singleton and empty members never matter, so the all-singleton family is
    bounded at level 1.
    """
    if f.space != space.points:
        raise DomainError("family is not over the space's point set")
    for i, lv in enumerate(space.levels, 1):
        if essentially_refines(f, lv):
            return i
    return None


def restrict(space: ScaledSpace, keep: Subset) -> ScaledSpace:
    """Subspace on the non-empty point set keep: intersect members, drop empties."""
    inside = space.points.mask(keep)
    if not inside:
        raise DomainError("restriction carrier must be non-empty")
    pts = PointSet(space.points.points_of(inside))
    return validate_space(pts, (cut(lv, pts) for lv in space.levels))


def truncate(space: ScaledSpace, j: int) -> ScaledSpace:
    """The shallower truncation of the first j levels."""
    space.level(j)  # the range check
    return validate_space(space.points, space.levels[:j])


def deepen(space: ScaledSpace) -> ScaledSpace:
    """The deeper truncation with one more top level, whose only member is
    the whole point set."""
    whole = Family.from_masks(space.points, ((1 << len(space.points)) - 1,))
    return validate_space(space.points, (*space.levels, whole))


def coincidence_failure(a: ScaledSpace, b: ScaledSpace) -> Optional[tuple[str, int]]:
    """Which side and 1-based level breaks coincidence, for error reporting."""
    if a.points != b.points:
        raise DomainError("spaces live over different point sets")
    full = (1 << len(a.points)) - 1
    return coincidence_masks([lv.masks for lv in a.levels], [lv.masks for lv in b.levels], full)


def coincidence_masks(
    a: Sequence[Iterable[int]], b: Sequence[Iterable[int]], inter: int
) -> Optional[tuple[str, int]]:
    """Coincidence of two chains restricted to ``inter``, on member masks.

    Each chain is a per-level list of member masks over one shared index.
    Returns the first (side, 1-based level) whose level, cut to ``inter``,
    essentially refines no level of the other chain cut alike, or None.
    A cut member with at most one point is ignored, and equal cut members
    are checked once. The other side's members need no cut: m & inter sits
    inside w & inter exactly when it sits inside w. Both chains must be
    monotone, so a level fits some level of the other chain exactly when it
    fits that chain's top level, the only one tried.
    """
    for side, xs, ys in (("first", a, b), ("second", b, a)):
        for i, lx in enumerate(xs, 1):
            cut = {r for m in lx if (r := m & inter) & (r - 1)}
            if first_misfit(cut, ys[-1]) is not None:
                return (side, i)
    return None


def coarse_components(space: ScaledSpace) -> tuple[Subset, ...]:
    """Partition of the points by overlap-connectivity through any chain
    level: the top level's blocks."""
    return chain_components(space.levels[-1])


def weakly_bounded(space: ScaledSpace, b: Subset) -> bool:
    """b meets every coarse component inside a single top-level member."""
    bm = space.points.mask(b)
    top = space.levels[-1].masks
    return first_misfit([bm & block for block in component_masks(top)], top) is None
