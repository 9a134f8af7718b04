"""Checks on functions between spaces.

Covers image boundedness level by level, closeness of map pairs, coarse
equivalence round trips, and slowly oscillating behaviour against a metric
target. All distance arithmetic is exact: rationals plus an infinity marker.
Image boundedness words its clauses in one loop, for a space's levels and
for a system's piece levels alike. A system's piece level is imaged by the
map restricted to the piece's points, once per piece: extending the level
to the ambient set would only add singletons, whose images are singletons,
which no bound counts.
Closeness is one per-level scan that checks the endpoints once and yields
each target level's first violating point; close_check stops at the first
clean level, and close_report words every level from the same scan.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Union

from .colimit import FilteredSystem, system_weakly_bounded
from .errors import DomainError
from .families import Family, Point, PointSet, Subset, bits
from .reports import Clause, Report, SearchOutcome, Verdict, checked, from_clauses, offense_clause
from .spaces import ScaledSpace, is_bounded, weakly_bounded

INF = math.inf

Distance = Union[Fraction, float]


@dataclass(frozen=True)
class GroundedMap:
    """Total function between finite point sets, images aligned with domain order."""

    domain: PointSet
    codomain: PointSet
    images: tuple[Point, ...]

    def __post_init__(self):
        if len(self.images) != len(self.domain):
            raise DomainError("one image per domain point is required")
        for q in self.images:
            if q not in self.codomain:
                raise DomainError(f"image {q!r} is not in the codomain")

    def __call__(self, p: Point) -> Point:
        return self.images[self.domain.index(p)]


def grounded_map(
    domain: PointSet,
    codomain: PointSet,
    rule: Union[Mapping[Point, Point], Callable[[Point], Point]],
) -> GroundedMap:
    get = rule.__getitem__ if isinstance(rule, Mapping) else rule
    try:
        images = tuple(get(p) for p in domain.ids)
    except KeyError as exc:
        raise DomainError(f"no image given for point {exc.args[0]!r}") from None
    return GroundedMap(domain, codomain, images)


def identity_map(pts: PointSet) -> GroundedMap:
    return GroundedMap(pts, pts, pts.ids)


def compose(outer: GroundedMap, inner: GroundedMap) -> GroundedMap:
    if inner.codomain != outer.domain:
        raise DomainError("maps do not compose: codomain/domain mismatch")
    return GroundedMap(
        inner.domain, outer.codomain, tuple(outer(q) for q in inner.images)
    )


def restrict_map(f: GroundedMap, keep: Collection[Point]) -> GroundedMap:
    sub = PointSet(tuple(p for p in f.domain.ids if p in keep))
    return GroundedMap(sub, f.codomain, tuple(f(p) for p in sub.ids))


def image_family(f: GroundedMap, u: Family) -> Family:
    """The members' images. Each distinct member is imaged once, through one
    table from domain index to image bit; ball levels repeat members."""
    if u.space != f.domain:
        raise DomainError("family is not over the map's domain")
    table = tuple(map(f.codomain._bit.__getitem__, f.images))
    image = {m: reduce(operator.or_, map(table.__getitem__, bits(m)), 0) for m in set(u.masks)}
    return Family.from_masks(f.codomain, tuple(map(image.__getitem__, u.masks)))


@dataclass(frozen=True)
class MetricTarget:
    """Finite metric target with rational distances; math.inf marks unreachable pairs.

    Unchecked: ``metric_target`` checks. ``path_metric``'s rows are a metric by
    construction, and checking them takes 7 to 15 times as long as building them."""

    points: PointSet
    rows: tuple[tuple[Distance, ...], ...]

    def dist(self, x: Point, y: Point) -> Distance:
        return self.rows[self.points.index(x)][self.points.index(y)]


def _distance(d, i: int, j: int) -> Distance:
    """Entry (i, j) as a Fraction, or INF itself."""
    if d == INF:
        return d
    try:
        return Fraction(d)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(
            f"distance entry ({i}, {j}) is {d!r}, not a rational or positive infinity"
        ) from None


def metric_target(pts: PointSet, rows) -> MetricTarget:
    n = len(pts)
    rows = tuple(
        tuple(_distance(d, i, j) for j, d in enumerate(row))
        for i, row in enumerate(rows)
    )
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DomainError("distance matrix shape does not match the point set")
    # The axioms run on integers: finite entries scaled by the lcm of their
    # denominators, INF replaced by a value above every finite one, so INF
    # equals only INF, is positive and, once every entry is non-negative,
    # any sum holding it exceeds every finite distance.
    scale = math.lcm(*{d.denominator for row in rows for d in row if d != INF})
    ints = [
        [None if d == INF else d.numerator * (scale // d.denominator) for d in row]
        for row in rows
    ]
    big = max((abs(d) for row in ints for d in row if d is not None), default=0) + 1
    ints = [tuple(big if d is None else d for d in row) for row in ints]
    cols = list(zip(*ints))
    for i, row in enumerate(ints):
        if row[i] != 0:
            raise DomainError(f"nonzero self-distance at {pts.ids[i]!r}")
        for a, b in zip(row, cols[i]):
            if a != b:
                raise DomainError("distance matrix is not symmetric")
            if a < 0:
                raise DomainError("negative distance")
    # Symmetric now, so (i, j, k) fails exactly when (j, i, k) does, and the
    # first failing triple has i < j (a zero diagonal never fails).
    for i, ri in enumerate(ints):
        for j in range(i + 1, n):
            a, rj = ri[j], ints[j]
            if a == big or a <= min(map(operator.add, ri, rj)):
                continue
            k = next(k for k in range(n) if a > ri[k] + rj[k])
            raise DomainError(
                f"triangle inequality fails on "
                f"({pts.ids[i]!r}, {pts.ids[j]!r}, {pts.ids[k]!r})"
            )
    return MetricTarget(pts, rows)


def path_metric(pts: PointSet) -> MetricTarget:
    """Integer-line distances taken in the given point order."""
    n = len(pts)
    rows = tuple(
        tuple(Fraction(abs(i - j)) for j in range(n)) for i in range(n)
    )
    return MetricTarget(pts, rows)


def image_diameter(f: GroundedMap, target: MetricTarget, member: Subset) -> Distance:
    return _image_diameter(f, target, f.domain.mask(member))


def _image_diameter(f: GroundedMap, target: MetricTarget, member: int) -> Distance:
    """image_diameter of a member given as a mask over f's domain."""
    pts = [f.images[i] for i in bits(member)]
    best: Distance = Fraction(0)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = target.dist(pts[i], pts[j])
            if d == INF:
                return INF
            if d > best:
                best = d
    return best


def bornologous_levels(
    f: GroundedMap, src: ScaledSpace, dst: ScaledSpace
) -> tuple[Optional[int], ...]:
    """Least dst level bounding each src level's image family, None when absent."""
    if f.domain != src.points or f.codomain != dst.points:
        raise DomainError("map endpoints do not match the given spaces")
    return tuple(_bounding_levels(f, src.levels, dst))


def _bounding_levels(
    f: GroundedMap, levels: Iterable[Family], dst: ScaledSpace
) -> Iterator[Optional[int]]:
    """Per level over f's domain, the least dst level bounding its image."""
    return (is_bounded(dst, image_family(f, lv)) for lv in levels)


def _image_report(parts: Iterable[tuple[str, Iterable[Optional[int]]]]) -> Report:
    """One clause per level, from (label, bounding levels) parts: "image of
    {label}level {i}", bounded at the level given, or a truncation failure
    when no level bounds it."""
    clauses = []
    absent = SearchOutcome(detail="no level of the target chain bounds the image family")
    for label, levels in parts:
        for i, j in enumerate(levels, start=1):
            name = f"image of {label}level {i}"
            if j is None:
                clauses.append(absent.clause(name))
            else:
                clauses.append(Clause(name, True, f"bounded at level {j}"))
    return from_clauses(clauses)


def bornologous_check(f: GroundedMap, src: ScaledSpace, dst: ScaledSpace) -> Report:
    return _image_report([("", bornologous_levels(f, src, dst))])


def system_bornologous_check(
    f: GroundedMap, src: FilteredSystem, dst: ScaledSpace
) -> Report:
    """Image boundedness of every piece level of the system.

    Each piece level is imaged by f restricted to the piece's points. The
    level extended to the ambient set with every singleton would give the
    same clause, since a singleton's image is a singleton, which no bound
    counts.
    """
    if f.domain != src.ambient:
        raise DomainError("map domain is not the system's ambient point set")
    return _image_report(
        (
            f"piece {pc.name} ",
            _bounding_levels(restrict_map(f, pc.space.points), pc.space.levels, dst),
        )
        for pc in src.pieces
    )


def close_violation(
    f: GroundedMap, g: GroundedMap, scale: Family
) -> Optional[Point]:
    """First domain point whose image pair fits in no member of the scale.

    Equal images never violate: the scale is read as trivially extended, so
    singleton witnesses always exist.
    """
    pts = scale.space
    shared = scale.incidence
    for x, a in zip(f.domain.ids, f.images):
        b = g(x)
        if a == b:
            continue
        if a not in pts or b not in pts or not shared[pts.index(a)] >> pts.index(b) & 1:
            return x
    return None


def _close_scan(f: GroundedMap, g: GroundedMap, dst: ScaledSpace) -> Iterator[Optional[Point]]:
    """Per dst level, in order, the first violating point, or None when the
    level's trivially extended scale witnesses closeness. The endpoints are
    checked here, before the first level is read."""
    if f.domain != g.domain or f.codomain != g.codomain:
        raise DomainError("close maps need a shared domain and codomain")
    if f.codomain != dst.points:
        raise DomainError("codomain does not match the target space")
    return (close_violation(f, g, dst.level(j)) for j in range(1, dst.depth + 1))


def close_check(f: GroundedMap, g: GroundedMap, dst: ScaledSpace) -> Optional[int]:
    """Least dst level whose trivially extended scale witnesses closeness."""
    return next((j for j, x in enumerate(_close_scan(f, g, dst), start=1) if x is None), None)


def close_report(f: GroundedMap, g: GroundedMap, dst: ScaledSpace) -> Report:
    """Per-level closeness account; absence at every level refutes.

    Every available level is refuted by an explicit violating point, so the
    verdict speaks for this truncation's scales.
    """
    clauses = tuple(
        Clause(f"level {j}", True, "all image pairs co-contained")
        if x is None
        else Clause(f"level {j}", False, f"violated at point {x!r}")
        for j, x in enumerate(_close_scan(f, g, dst), start=1)
    )
    verdict = Verdict.VERIFIED if any(c.ok for c in clauses) else Verdict.REFUTED
    return Report(verdict, clauses)


def coarse_equivalence_check(
    f: GroundedMap, g: GroundedMap, a: ScaledSpace, b: ScaledSpace
) -> Report:
    if f.domain != a.points or f.codomain != b.points:
        raise DomainError("forward map endpoints do not match the spaces")
    if g.domain != b.points or g.codomain != a.points:
        raise DomainError("backward map endpoints do not match the spaces")
    clauses = []
    for name, rep in (
        ("forward", bornologous_check(f, a, b)),
        ("backward", bornologous_check(g, b, a)),
    ):
        clauses.append(
            Clause(
                f"{name} map bornologous",
                bool(rep),
                "; ".join(c.detail for c in rep.failures()) or "all levels map",
                truncation=not rep and rep.verdict is Verdict.UNDECIDED,
            )
        )
    for name, j in (
        ("domain", close_check(compose(g, f), identity_map(a.points), a)),
        ("codomain", close_check(compose(f, g), identity_map(b.points), b)),
    ):
        clauses.append(
            Clause(
                f"round trip on {name} close to identity",
                j is not None,
                f"close at level {j}" if j is not None else "no level witnesses closeness",
            )
        )
    return from_clauses(clauses)


def _diameter_offense(
    f: GroundedMap, target: MetricTarget, scale: Family, eps: Fraction, b: Subset
) -> Optional[str]:
    """The first scale member off b whose image diameter reaches eps."""
    bm = scale.space.mask(b)
    for m in scale.masks:
        if m & ~bm and not _image_diameter(f, target, m) < eps:
            points = ", ".join(f.domain.points_of(m))
            return "member {" + points + "} has image diameter >= threshold"
    return None


def _oscillation_clauses(
    f: GroundedMap, target: MetricTarget, scale: Family, eps: Fraction, b: Subset, weak_ok: bool
) -> Report:
    weak = None if weak_ok else "some coarse component meets it beyond every member"
    clauses = [
        offense_clause("witness set weakly bounded", weak),
        offense_clause(
            "image diameters below threshold off the witness set",
            _diameter_offense(f, target, scale, eps, b),
        ),
    ]
    return from_clauses(clauses)


def _check_threshold_target(f: GroundedMap, target: MetricTarget, eps: Fraction) -> None:
    """The checks both oscillation verifiers make after their domain check."""
    if f.codomain != target.points:
        raise DomainError("map codomain does not match the metric target")
    if eps <= 0:
        raise DomainError("threshold must be positive")


def slowly_oscillating_verify(
    f: GroundedMap,
    target: MetricTarget,
    src: ScaledSpace,
    level: int,
    eps: Fraction,
    b: Subset,
) -> Report:
    if f.domain != src.points:
        raise DomainError("map domain does not match the space")
    _check_threshold_target(f, target, eps)
    b = src.points.subset(b)
    return _oscillation_clauses(f, target, src.level(level), eps, b, weakly_bounded(src, b))


def system_slowly_oscillating_verify(
    f: GroundedMap,
    target: MetricTarget,
    system: FilteredSystem,
    scale: Family,
    eps: Fraction,
    b: Subset,
) -> Report:
    if f.domain != system.ambient or scale.space != system.ambient:
        raise DomainError("map and scale must live over the system's ambient set")
    _check_threshold_target(f, target, eps)
    b = system.ambient.subset(b)
    return _oscillation_clauses(f, target, scale, eps, b, system_weakly_bounded(system, b))


def slowly_oscillating_search(
    f: GroundedMap,
    target: MetricTarget,
    src: ScaledSpace,
    level: int,
    eps: Fraction,
) -> SearchOutcome:
    """A weakly bounded witness set, checked by slowly_oscillating_verify.

    Any valid witness must contain every member whose image diameter reaches
    the threshold, so the union of those members is the one candidate. It
    passes the diameter clause, and a weakly bounded set stays weakly bounded
    on every subset, so no larger candidate (a star-thickened union, say) can
    verify when the union does not. A rejected candidate stops the search:
    weak boundedness is judged at this truncation, so absence never refutes.
    """
    if not isinstance(src, ScaledSpace):
        raise DomainError("witness search needs a single-space source")
    scale = src.level(level)
    if f.domain != src.points:  # the members index f's images
        raise DomainError("map domain does not match the space")
    bad = [m for m in scale.masks if not _image_diameter(f, target, m) < eps]
    b = frozenset(src.points.points_of(reduce(operator.or_, bad, 0)))
    report = slowly_oscillating_verify(f, target, src, level, eps, b)
    return checked(b, report, "no weakly bounded witness set in the search space")
