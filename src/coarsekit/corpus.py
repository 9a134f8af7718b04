"""Reference instance generators.

Each generator returns a fully validated system (or a bundle around one) and
records its truncation parameters in the system's meta strings. Sizes are
capped so every instance stays enumerable; exceeding a cap is a hard error,
not a silent clamp. Levels are built as member masks: balls as prefixes of
each point's distance order, over the ambient set and cut to each piece by
_nested_system, and random covers and coarsenings as unions of point bits.

Balls are built from one distance row per point, which each generator forms
from the data it holds: grid l1 rows as sums of per-axis rows, line and
harmonic rows from int values (the harmonic points scaled by the lcm of
their denominators), island rows with INF off the island. Where every finite
distance is an int, the radii are compared floored (``_int_radii``), so no
comparison meets a Fraction; the meta strings keep the radii as given.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from typing import Iterable, Optional, Sequence

from .colimit import FilteredSystem, Piece, validate_system
from .errors import DomainError, ValidationError, number_text
from .families import Family, PointSet, cut
from .maps import GroundedMap, INF, MetricTarget, path_metric
from .spaces import ScaledSpace, restrict, validate_space

MAX_GRID_POINTS = 512
MAX_GRID_DIMENSION = 5  # the most coordinates a box-1 grid has under MAX_GRID_POINTS
MAX_ISLANDS = 4
MAX_ISLAND_POINTS = 64
MAX_HARMONIC_DEPTH = 64
MAX_RANDOM_POINTS = 12
MAX_RANDOM_PIECES = 4
MAX_RANDOM_DEPTH = 3


def _check_radii(radii) -> tuple:
    out = tuple(Fraction(r) for r in radii)
    if not out:
        raise DomainError("at least one radius is required")
    if any(r <= 0 for r in out):
        raise DomainError("radii must be positive")
    if any(a > b for a, b in zip(out, out[1:])):
        raise DomainError("radii must be non-decreasing")
    return out


def _ball_levels(pts: PointSet, rows: Iterable[Sequence], radii: Sequence) -> tuple[Family, ...]:
    """One Family per radius: the closed ball around each point, in point
    order. ``rows`` gives each point's distances to every point, in point
    order. Each row is sorted once, and its ball of radius r is the prefix of
    that order up to ``bisect_right``. The radii are taken in sorted order,
    so each ball extends the one before it: a point's masks cost n shifts in
    all, however many radii there are. Radii may come unsorted or repeated;
    level l is always the balls of radii[l]. Callers whose finite distances
    are all ints pass their radii through ``_int_radii``, so that bisect
    compares ints only; a table with Fraction distances keeps Fraction radii.
    """
    span = range(len(pts))
    by_size = sorted(range(len(radii)), key=radii.__getitem__)
    levels: list[list[int]] = [[] for _ in radii]
    for row in rows:
        order = sorted(span, key=row.__getitem__)
        ordered = list(map(row.__getitem__, order))
        k = mask = 0
        for lv in by_size:
            j = bisect_right(ordered, radii[lv], k)
            mask += sum(map((1).__lshift__, order[k:j]))
            k = j
            levels[lv].append(mask)
    return tuple(Family.from_masks(pts, tuple(lv)) for lv in levels)


def _int_radii(radii) -> list[int]:
    """Comparison radii for int distances: an int d is at most r exactly
    when it is at most floor(r), and INF compares alike with either."""
    return [math.floor(r) for r in radii]


def _nested_system(
    balls: tuple[Family, ...], named: Iterable[tuple[str, PointSet]], meta: tuple[str, ...]
) -> FilteredSystem:
    """The system whose pieces are the named point sets, each carrying the
    ambient ball levels restricted to it: the ball of each of its points, cut
    to the piece."""
    ambient = balls[0].space
    pieces = []
    for name, pts in named:
        at = [ambient.index(p) for p in pts.ids]
        levels = tuple(
            cut(Family.from_masks(ambient, tuple(lv.masks[i] for i in at)), pts) for lv in balls
        )
        pieces.append(Piece(name, validate_space(pts, levels)))
    return validate_system(ambient, tuple(pieces), None, meta)


def _doubling_radii(diameter: Fraction) -> tuple[Fraction, ...]:
    radii = [Fraction(1)]
    while radii[-1] < diameter:
        radii.append(radii[-1] * 2)
    return tuple(radii)


# integer grids with vanishing tails


def _power_text(base: int, exp: int) -> str:
    """base ** exp in digits when Python can print it, else as the power."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if exp * math.log10(base) < limit - 1:
        return str(base**exp)
    return f"{number_text(base)}**{number_text(exp)}"


def gen_c0(s_max: int, box: int, radii: Optional[Sequence] = None) -> FilteredSystem:
    """Nested grid system: piece s holds the tuples supported on the first
    s coordinates, each carrying its l1-ball chain.

    Default radii double from 1 up to the grid diameter, which keeps every
    pair of piece chains compatible on overlaps; custom radii are validated
    the hard way and may be rejected.
    """
    if s_max < 1:
        raise DomainError("at least one coordinate is required")
    if box < 0:
        raise DomainError("the box radius must be non-negative")
    side = 2 * box + 1
    # side ** s_max against the cap without forming a power past it: a
    # side of 2 or more passes the cap within its bit length of factors
    if side ** min(s_max, MAX_GRID_POINTS.bit_length()) > MAX_GRID_POINTS:
        raise DomainError(
            f"cap exceeded: {_power_text(side, s_max)} grid points, "
            f"at most {MAX_GRID_POINTS} allowed"
        )
    if s_max > MAX_GRID_DIMENSION:
        raise DomainError(
            f"cap exceeded: {number_text(s_max)} coordinates, at most {MAX_GRID_DIMENSION} allowed"
        )
    coords = list(itertools.product(range(-box, box + 1), repeat=s_max))
    ident = {c: ",".join(str(v) for v in c) for c in coords}
    ambient = PointSet(tuple(ident[c] for c in coords))

    diameter = Fraction(2 * box * s_max)
    rs = _check_radii(radii) if radii is not None else _doubling_radii(diameter)
    if s_max == 1:
        rows = _line_rows(range(-box, box + 1))
    else:
        # l1 rows as sums of per-axis rows, axis[a][v][i] = |v - coords[i][a]|,
        # each shared by the side ** (s_max - 1) points whose coordinate a is
        # v; one axis shares none, and its table would be all n rows at once
        axis = [
            {v: list(map(abs, map(v.__sub__, col))) for v in range(-box, box + 1)}
            for col in zip(*coords)
        ]
        add_rows = partial(map, operator.add)
        rows = (list(reduce(add_rows, (axis[a][v] for a, v in enumerate(c)))) for c in coords)
    balls = _ball_levels(ambient, rows, _int_radii(rs))
    named = (
        (f"grid{s}", PointSet(tuple(ident[c] for c in coords if all(v == 0 for v in c[s:]))))
        for s in range(1, s_max + 1)
    )
    meta = (
        f"truncation: integer tuples of length {s_max} within [-{box}, {box}]",
        "radii: " + ", ".join(str(r) for r in rs),
    )
    return _nested_system(balls, named, meta)


# finite disjoint unions of metric islands


def check_island_caps(sizes: Sequence[int]) -> None:
    """Refuse island sizes over the disjoint-union caps, before any is built."""
    if not sizes:
        raise DomainError("at least one island is required")
    if min(sizes) < 1:  # worded as PointSet words it
        raise DomainError("point set must be non-empty")
    if len(sizes) > MAX_ISLANDS:
        raise DomainError(f"cap exceeded: {len(sizes)} islands, at most {MAX_ISLANDS} allowed")
    total = sum(sizes)
    if total > MAX_ISLAND_POINTS:
        raise DomainError(
            f"cap exceeded: {number_text(total)} points, at most {MAX_ISLAND_POINTS} allowed"
        )


def gen_disjoint_union(
    islands: Sequence[MetricTarget], radii: Optional[Sequence] = None
) -> FilteredSystem:
    """Union-of-islands system: pieces are single islands, island pairs, and
    the full union, each cutting the ambient balls; islands lie at infinite
    distance, so balls never cross them and piece chains agree on every
    overlap by construction.
    """
    check_island_caps([len(isl.points) for isl in islands])
    where = {f"{k}:{p}": (k, p) for k, isl in enumerate(islands) for p in isl.points.ids}
    ambient = PointSet(tuple(where))
    finite = [
        d
        for isl in islands
        for row in isl.rows
        for d in row
        if d != INF
    ]
    diameter = max(finite) if finite else Fraction(0)
    rs = _check_radii(radii) if radii is not None else _doubling_radii(diameter)

    # a row of island k: its own distances there, INF on every other island
    blank = [(INF,) * len(isl.points) for isl in islands]
    rows = (
        list(itertools.chain(*blank[:k], row, *blank[k + 1 :]))
        for k, isl in enumerate(islands)
        for row in isl.rows
    )
    groups: list[tuple[int, ...]] = [(k,) for k in range(len(islands))]
    groups += list(itertools.combinations(range(len(islands)), 2))
    full = tuple(range(len(islands)))
    if full not in groups:
        groups.append(full)
    named = (
        ("+".join(f"M{k}" for k in g), PointSet(tuple(a for a in where if where[a][0] in g)))
        for g in groups
    )
    meta = (
        f"truncation: {len(islands)} islands, pieces up to pairs plus the union",
        "radii: " + ", ".join(str(r) for r in rs),
    )
    return _nested_system(_ball_levels(ambient, rows, rs), named, meta)


# the harmonic-point interval with its reciprocal map


@dataclass(frozen=True)
class UnitIntervalInstance:
    """Harmonic-point system with the reciprocal and constant maps.

    ``piece_chains[n]`` is a target chain deep enough for the two maps to be
    close over piece ``n`` alone; ``colimit_chain`` stays shallow enough that
    every one of its levels is violated over the whole system, and the first
    violating point at a level whose widest member has diameter M is the
    domain point 1/(M+2).
    """

    system: FilteredSystem
    f: GroundedMap
    g: GroundedMap
    target: MetricTarget
    piece_chains: tuple[ScaledSpace, ...]
    colimit_chain: ScaledSpace


def _line_rows(values: Sequence[int]):
    """Each value's distances |x - y| to every value, as rows in value order."""
    return (list(map(abs, map(x.__sub__, values))) for x in values)


def _integer_chain(pts: PointSet, radii: Sequence[int]) -> ScaledSpace:
    return validate_space(pts, _ball_levels(pts, _line_rows(list(map(int, pts.ids))), radii))


def gen_unit_interval(n_max: int) -> UnitIntervalInstance:
    if n_max < 2:
        raise DomainError("at least two pieces are required")
    if n_max > MAX_HARMONIC_DEPTH:
        raise DomainError(
            f"cap exceeded: n_max={n_max}, at most {MAX_HARMONIC_DEPTH} allowed"
        )
    values = [Fraction(1, m) for m in range(1, n_max + 2)]
    ident = {v: str(v) for v in values}
    ambient = PointSet(tuple(ident[v] for v in values))
    ladder = tuple(Fraction(2**j, 2**3) for j in range(4))

    # Balls from integer distances: every value scaled by the lcm of the
    # denominators, and the radii with it.
    scale = math.lcm(*range(1, n_max + 2))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    balls = _ball_levels(ambient, _line_rows(scaled), _int_radii(r * scale for r in ladder))
    named = ((f"X{n}", PointSet(ambient.ids[: n + 1])) for n in range(1, n_max + 1))
    meta = (
        f"truncation: harmonic points 1/m for m up to {n_max + 1}",
        "radii: " + ", ".join(str(r) for r in ladder),
    )
    system = _nested_system(balls, named, meta)

    target_pts = PointSet(tuple(str(i) for i in range(n_max + 2)))
    target = path_metric(target_pts)

    f = GroundedMap(
        ambient, target_pts, tuple(str(m) for m in range(1, n_max + 2))
    )
    g = GroundedMap(ambient, target_pts, tuple("1" for _ in ambient.ids))

    chains: dict[tuple[int, ...], ScaledSpace] = {}

    def chain(radii: tuple[int, ...]) -> ScaledSpace:
        if radii not in chains:
            chains[radii] = _integer_chain(target_pts, radii)
        return chains[radii]

    piece_chains = []
    for n in range(1, n_max + 1):
        radii = [1]
        while 2 * radii[-1] < n:
            radii.append(2 * radii[-1])
        piece_chains.append(chain(tuple(radii)))
    radii, r = [], 1
    while 2 * r <= n_max - 1:
        radii.append(r)
        r *= 2
    colimit_chain = chain(tuple(radii or [1]))
    return UnitIntervalInstance(
        system, f, g, target, tuple(piece_chains), colimit_chain
    )


# seeded random systems


def _coarsen(rng: random.Random, members: tuple, width: int) -> tuple:
    """Group the member masks randomly and take unions, one group per new member."""
    order = list(range(len(members)))
    rng.shuffle(order)
    out = []
    while order:
        take = min(len(order), rng.randint(1, width))
        chunk, order = order[:take], order[take:]
        out.append(reduce(operator.or_, (members[i] for i in chunk)))
    return tuple(out)


def _random_base_cover(rng: random.Random, n: int) -> tuple:
    """Per point, a mask of it and up to two random others."""
    members = []
    for p in range(n):
        others = [q for q in range(n) if q != p]
        extra = rng.sample(others, k=rng.randint(0, min(2, len(others))))
        members.append(sum(map((1).__lshift__, {p, *extra})))
    return tuple(members)


def _line_levels(pts: PointSet, depth: int) -> tuple[Family, ...]:
    n = len(pts)
    radii = [Fraction(n)]
    while len(radii) < depth:
        radii.append(max(Fraction(1), radii[-1] / 2))
    radii.reverse()
    return _ball_levels(pts, _line_rows(range(n)), _int_radii(radii))


def _island_levels(rng: random.Random, pts: PointSet, depth: int):
    ids = list(pts.ids)
    k = rng.randint(2, min(3, len(ids)))
    order = ids[:]
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(ids)), k - 1))
    blocks = []
    prev = 0
    for c in [*cuts, len(ids)]:
        blocks.append(order[prev:c])
        prev = c
    home = {p: b for b, block in enumerate(blocks) for p in block}
    spot = {p: i for block in blocks for i, p in enumerate(block)}

    rows = (
        [abs(spot[p] - spot[q]) if home[p] == home[q] else INF for q in ids] for p in ids
    )
    radii = [Fraction(2 ** (depth - 1 - j)) for j in range(depth)]
    radii.reverse()
    top = max(len(b) for b in blocks)
    radii[-1] = max(radii[-1], Fraction(top))
    return _ball_levels(pts, rows, _int_radii(radii)), blocks, home


def gen_random_system(seed: int) -> FilteredSystem:
    """Deterministic random system: a full-carrier piece with a randomly
    grown chain plus a few sub-pieces carrying the restricted chain, so the
    result validates by construction. The rejection count is recorded in the
    meta strings either way. Sizes are drawn up to MAX_RANDOM_POINTS points,
    MAX_RANDOM_DEPTH levels and MAX_RANDOM_PIECES pieces.
    """
    rng = random.Random(seed)
    last: Optional[Exception] = None
    for attempt in range(1, 51):
        n = rng.randint(2, MAX_RANDOM_POINTS)
        depth = rng.randint(1, MAX_RANDOM_DEPTH)
        ids = [f"p{i}" for i in range(n)]
        ambient = PointSet(tuple(ids))
        variant = rng.choice(("blocks", "overlap", "line", "islands"))
        blocks = None
        if variant == "line":
            levels = _line_levels(ambient, depth)
        elif variant == "islands":
            levels, blocks, _ = _island_levels(rng, ambient, depth)
        else:
            # a random partition is the point singletons coarsened once
            base = (
                _coarsen(rng, tuple(1 << i for i in range(n)), 3)
                if variant == "blocks"
                else _random_base_cover(rng, n)
            )
            grown = [base]
            while len(grown) < depth:
                grown.append(_coarsen(rng, grown[-1], 3))
            levels = tuple(Family.from_masks(ambient, lv) for lv in grown)
        try:
            full_space = validate_space(ambient, levels)
            sub_count = rng.randint(0, MAX_RANDOM_PIECES - 1)
            pieces = []
            for j in range(sub_count):
                if blocks is not None:
                    chosen = rng.sample(range(len(blocks)), rng.randint(1, len(blocks) - 1))
                    keep = frozenset(p for b in sorted(chosen) for p in blocks[b])
                else:
                    keep = frozenset(rng.sample(ids, rng.randint(1, n - 1)))
                pieces.append(Piece(f"sub{j}", restrict(full_space, keep)))
            pieces.append(Piece("all", full_space))
            meta = (
                f"seed: {seed}",
                f"variant: {variant}",
                f"attempts: {attempt}",
            )
            return validate_system(ambient, tuple(pieces), None, meta)
        except (ValidationError, DomainError) as exc:
            last = exc
    raise ValidationError(
        f"no valid random system within 50 attempts for seed {seed}: {last}"
    )
