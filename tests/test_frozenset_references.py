"""The verifiers that read families as masks, against frozenset transcriptions.

Each reference below restates a verifier, lifter or search over the
frozenset forms (``members``, set unions, ``in`` tests), reusing only the
library pieces it does not restate (``bound_clause``, ``pair_ratio``,
``weakly_bounded``, ``piece_certificate``). The library and the reference
must give equal reports, clause details included, on spaces of 1 to 6
points whose families may hold empty, singleton and repeated members.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import event, given, strategies as st

from coarsekit import DomainError
from coarsekit.colimit import Piece, validate_system
from coarsekit.families import Family, points, reroot
from coarsekit.invariants import (
    AmenabilityWitness,
    PropertyAFamily,
    amenability_lift,
    amenability_verify,
    horizon_ratio,
    pair_ratio,
    property_a_verify,
)
from coarsekit.invariants.common import bound_clause, piece_certificate
from coarsekit.maps import (
    INF,
    GroundedMap,
    metric_target,
    slowly_oscillating_search,
    slowly_oscillating_verify,
)
from coarsekit.reports import Clause, from_clauses
from coarsekit.spaces import restrict, validate_space, weakly_bounded

IDS = tuple("abcdef")
THRESHOLDS = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), 3])


def star(x, members) -> frozenset:
    """x's star: x with every member holding it."""
    return frozenset({x}).union(*(m for m in members if x in m))


def masks(draw, n: int, max_size: int = 6) -> tuple[int, ...]:
    """Member masks over n points: any mask, the empty one or a singleton,
    some of them repeated."""
    member = st.one_of(
        st.integers(0, (1 << n) - 1), st.just(0), st.integers(0, n - 1).map(lambda i: 1 << i)
    )
    out = draw(st.lists(member, max_size=max_size))
    if out:
        out += draw(st.lists(st.sampled_from(out), max_size=2))
    return tuple(draw(st.permutations(out)))


@st.composite
def scaled_spaces(draw, min_points=1):
    """A chain over up to 6 points: a drawn cover, up to two levels that grow
    each member of the level below by a drawn mask, and maybe a top level
    holding everything."""
    n = draw(st.integers(min_points, len(IDS)))
    pts = points(IDS[:n])
    full = (1 << n) - 1
    levels = [masks(draw, n) + tuple(1 << i for i in range(n))]
    for _ in range(draw(st.integers(0, 2))):
        levels.append(tuple(m | draw(st.integers(0, full)) for m in levels[-1]))
    if draw(st.booleans()):
        levels.append((full,))
    return validate_space(pts, [Family.from_masks(pts, lv) for lv in levels])


def family_over(draw, pts) -> Family:
    return Family.from_masks(pts, masks(draw, len(pts)))


# coarse amenability


def amenability_reference(target, w: AmenabilityWitness):
    clauses = [bound_clause("companion family bounded", target, w.v, w.v_bound)]
    scale, v = w.scale.members, w.v.members
    offense = None
    for x in w.scale.space.ids:
        if not any(x in m for m in scale):
            continue
        s = star(x, scale)
        denom = sum(1 for m in v if m & s)
        if denom == 0:
            offense = f"empty horizon denominator at point {x!r}"
            break
        r = Fraction(sum(1 for m in v if x in m), denom)
        if not r > 1 - w.eps:
            offense = f"ratio {r} at point {x!r} does not exceed {1 - w.eps}"
            break
    clauses.append(Clause("horizon ratios exceed the threshold", offense is None, offense or ""))
    return from_clauses(clauses)


def horizon_ratio_reference(scale: Family, v: Family, x):
    s = star(x, scale.members)
    denom = sum(1 for m in v.members if m & s)
    if denom == 0:
        return None
    return Fraction(sum(1 for m in v.members if x in m), denom)


@given(scaled_spaces(), st.data(), THRESHOLDS, st.permutations(IDS))
def test_amenability_verify_and_horizon_ratio_match_the_reference(sp, data, eps, order):
    scale = family_over(data.draw, sp.points)
    v = family_over(data.draw, sp.points)
    w = AmenabilityWitness(scale, v, eps, None)
    got = amenability_verify(sp, w)
    assert got == amenability_reference(sp, w)
    event(f"amenability: {got.verdict.value}")
    # v over the same points in another order: ratios read across point sets
    moved = reroot(v, points(p for p in order if p in sp.points))
    for x in sp.points.ids:
        want = horizon_ratio_reference(scale, v, x)
        assert horizon_ratio(scale, v, x) == want
        assert horizon_ratio(scale, moved, x) == want


def amenability_lift_reference(system, piece, w, u):
    pc = system.pieces[piece]
    if not amenability_reference(pc.space, w):
        raise DomainError("piece witness does not verify")
    outside = tuple(m for m in u.members if len(m) == 1 and not m <= pc.carrier)
    v = Family(system.ambient, reroot(w.v, system.ambient).members + outside)
    return AmenabilityWitness(u, v, w.eps, piece_certificate(system, piece, w.v, w.v_bound))


@st.composite
def two_piece_systems(draw):
    """A chain over 2 to 6 points as the piece "all", and its restriction to
    a proper non-empty carrier as piece 0."""
    sp = draw(scaled_spaces(min_points=2))
    ids = sp.points.ids
    kept = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=len(ids) - 1, unique=True))
    carrier = frozenset(kept)
    pieces = [Piece("part", carrier, restrict(sp, carrier)), Piece("all", frozenset(ids), sp)]
    return validate_system(sp.points, pieces)


@given(two_piece_systems(), st.data(), THRESHOLDS)
def test_amenability_lift_matches_the_reference(system, data, eps):
    """The input family is the piece scale over the ambient set, its members
    shuffled among the outside singletons, which may repeat."""
    pc = system.pieces[0]
    scale = family_over(data.draw, pc.space.points)
    companion = family_over(data.draw, pc.space.points)
    w = AmenabilityWitness(scale, companion, eps, None)
    outside = [p for p in system.ambient.ids if p not in pc.carrier]
    singles = data.draw(st.lists(st.sampled_from(outside), max_size=2 * len(outside)))
    members = reroot(scale, system.ambient).members + tuple(frozenset({p}) for p in singles)
    u = Family(system.ambient, data.draw(st.permutations(members)))
    try:
        want = amenability_lift_reference(system, 0, w, u)
    except DomainError as exc:
        event("amenability lift: piece witness fails")
        with pytest.raises(DomainError, match=str(exc)):
            amenability_lift(system, 0, w, u)
        return
    got = amenability_lift(system, 0, w, u)
    assert got == want
    report = amenability_verify(system, got)
    assert report == amenability_reference(system, got)
    event(f"amenability lift: lifted {report.verdict.value}")


# property A


def property_a_reference(target, w: PropertyAFamily):
    cap = max(len(m) for lv in target.levels for m in lv.members)
    clauses = [
        Clause("bounded geometry cap", True, f"largest member size {cap}, index cap {w.n_cap}"),
        bound_clause("support family bounded", target, w.support, w.support_bound),
    ]
    ids = w.space.ids
    base = next((p for p in ids if (p, 1) not in w.tags(p)), None)
    clauses.append(
        Clause(
            "base tag present at every point",
            base is None,
            "" if base is None else f"point {base!r} lacks its base tag",
        )
    )
    confined = None
    for p in ids:
        s = star(p, w.support.members)
        bad = next(((q, k) for q, k in sorted(w.tags(p)) if k > w.n_cap or q not in s), None)
        if bad:
            confined = f"tag ({bad[0]!r}, {bad[1]}) at point {p!r} escapes the support star"
            break
    clauses.append(Clause("tags confined to support stars", confined is None, confined or ""))
    offense = None
    for x in ids:
        for y in sorted(star(x, w.scale.members), key=ids.index):
            r = pair_ratio(w, x, y)
            if r is None:
                offense = f"empty tag intersection for pair ({x!r}, {y!r})"
            elif not r < w.eps:
                offense = f"ratio {r} for pair ({x!r}, {y!r}) reaches the threshold"
            if offense:
                break
        if offense:
            break
    clauses.append(
        Clause("symmetric difference ratios below threshold", offense is None, offense or "")
    )
    return from_clauses(clauses)


@given(scaled_spaces(), st.data(), THRESHOLDS, st.integers(1, 2))
def test_property_a_verify_matches_the_reference(sp, data, eps, n_cap):
    """Tag sets start as each point's support star at index 1 and may lose
    or gain a tag, at an index up to one past the cap."""
    pts = sp.points
    scale = family_over(data.draw, pts)
    support = family_over(data.draw, pts)
    tag = st.tuples(st.sampled_from(pts.ids), st.integers(1, n_cap + 1))
    sets = []
    for p in pts.ids:
        tags = {(q, 1) for q in star(p, support.members)}
        if data.draw(st.booleans()):
            tags ^= set(data.draw(st.lists(tag, max_size=2)))
        sets.append(frozenset(tags))
    w = PropertyAFamily(pts, n_cap, tuple(sets), scale, support, eps)
    got = property_a_verify(sp, w)
    assert got == property_a_reference(sp, w)
    event(f"property A: {got.verdict.value}")


# slowly oscillating maps


def image_diameter_reference(f, target, member):
    images = [f(p) for p in member]
    ds = [target.dist(a, b) for a in images for b in images]
    return INF if INF in ds else max(ds, default=Fraction(0))


def so_verify_reference(f, target, src, level, eps, b):
    weak = weakly_bounded(src, b)
    clauses = [
        Clause(
            "witness set weakly bounded",
            weak,
            "" if weak else "some coarse component meets it beyond every member",
        )
    ]
    offender = next(
        (
            m
            for m in src.level(level).members
            if not m <= b and not image_diameter_reference(f, target, m) < eps
        ),
        None,
    )
    text = "" if offender is None else "member {" + ", ".join(f.domain.sort(offender))
    clauses.append(
        Clause(
            "image diameters below threshold off the witness set",
            offender is None,
            text and text + "} has image diameter >= threshold",
        )
    )
    return from_clauses(clauses)


def so_search_reference(f, target, src, level, eps):
    scale = src.level(level).members
    bad = [m for m in scale if not image_diameter_reference(f, target, m) < eps]
    if not bad:
        return frozenset()
    union = frozenset().union(*bad)
    thick = frozenset().union(*(m.union(*(u for u in scale if u & m)) for m in bad))
    for b in dict.fromkeys((union, thick)):
        if so_verify_reference(f, target, src, level, eps, b):
            return b
    return None


@st.composite
def so_cases(draw):
    """A map from a chain into 1 to 5 target points on lines, a level, a
    threshold and a drawn witness set."""
    sp = draw(scaled_spaces())
    k = draw(st.integers(1, 5))
    line = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    rows = [[abs(i - j) if line[i] == line[j] else INF for j in range(k)] for i in range(k)]
    target = metric_target(points(f"t{i}" for i in range(k)), rows)
    n = len(sp.points)
    images = draw(st.lists(st.sampled_from(target.points.ids), min_size=n, max_size=n))
    f = GroundedMap(sp.points, target.points, tuple(images))
    level = draw(st.integers(1, sp.depth))
    eps = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]))
    b = frozenset(draw(st.lists(st.sampled_from(sp.points.ids))))
    return f, target, sp, level, eps, b


@given(so_cases())
def test_slowly_oscillating_search_and_verify_match_the_reference(case):
    f, target, sp, level, eps, b = case
    found = slowly_oscillating_search(f, target, sp, level, eps).witness
    assert found == so_search_reference(f, target, sp, level, eps)
    event(f"so search: {'none' if found is None else 'found'}")
    report = slowly_oscillating_verify(f, target, sp, level, eps, b)
    assert report == so_verify_reference(f, target, sp, level, eps, b)
    event(f"so verify: {report.verdict.value}")
