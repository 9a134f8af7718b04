"""Maps between spaces: boundedness of images, closeness, oscillation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coarsekit import DomainError, Verdict
from coarsekit.colimit import extend_to_ambient, extended_level
from coarsekit.corpus import gen_c0, gen_random_system, gen_unit_interval
from coarsekit import maps
from coarsekit.families import Family, family, points
from coarsekit.maps import (
    INF,
    GroundedMap,
    bornologous_check,
    bornologous_levels,
    close_check,
    close_report,
    close_violation,
    coarse_equivalence_check,
    compose,
    grounded_map,
    identity_map,
    image_diameter,
    image_family,
    metric_target,
    path_metric,
    restrict_map,
    slowly_oscillating_search,
    slowly_oscillating_verify,
    system_bornologous_check,
    system_slowly_oscillating_verify,
)
from coarsekit.reports import Clause, from_clauses
from coarsekit.spaces import is_bounded, validate_space

from builders import fam, line_space, overlap_system


X3 = points(["0", "1", "2"])
Y5 = points(["0", "1", "2", "3", "4"])


def test_grounded_map_accepts_mappings_and_callables():
    f = grounded_map(X3, Y5, {"0": "0", "1": "2", "2": "4"})
    g = grounded_map(X3, Y5, lambda p: str(2 * int(p)))
    assert f.images == g.images == ("0", "2", "4")
    assert f("1") == "2"


def test_grounded_map_must_be_total_and_land_inside():
    with pytest.raises(DomainError, match="'2'"):
        grounded_map(X3, Y5, {"0": "0", "1": "1"})
    with pytest.raises(DomainError, match="'9'"):
        grounded_map(X3, Y5, {"0": "0", "1": "1", "2": "9"})


def test_compose_restrict_and_identity():
    double = grounded_map(X3, Y5, lambda p: str(2 * int(p)))
    halve = grounded_map(Y5, X3, lambda p: str(int(p) // 2))
    assert compose(halve, double).images == ("0", "1", "2")
    assert identity_map(X3).images == ("0", "1", "2")
    assert restrict_map(double, frozenset({"0", "2"})).images == ("0", "4")
    with pytest.raises(DomainError):
        compose(double, double)


def test_image_family_acts_member_by_member():
    double = grounded_map(X3, Y5, lambda p: str(2 * int(p)))
    u = fam(X3, {"0", "1"}, {"2"})
    assert image_family(double, u).members == (
        frozenset({"0", "2"}),
        frozenset({"4"}),
    )
    with pytest.raises(DomainError):
        image_family(double, fam(Y5, {"0"}))


@st.composite
def imaged_families(draw):
    """A map between point sets of up to six points, often not injective,
    and a family over its domain with empty and repeated members."""
    dom = points(f"x{i}" for i in range(draw(st.integers(1, 6))))
    cod = points(str(i) for i in range(draw(st.integers(1, 6))))
    images = draw(st.lists(st.sampled_from(cod.ids), min_size=len(dom), max_size=len(dom)))
    f = GroundedMap(dom, cod, tuple(images))
    members = draw(st.lists(st.sets(st.sampled_from(dom.ids)), max_size=5))
    members += draw(st.lists(st.sampled_from(members), max_size=3)) if members else []
    return f, family(dom, [frozenset(), *members])


@given(imaged_families())
def test_image_family_images_each_member_name_by_name(case):
    f, u = case
    assert image_family(f, u).members == tuple(frozenset(f(p) for p in m) for m in u.members)


def test_metric_target_validates_the_axioms():
    pts = points(["a", "b"])
    with pytest.raises(DomainError, match="shape"):
        metric_target(pts, [[0, 1]])
    with pytest.raises(DomainError, match="self-distance"):
        metric_target(pts, [[1, 1], [1, 0]])
    with pytest.raises(DomainError, match="symmetric"):
        metric_target(pts, [[0, 1], [2, 0]])
    with pytest.raises(DomainError, match="negative"):
        metric_target(pts, [[0, -1], [-1, 0]])
    p3 = points(["a", "b", "c"])
    with pytest.raises(DomainError, match="triangle"):
        metric_target(p3, [[0, 5, 1], [5, 0, 1], [1, 1, 0]])

    islands = metric_target(pts, [[0, INF], [INF, 0]])
    assert islands.dist("a", "b") == INF

    line = path_metric(Y5)
    assert line.dist("0", "4") == Fraction(4)
    assert line.dist("3", "1") == Fraction(2)


def reference_metric_failure(pts, rows):
    """The metric axioms checked entry by entry on plain Fractions, in the
    order (diagonal, symmetry, sign) per row, then triangles in (i, j, k)
    order; the first failure's text, or None for a metric."""
    n = len(pts)
    rows = [[d if d == INF else Fraction(d) for d in row] for row in rows]
    for i in range(n):
        if rows[i][i] != 0:
            return f"nonzero self-distance at {pts.ids[i]!r}"
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                return "distance matrix is not symmetric"
            if rows[i][j] < 0:
                return "negative distance"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b, c = rows[i][j], rows[i][k], rows[k][j]
                if INF not in (a, b, c) and a > b + c:
                    return (
                        f"triangle inequality fails on "
                        f"({pts.ids[i]!r}, {pts.ids[j]!r}, {pts.ids[k]!r})"
                    )
    return None


ENTRIES = st.one_of(
    st.integers(-2, 9),
    st.fractions(-2, 9, max_denominator=12),
    st.floats(-2, 9, allow_nan=False),
    st.just(INF),
)


@st.composite
def distance_matrices(draw):
    """Line distances between rational spots, INF between two islands, with
    up to three entries overwritten, mostly on both sides: negative,
    float, INF, asymmetric, diagonal, too long or too short entries."""
    n = draw(st.integers(min_value=1, max_value=6))
    island = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=n, max_size=n))
    spot = draw(
        st.lists(st.fractions(0, 8, max_denominator=6), min_size=n, max_size=n)
    )
    rows = [
        [abs(spot[i] - spot[j]) if island[i] == island[j] else INF for j in range(n)]
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j and n > 1 and draw(st.integers(0, 3)):
            j = (i + 1) % n
        rows[i][j] = draw(ENTRIES)
        if draw(st.integers(0, 3)):
            rows[j][i] = rows[i][j]
    return points(f"p{i}" for i in range(n)), rows


@given(distance_matrices())
def test_metric_target_agrees_with_the_fraction_reference(case):
    pts, rows = case
    expected = reference_metric_failure(pts, rows)
    if expected is None:
        t = metric_target(pts, rows)
        assert t.rows == tuple(
            tuple(d if d == INF else Fraction(d) for d in row) for row in rows
        )
    else:
        with pytest.raises(DomainError) as exc:
            metric_target(pts, rows)
        assert str(exc.value) == expected


def test_metric_target_names_the_first_failing_triple():
    p4 = points(["a", "b", "c", "d"])
    rows = [
        [0, Fraction(9, 2), 1, 1],
        [Fraction(9, 2), 0, 1, 1],
        [1, 1, 0, INF],
        [1, 1, INF, 0],
    ]
    with pytest.raises(DomainError) as exc:
        metric_target(p4, rows)
    assert str(exc.value) == "triangle inequality fails on ('a', 'b', 'c')"


@pytest.mark.parametrize("bad", [-math.inf, math.nan, "far", None])
def test_metric_target_rejects_entries_that_are_not_rationals(bad):
    pts = points(["a", "b"])
    with pytest.raises(DomainError) as exc:
        metric_target(pts, [[0, bad], [bad, 0]])
    assert str(exc.value) == (
        f"distance entry (0, 1) is {bad!r}, not a rational or positive infinity"
    )

def test_image_diameter_is_exact():
    f = identity_map(Y5)
    target = path_metric(Y5)
    assert image_diameter(f, target, frozenset({"2"})) == 0
    assert image_diameter(f, target, frozenset({"0", "3", "4"})) == Fraction(4)

    pts = points(["a", "b"])
    islands = metric_target(pts, [[0, INF], [INF, 0]])
    g = identity_map(pts)
    assert image_diameter(g, islands, frozenset({"a", "b"})) == INF


def test_doubling_map_is_bornologous_between_lines():
    src = line_space(X3.ids)
    dst = line_space(Y5.ids)
    double = grounded_map(X3, Y5, lambda p: str(2 * int(p)))
    assert bornologous_levels(double, src, dst) == (2, 2)
    report = bornologous_check(double, src, dst)
    assert report.verdict is Verdict.VERIFIED


def test_bornologous_failure_is_a_truncation_verdict():
    src = line_space(X3.ids)
    dst = validate_space(X3, [fam(X3, {"0"}, {"1"}, {"2"})])
    report = bornologous_check(identity_map(X3), src, dst)
    assert report.verdict is Verdict.UNDECIDED
    assert not report


def test_bornologous_check_rejects_mismatched_endpoints():
    with pytest.raises(DomainError):
        bornologous_check(identity_map(X3), line_space(X3.ids), line_space(Y5.ids))


def test_system_check_conjoins_piece_checks():
    fs = overlap_system()
    dst = line_space([str(i) for i in range(9)])
    double = grounded_map(fs.ambient, dst.points, lambda p: str(2 * int(p)))
    whole = system_bornologous_check(double, fs, dst)
    assert whole.verdict is Verdict.VERIFIED
    for piece in fs.pieces:
        part = bornologous_check(
            restrict_map(double, piece.space.points), piece.space, dst
        )
        assert part.verdict is Verdict.VERIFIED


def test_close_maps_and_violations():
    dst = line_space(Y5.ids)
    f = identity_map(Y5)
    assert close_check(f, f, dst) == 1

    g = grounded_map(Y5, Y5, {"0": "1", "1": "0", "2": "2", "3": "3", "4": "4"})
    assert close_check(f, g, dst) == 1
    assert close_check(g, f, dst) == close_check(f, g, dst)

    far = grounded_map(Y5, Y5, lambda p: "4")
    # the radius-2 ball around the midpoint already holds every pair
    assert close_check(f, far, dst) == 2
    assert close_violation(f, far, dst.level(1)) == "0"
    assert close_violation(f, far, dst.level(2)) is None


@st.composite
def close_cases(draw):
    """Two maps into up to six points, often with equal images, and a scale
    of up to four members that may leave points in no member. The scale's
    point set is a prefix of the codomain, so some images may lie outside it."""
    dst = points(str(i) for i in range(draw(st.integers(1, 6))))
    image = st.sampled_from(dst.ids)
    pairs = draw(st.lists(st.tuples(image, image), min_size=1, max_size=6))
    src = points(f"x{i}" for i in range(len(pairs)))
    f = grounded_map(src, dst, {x: a for x, (a, _) in zip(src.ids, pairs)})
    g = grounded_map(src, dst, {x: b for x, (_, b) in zip(src.ids, pairs)})
    over = points(dst.ids[: draw(st.integers(1, len(dst)))])
    return f, g, family(over, draw(st.lists(st.sets(st.sampled_from(over.ids)), max_size=4)))


@given(close_cases())
def test_close_violation_agrees_with_the_member_definition(case):
    f, g, scale = case
    expected = next(
        (
            x
            for x in f.domain.ids
            if f(x) != g(x)
            and not any(frozenset((f(x), g(x))) <= m for m in scale.members)
        ),
        None,
    )
    assert close_violation(f, g, scale) == expected

def test_close_report_refutes_shallow_chains():
    shallow = validate_space(
        Y5,
        [
            fam(Y5, {"0"}, {"1"}, {"2"}, {"3"}, {"4"}),
            line_space(Y5.ids).level(1),
        ],
    )
    f = identity_map(Y5)
    far = grounded_map(Y5, Y5, lambda p: "4")
    assert close_check(f, far, shallow) is None
    report = close_report(f, far, shallow)
    assert report.verdict is Verdict.REFUTED
    assert [c.ok for c in report.clauses] == [False, False]
    assert "'0'" in report.clauses[0].detail

    same = close_report(f, f, shallow)
    assert same.verdict is Verdict.VERIFIED


def test_close_check_requires_shared_endpoints():
    with pytest.raises(DomainError):
        close_check(identity_map(X3), identity_map(Y5), line_space(Y5.ids))


@pytest.mark.parametrize("check", [close_check, close_report])
@pytest.mark.parametrize(
    "f, g, message",
    [
        (identity_map(X3), identity_map(Y5), "close maps need a shared domain and codomain"),
        (identity_map(X3), identity_map(X3), "codomain does not match the target space"),
    ],
    ids=["unshared", "off-target"],
)
def test_close_report_checks_the_endpoints_as_close_check_does(check, f, g, message):
    with pytest.raises(DomainError, match=message):
        check(f, g, line_space(Y5.ids))


@st.composite
def close_chains(draw):
    """Two maps from up to six points into a chain over up to five points.
    The first level holds every singleton and up to three random members;
    each further level grows every member of the one before by one point,
    so the chain covers and is monotone."""
    n = draw(st.integers(1, 5))
    dst = points(str(i) for i in range(n))
    members = [1 << k for k in range(n)] + draw(
        st.lists(st.integers(1, (1 << n) - 1), max_size=3)
    )
    levels = [Family.from_masks(dst, tuple(members))]
    for _ in range(draw(st.integers(0, 3))):
        grown = (m | 1 << draw(st.integers(0, n - 1)) for m in levels[-1].masks)
        levels.append(Family.from_masks(dst, tuple(grown)))
    image = st.sampled_from(dst.ids)
    pairs = draw(st.lists(st.tuples(image, image), min_size=1, max_size=6))
    src = points(f"x{i}" for i in range(len(pairs)))
    f = grounded_map(src, dst, {x: a for x, (a, _) in zip(src.ids, pairs)})
    g = grounded_map(src, dst, {x: b for x, (_, b) in zip(src.ids, pairs)})
    return f, g, validate_space(dst, levels)


@given(close_chains())
def test_close_check_is_the_first_clean_level_of_close_report(case):
    f, g, dst = case
    report = close_report(f, g, dst)
    first = next((j for j, c in enumerate(report.clauses, start=1) if c.ok), None)
    assert (first is None) == (report.verdict is Verdict.REFUTED)
    assert close_check(f, g, dst) == first


def test_doubling_and_halving_are_a_coarse_equivalence():
    a = line_space(X3.ids)
    b = line_space(Y5.ids)
    double = grounded_map(X3, Y5, lambda p: str(2 * int(p)))
    halve = grounded_map(Y5, X3, lambda p: str(int(p) // 2))
    report = coarse_equivalence_check(double, halve, a, b)
    assert report.verdict is Verdict.VERIFIED
    assert [c.name for c in report.clauses] == [
        "forward map bornologous",
        "backward map bornologous",
        "round trip on domain close to identity",
        "round trip on codomain close to identity",
    ]


def test_collapsing_map_fails_the_round_trip():
    a = line_space(Y5.ids)
    b = validate_space(points(["z"]), [family(points(["z"]), [frozenset({"z"})])])
    collapse = grounded_map(Y5, b.points, lambda p: "z")
    # send the single point back to an endpoint; the round trip strands "4"
    back = grounded_map(b.points, Y5, {"z": "0"})
    shallow_a = validate_space(Y5, [a.level(1)])
    report = coarse_equivalence_check(collapse, back, shallow_a, b)
    assert not report
    failed = {c.name for c in report.failures()}
    assert "round trip on domain close to identity" in failed


def test_constant_maps_oscillate_slowly_with_empty_witness():
    src = line_space(Y5.ids)
    target = path_metric(Y5)
    const = grounded_map(Y5, Y5, lambda p: "2")
    for level in range(1, src.depth + 1):
        report = slowly_oscillating_verify(
            const, target, src, level, Fraction(1, 2), frozenset()
        )
        assert report.verdict is Verdict.VERIFIED
    assert slowly_oscillating_search(const, target, src, 1, Fraction(1, 2)).witness == frozenset()


def test_oscillation_thresholds_are_strict():
    src = line_space(Y5.ids)
    target = path_metric(Y5)
    f = identity_map(Y5)
    # radius-1 balls have image diameter exactly 2
    report = slowly_oscillating_verify(f, target, src, 1, Fraction(2), frozenset())
    assert not report
    assert any("diameter" in c.name for c in report.failures())
    report = slowly_oscillating_verify(
        f, target, src, 1, Fraction(2), frozenset(Y5.ids)
    )
    assert report.verdict is Verdict.VERIFIED


def test_oscillation_search_finds_a_valid_witness():
    src = line_space(Y5.ids)
    target = path_metric(Y5)
    f = identity_map(Y5)
    b = slowly_oscillating_search(f, target, src, 1, Fraction(2)).witness
    assert b is not None
    assert slowly_oscillating_verify(f, target, src, 1, Fraction(2), b)


def test_oscillation_search_fails_without_weak_boundedness():
    shallow = validate_space(
        Y5,
        [
            fam(Y5, {"0"}, {"1"}, {"2"}, {"3"}, {"4"}),
            line_space(Y5.ids).level(1),
        ],
    )
    f = identity_map(Y5)
    target = path_metric(Y5)
    assert slowly_oscillating_search(f, target, shallow, 2, Fraction(1)).witness is None
    report = slowly_oscillating_verify(
        f, target, shallow, 2, Fraction(1), frozenset(Y5.ids)
    )
    assert not report
    assert report.clauses[0].ok is False


def test_oscillation_search_verifies_one_candidate(monkeypatch):
    """The union of the offending members is the only candidate: a
    star-thickened union is a superset of it, and a superset of a set that
    is not weakly bounded is not weakly bounded either."""
    shallow = validate_space(
        Y5,
        [
            fam(Y5, {"0"}, {"1"}, {"2"}, {"3"}, {"4"}),
            line_space(Y5.ids).level(1),
        ],
    )
    # {0, 1} keeps a zero image diameter and meets the offending {1, 2, 3},
    # so the thickened union would differ from the union {1, 2, 3, 4}
    f = grounded_map(Y5, Y5, {"0": "0", "1": "0", "2": "0", "3": "3", "4": "4"})
    calls = []
    verify = maps.slowly_oscillating_verify

    def counted(*args):
        calls.append(args[-1])
        return verify(*args)

    monkeypatch.setattr(maps, "slowly_oscillating_verify", counted)
    assert slowly_oscillating_search(f, path_metric(Y5), shallow, 2, Fraction(1)).witness is None
    assert calls == [frozenset({"1", "2", "3", "4"})]


def test_oscillation_rejects_bad_inputs():
    src = line_space(Y5.ids)
    target = path_metric(Y5)
    f = identity_map(Y5)
    with pytest.raises(DomainError, match="positive"):
        slowly_oscillating_verify(f, target, src, 1, Fraction(0), frozenset())
    with pytest.raises(DomainError):
        slowly_oscillating_verify(identity_map(X3), target, src, 1, Fraction(1), frozenset())


def test_oscillation_search_rejects_a_system_source():
    fs = overlap_system()
    const = grounded_map(fs.ambient, Y5, lambda p: "0")
    with pytest.raises(DomainError, match="^witness search needs a single-space source$"):
        slowly_oscillating_search(const, path_metric(Y5), fs, 1, Fraction(1))


def test_system_oscillation_uses_the_ambient_scale():
    fs = overlap_system()
    target = path_metric(Y5)
    const = grounded_map(fs.ambient, Y5, lambda p: "0")
    scale = extended_level(fs, 2, 2)
    report = system_slowly_oscillating_verify(
        const, target, fs, scale, Fraction(1, 2), frozenset()
    )
    assert report.verdict is Verdict.VERIFIED

    f = identity_map(Y5)
    report = system_slowly_oscillating_verify(
        f, target, fs, scale, Fraction(1), frozenset()
    )
    assert not report


# properties


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_close_check_is_symmetric(a, b):
    dst = line_space(Y5.ids)
    f = grounded_map(Y5, Y5, lambda p: str(a))
    g = grounded_map(Y5, Y5, lambda p: str(b))
    assert close_check(f, g, dst) == close_check(g, f, dst)


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5))
def test_every_map_is_close_to_itself_at_level_one(images):
    dst = line_space(Y5.ids)
    f = GroundedMapFactory(images)
    assert close_check(f, f, dst) == 1


def GroundedMapFactory(images):
    return grounded_map(Y5, Y5, lambda p: str(images[int(p)]))


def extended_bornologous_check(f, src, dst):
    """Reference: every piece level extended to the ambient set with all
    singletons, then imaged by f itself."""
    clauses = []
    for piece in src.pieces:
        for i, lv in enumerate(piece.space.levels, start=1):
            j = is_bounded(dst, image_family(f, extend_to_ambient(src, lv)))
            name = f"image of piece {piece.name} level {i}"
            if j is None:
                detail = "no level of the target chain bounds the image family"
                clauses.append(Clause(name, False, detail, truncation=True))
            else:
                clauses.append(Clause(name, True, f"bounded at level {j}"))
    return from_clauses(clauses)


def bornologous_cases():
    """(label, map, system, target): the reciprocal map of the unit interval
    into a deep and a shallow chain, and random maps of grids and of random
    systems into one of their own piece chains."""
    for n in (8, 16):
        inst = gen_unit_interval(n)
        for k, dst in enumerate((inst.piece_chains[-1], inst.colimit_chain)):
            yield f"unit-interval-{n}/{k}", inst.f, inst.system, dst
    systems = [("c0-2x3", gen_c0(2, 3))]
    systems += [(f"random-{seed}", gen_random_system(seed)) for seed in range(50)]
    for label, system in systems:
        rng = random.Random(label)
        for k in range(2):
            dst = rng.choice(system.pieces).space
            images = tuple(rng.choice(dst.points.ids) for _ in system.ambient.ids)
            yield f"{label}/{k}", GroundedMap(system.ambient, dst.points, images), system, dst


def test_system_bornologous_check_matches_the_extended_reference():
    outcomes = set()
    for label, f, system, dst in bornologous_cases():
        got = system_bornologous_check(f, system, dst)
        assert got == extended_bornologous_check(f, system, dst), label
        outcomes.add(got.verdict)
    assert outcomes == {Verdict.VERIFIED, Verdict.UNDECIDED}
