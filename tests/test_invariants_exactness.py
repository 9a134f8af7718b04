"""Partitions of unity: exact arithmetic, variation bounds, zero-extension."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coarsekit import DomainError, Verdict
from coarsekit.colimit import ColimitBoundedness
from coarsekit.families import family, points
from coarsekit.invariants import (
    ExactnessWitness,
    PartitionOfUnity,
    exactness_lift,
    exactness_verify,
    l1_variation,
    partition_of_unity,
    support_family,
)
from coarsekit.invariants.common import bound_clause
from coarsekit.reports import Clause, from_clauses
from coarsekit.spaces import validate_space

from builders import fam, line_space, overlap_system


def adjacent_pairs(pts):
    return family(
        pts,
        [frozenset({pts.ids[i], pts.ids[i + 1]}) for i in range(len(pts.ids) - 1)],
    )


def test_partition_constructor_validates_rows():
    pts = points(["a", "b"])
    with pytest.raises(DomainError, match="negative"):
        partition_of_unity(pts, ["i"], [[-1], [1]])
    with pytest.raises(DomainError, match="sum to"):
        partition_of_unity(pts, ["i", "j"], [[Fraction(1, 2), Fraction(1, 3)], [1, 0]])
    with pytest.raises(DomainError, match="distinct"):
        partition_of_unity(pts, ["i", "i"], [[1, 0], [0, 1]])
    with pytest.raises(DomainError, match="row"):
        partition_of_unity(pts, ["i"], [[1]])
    with pytest.raises(DomainError, match="length"):
        partition_of_unity(pts, ["i", "j"], [[1], [1]])


def test_partition_accessors():
    pts = points(["a", "b"])
    pou = partition_of_unity(
        pts, ["i", "j"], [[Fraction(1, 3), Fraction(2, 3)], [0, 1]]
    )
    assert pou.weight("a", 1) == Fraction(2, 3)
    assert pou.support(0) == frozenset({"a"})
    assert pou.support(1) == frozenset({"a", "b"})
    assert support_family(pou).members == (frozenset({"a"}), frozenset({"a", "b"}))
    assert l1_variation(pou, "a", "b") == Fraction(2, 3)
    assert l1_variation(pou, "a", "a") == 0


def test_tenths_sum_exactly_to_one():
    pts = points(["a"])
    pou = partition_of_unity(pts, [str(i) for i in range(10)], [["1/10"] * 10])
    assert sum(pou.rows[0]) == 1


def test_indicator_partition_verifies_on_islands():
    pts = points(["a", "b", "c", "d"])
    sp = validate_space(
        pts,
        [
            fam(pts, {"a"}, {"b"}, {"c"}, {"d"}),
            fam(pts, {"a", "b"}, {"c", "d"}),
        ],
    )
    pou = partition_of_unity(
        pts, ["left", "right"], [[1, 0], [1, 0], [0, 1], [0, 1]]
    )
    w = ExactnessWitness(sp.level(2), Fraction(1, 2), pou, 2)
    assert exactness_verify(sp, w).verdict is Verdict.VERIFIED


def test_constant_partition_needs_a_whole_set_member():
    pts = points(["a", "b", "c"])
    sp = validate_space(
        pts,
        [
            fam(pts, {"a"}, {"b"}, {"c"}),
            fam(pts, {"a", "b"}, {"b", "c"}),
        ],
    )
    pou = partition_of_unity(pts, ["only"], [[1], [1], [1]])
    w = ExactnessWitness(sp.level(2), Fraction(1), pou)
    report = exactness_verify(sp, w)
    # variation is zero everywhere but the support is the whole path
    assert report.verdict is Verdict.UNDECIDED
    assert any("support" in c.name for c in report.failures())

    wider = validate_space(pts, list(sp.levels) + [fam(pts, {"a", "b", "c"})])
    assert exactness_verify(wider, ExactnessWitness(wider.level(2), Fraction(1), pou))


def shallow_tent(slope_num, slope_den):
    """Two-index tent over six points with the given leftward slope."""
    pts = points([str(i) for i in range(6)])
    left = [
        max(Fraction(0), 1 - Fraction(slope_num, slope_den) * i) for i in range(6)
    ]
    rows = [[v, 1 - v] for v in left]
    return pts, partition_of_unity(pts, ["L", "R"], rows)


def test_gentle_tents_verify_and_steep_tents_fail():
    pts, gentle = shallow_tent(1, 4)
    sp = line_space(pts.ids)
    scale = adjacent_pairs(pts)
    w = ExactnessWitness(scale, Fraction(1), gentle)
    assert exactness_verify(sp, w).verdict is Verdict.VERIFIED

    _, steep = shallow_tent(1, 1)
    report = exactness_verify(sp, ExactnessWitness(scale, Fraction(1), steep))
    assert report.verdict is Verdict.REFUTED
    failure = next(c for c in report.failures())
    assert "('0', '1')" in failure.detail and "varies by 2" in failure.detail


def test_variation_threshold_is_strict():
    pts, gentle = shallow_tent(1, 4)
    sp = line_space(pts.ids)
    scale = adjacent_pairs(pts)
    # adjacent variation is exactly 1/2, so eps = 1/2 must refute
    report = exactness_verify(sp, ExactnessWitness(scale, Fraction(1, 2), gentle))
    assert report.verdict is Verdict.REFUTED


def test_verify_rejects_bad_thresholds_and_spaces():
    pts, gentle = shallow_tent(1, 4)
    sp = line_space(pts.ids)
    scale = adjacent_pairs(pts)
    with pytest.raises(DomainError, match="positive"):
        exactness_verify(sp, ExactnessWitness(scale, Fraction(0), gentle))
    other = points(["x"])
    with pytest.raises(DomainError):
        exactness_verify(
            sp, ExactnessWitness(fam(other, {"x"}), Fraction(1), gentle)
        )


def test_verify_re_checks_hand_built_rows():
    pts = points(["a", "b"])
    sp = validate_space(pts, [fam(pts, {"a", "b"})])
    broken = PartitionOfUnity(
        pts, ("i",), ((Fraction(1, 2),), (Fraction(1),))
    )
    w = ExactnessWitness(fam(pts, {"a"}), Fraction(1), broken, 1)
    report = exactness_verify(sp, w)
    assert report.verdict is Verdict.REFUTED
    assert any("sum to 1/2" in c.detail for c in report.failures())


def piece_tent(piece_points):
    left = [max(Fraction(0), 1 - Fraction(1, 4) * i) for i in range(len(piece_points))]
    rows = [[v, 1 - v] for v in left]
    return partition_of_unity(piece_points, ["L", "R"], rows)


def test_lift_zero_extends_with_outside_deltas():
    fs = overlap_system()
    piece = fs.pieces[0]
    pou = piece_tent(piece.space.points)
    w = ExactnessWitness(adjacent_pairs(piece.space.points), Fraction(1), pou)
    assert exactness_verify(piece.space, w)

    lifted = exactness_lift(fs, 0, w)
    assert lifted.pou.space == fs.ambient
    assert set(lifted.pou.indices) == {"L", "R", "delta:3", "delta:4"}
    assert isinstance(lifted.support_bound, ColimitBoundedness)
    assert exactness_verify(fs, lifted).verdict is Verdict.VERIFIED

    k = lifted.pou.indices.index("delta:3")
    assert lifted.pou.weight("3", k) == 1
    assert lifted.pou.weight("0", k) == 0


def test_lift_rejects_a_failing_piece_witness():
    fs = overlap_system()
    piece = fs.pieces[0]
    pou = piece_tent(piece.space.points)
    too_tight = ExactnessWitness(
        adjacent_pairs(piece.space.points), Fraction(1, 2), pou
    )
    with pytest.raises(DomainError, match="does not verify"):
        exactness_lift(fs, 0, too_tight)


def test_lift_rejects_colliding_index_names():
    fs = overlap_system()
    piece = fs.pieces[0]
    pts = piece.space.points
    pou = partition_of_unity(pts, ["delta:3"], [[1], [1], [1]])
    w = ExactnessWitness(fam(pts, {"0", "1"}), Fraction(1), pou, 3)
    assert exactness_verify(piece.space, w)
    with pytest.raises(DomainError, match="collide"):
        exactness_lift(fs, 0, w)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4)
        ).map(lambda t: Fraction(min(t[0], t[1]), t[1])),
        min_size=2,
        max_size=2,
    )
)
def test_variation_is_symmetric_and_vanishes_on_equal_rows(vals):
    pts = points(["x", "y"])
    rows = [[v, 1 - v] for v in vals]
    pou = partition_of_unity(pts, ["i", "j"], rows)
    assert l1_variation(pou, "x", "y") == l1_variation(pou, "y", "x")
    assert l1_variation(pou, "x", "y") >= 0
    if rows[0] == rows[1]:
        assert l1_variation(pou, "x", "y") == 0


# properties: the verifier against a plain-Fraction reference


def reference_unit_offense(pts, rows):
    for p, row in zip(pts.ids, rows):
        if any(v < 0 for v in row):
            return f"negative weight at point {p!r}"
        if sum(row) != 1:
            return f"weights at point {p!r} sum to {sum(row)}, not 1"
    return None


def reference_variation(rows, a, b):
    return sum((abs(Fraction(x) - y) for x, y in zip(rows[a], rows[b])), Fraction(0))


def reference_report(target, w):
    """exactness_verify transcribed on Fraction sums over the weight rows."""
    pts = w.scale.space
    unit = reference_unit_offense(pts, w.pou.rows)
    var = None
    for m in w.scale.members:
        at = sorted(pts.ids.index(p) for p in m)
        pairs = [(a, b) for i, a in enumerate(at) for b in at[i + 1 :]]
        for a, b in pairs:
            v = reference_variation(w.pou.rows, a, b)
            if not v < w.eps:
                var = f"pair ({pts.ids[a]!r}, {pts.ids[b]!r}) varies by {v}"
                break
        if var:
            break
    return from_clauses(
        [
            bound_clause(
                "support family bounded", target, support_family(w.pou), w.support_bound
            ),
            Clause("weights form a unit partition at every point", unit is None, unit or ""),
            Clause("variation below threshold inside every member", var is None, var or ""),
        ]
    )


# ints and Fractions drawn from numerators over mixed, also negative, denominators
WEIGHTS = st.integers(-1, 2) | st.builds(
    Fraction, st.integers(-3, 8), st.integers(-6, 6).filter(bool)
)


@st.composite
def exactness_cases(draw):
    """A two-level space over up to six points, hand-built weight rows that
    are mostly nonnegative and mostly rescaled to sum to one, a scale of up
    to four members, and eps often equal to the variation of a scale pair."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 4))
    pts = points(f"p{i}" for i in range(n))
    sp = validate_space(
        pts, [family(pts, [[p] for p in pts.ids]), family(pts, [pts.ids])]
    )
    rows = []
    for _ in range(n):
        row = draw(st.lists(WEIGHTS, min_size=k, max_size=k))
        if draw(st.integers(0, 9)):
            row = [abs(v) for v in row]
        total = sum(row)
        if total not in (0, 1) and draw(st.integers(0, 9)):
            row = [Fraction(v) / total for v in row]
        rows.append(tuple(row))
    scale = family(pts, draw(st.lists(st.sets(st.sampled_from(pts.ids)), max_size=4)))
    variations = sorted(
        {
            reference_variation(rows, a, b)
            for m in scale.members
            for a in map(pts.ids.index, m)
            for b in map(pts.ids.index, m)
        }
        - {0}
    )
    if variations and draw(st.booleans()):
        eps = draw(st.sampled_from(variations))
    else:
        eps = draw(st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12))
    pou = PartitionOfUnity(pts, tuple(f"i{j}" for j in range(k)), tuple(rows))
    return sp, ExactnessWitness(scale, eps, pou, draw(st.sampled_from([None, 1, 2])))


@given(exactness_cases())
def test_verify_agrees_with_the_fraction_reference(case):
    sp, w = case
    assert exactness_verify(sp, w) == reference_report(sp, w)
    ids = w.pou.space.ids
    for a in range(len(ids)):
        for b in range(len(ids)):
            v = l1_variation(w.pou, ids[a], ids[b])
            assert type(v) is Fraction and v == reference_variation(w.pou.rows, a, b)

    expected = reference_unit_offense(w.pou.space, w.pou.rows)
    if expected is None:
        built = partition_of_unity(w.pou.space, w.pou.indices, w.pou.rows)
        assert built == PartitionOfUnity(
            w.pou.space,
            w.pou.indices,
            tuple(tuple(map(Fraction, row)) for row in w.pou.rows),
        )
    else:
        with pytest.raises(DomainError) as exc:
            partition_of_unity(w.pou.space, w.pou.indices, w.pou.rows)
        assert str(exc.value) == expected


def test_offending_sums_and_variations_print_in_lowest_terms():
    pts = points(["a", "b"])
    sp = validate_space(pts, [family(pts, [["a", "b"]])])
    pou = PartitionOfUnity(
        pts, ("i", "j"), ((Fraction(3, 2), Fraction(1, 2)), (0, Fraction(1, 4)))
    )
    report = exactness_verify(sp, ExactnessWitness(sp.level(1), Fraction(1), pou, 1))
    assert report.clause("weights form a unit partition at every point").detail == (
        "weights at point 'a' sum to 2, not 1"
    )
    assert report.clause("variation below threshold inside every member").detail == (
        "pair ('a', 'b') varies by 7/4"
    )
