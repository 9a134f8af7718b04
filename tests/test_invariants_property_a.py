"""Tag-set witnesses: symmetric difference ratios over star neighbourhoods."""

from __future__ import annotations

from fractions import Fraction

import pytest

from coarsekit import DomainError, Verdict
from coarsekit.colimit import ColimitBoundedness
from coarsekit.families import family, points
from coarsekit.invariants import (
    PropertyAFamily,
    geometry_cap,
    pair_ratio,
    property_a_lift,
    property_a_verify,
)
from coarsekit.spaces import validate_space

from builders import fam, overlap_system


P2 = points(["a", "b"])


def self_tags(pts, n_cap=1, eps=Fraction(1, 2), support=None, bound=1):
    singles = family(pts, [frozenset({p}) for p in pts.ids])
    return PropertyAFamily(
        n_cap,
        tuple(frozenset({(p, 1)}) for p in pts.ids),
        singles,
        support if support is not None else singles,
        eps,
        bound,
    )


def test_constructor_validates_tags():
    singles = family(P2, [frozenset({p}) for p in P2.ids])
    good = tuple(frozenset({(p, 1)}) for p in P2.ids)
    with pytest.raises(DomainError, match="cap"):
        PropertyAFamily(0, good, singles, singles, Fraction(1))
    with pytest.raises(DomainError, match="per point"):
        PropertyAFamily(1, good[:1], singles, singles, Fraction(1))
    with pytest.raises(DomainError, match="pairs"):
        PropertyAFamily(1, (frozenset({"a"}), good[1]), singles, singles, Fraction(1))
    with pytest.raises(DomainError, match="not in the space"):
        PropertyAFamily(
            1, (frozenset({("z", 1)}), good[1]), singles, singles, Fraction(1)
        )
    with pytest.raises(DomainError, match="start at 1"):
        PropertyAFamily(
            1, (frozenset({("a", 0)}), good[1]), singles, singles, Fraction(1)
        )
    with pytest.raises(DomainError, match="positive"):
        PropertyAFamily(1, good, singles, singles, Fraction(0))


def test_pair_ratio_is_exact_or_undefined():
    w = self_tags(P2)
    assert pair_ratio(w, "a", "a") == 0
    assert pair_ratio(w, "a", "b") is None

    pts = points(["a", "b"])
    singles = family(pts, [frozenset({p}) for p in pts.ids])
    w2 = PropertyAFamily(
        2,
        (
            frozenset({("a", 1), ("a", 2)}),
            frozenset({("a", 1), ("b", 1)}),
        ),
        singles,
        fam(pts, {"a", "b"}),
        Fraction(3),
        None,
    )
    assert pair_ratio(w2, "a", "b") == Fraction(2, 1)


def test_self_tags_verify_on_singleton_scales():
    pts = points(["a", "b", "c"])
    sp = validate_space(pts, [fam(pts, {"a"}, {"b"}, {"c"})])
    report = property_a_verify(sp, self_tags(pts))
    assert report.verdict is Verdict.VERIFIED
    cap_clause = report.clauses[0]
    assert "largest member size 1" in cap_clause.detail
    assert "index cap 1" in cap_clause.detail


def test_shared_block_tags_have_zero_ratio_on_islands():
    pts = points(["a", "b", "c", "d"])
    sp = validate_space(
        pts,
        [
            fam(pts, {"a"}, {"b"}, {"c"}, {"d"}),
            fam(pts, {"a", "b"}, {"c", "d"}),
        ],
    )
    left = frozenset({("a", 1), ("b", 1)})
    right = frozenset({("c", 1), ("d", 1)})
    w = PropertyAFamily(
        1, (left, left, right, right), sp.level(2), sp.level(2), Fraction(1, 2), 2
    )
    assert property_a_verify(sp, w).verdict is Verdict.VERIFIED
    assert pair_ratio(w, "a", "b") == 0


def test_disjoint_neighbour_tags_are_a_dedicated_failure():
    sp = validate_space(P2, [fam(P2, {"a", "b"})])
    w = self_tags(P2, support=fam(P2, {"a", "b"}), bound=1)
    broken = PropertyAFamily(
        1, w.sets, fam(P2, {"a", "b"}), fam(P2, {"a", "b"}), Fraction(1, 2), 1
    )
    report = property_a_verify(sp, broken)
    assert report.verdict is Verdict.REFUTED
    assert any(
        "empty tag intersection for pair ('a', 'b')" in c.detail
        for c in report.failures()
    )


def test_ratio_threshold_is_strict():
    sp = validate_space(P2, [fam(P2, {"a", "b"})])
    shared = frozenset({("a", 1), ("b", 1)})
    bigger = frozenset({("a", 1), ("b", 1), ("b", 2)})
    w = PropertyAFamily(
        2, (shared, bigger), fam(P2, {"a", "b"}), fam(P2, {"a", "b"}), Fraction(1, 2), 1
    )
    report = property_a_verify(sp, w)
    assert report.verdict is Verdict.REFUTED
    assert any(
        "ratio 1/2" in c.detail and "reaches the threshold" in c.detail
        for c in report.failures()
    )

    loose = PropertyAFamily(
        2, (shared, bigger), fam(P2, {"a", "b"}), fam(P2, {"a", "b"}), Fraction(2, 3), 1
    )
    assert property_a_verify(sp, loose).verdict is Verdict.VERIFIED


def test_missing_base_tag_is_reported():
    sp = validate_space(P2, [fam(P2, {"a", "b"})])
    w = PropertyAFamily(
        1,
        (frozenset({("b", 1)}), frozenset({("a", 1), ("b", 1)})),
        fam(P2, {"a", "b"}),
        fam(P2, {"a", "b"}),
        Fraction(2),
        1,
    )
    report = property_a_verify(sp, w)
    assert any("'a' lacks its base tag" in c.detail for c in report.failures())


def test_tags_must_stay_inside_support_stars():
    pts = points(["a", "b", "c"])
    sp = validate_space(
        pts,
        [fam(pts, {"a"}, {"b"}, {"c"}), fam(pts, {"a", "b"}, {"b", "c"})],
    )
    # c is outside the star of a against the singleton support
    sets = (
        frozenset({("a", 1), ("c", 1)}),
        frozenset({("b", 1)}),
        frozenset({("c", 1)}),
    )
    singles = sp.level(1)
    w = PropertyAFamily(1, sets, singles, singles, Fraction(1, 2), 1)
    report = property_a_verify(sp, w)
    assert any("escapes the support star" in c.detail for c in report.failures())

    over_cap = PropertyAFamily(
        1,
        (
            frozenset({("a", 1), ("a", 2)}),
            frozenset({("b", 1)}),
            frozenset({("c", 1)}),
        ),
        singles,
        singles,
        Fraction(1, 2),
        1,
    )
    report = property_a_verify(sp, over_cap)
    assert any("escapes" in c.detail for c in report.failures())


def test_geometry_cap_spans_all_pieces():
    fs = overlap_system()
    assert geometry_cap(fs) == 5
    assert geometry_cap(fs.pieces[0].space) == 3


def test_lift_gives_outside_points_self_tags():
    fs = overlap_system()
    piece = fs.pieces[0]
    w = self_tags(piece.space.points)
    assert property_a_verify(piece.space, w)

    lifted = property_a_lift(fs, 0, w)
    assert isinstance(lifted.support_bound, ColimitBoundedness)
    assert lifted.tags("3") == frozenset({("3", 1)})
    assert pair_ratio(lifted, "3", "3") == 0
    assert property_a_verify(fs, lifted).verdict is Verdict.VERIFIED


def test_lift_rejects_a_failing_piece_witness():
    fs = overlap_system()
    piece = fs.pieces[0]
    pts = piece.space.points
    singles = family(pts, [frozenset({p}) for p in pts.ids])
    broken = PropertyAFamily(
        1,
        tuple(frozenset({(pts.ids[0], 1)}) for _ in pts.ids),
        singles,
        singles,
        Fraction(1, 2),
        1,
    )
    with pytest.raises(DomainError, match="does not verify"):
        property_a_lift(fs, 0, broken)
