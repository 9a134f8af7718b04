"""Horizon ratio witnesses: exact counting with duplicates, and the lift."""

from __future__ import annotations

from fractions import Fraction

import pytest

from coarsekit import DomainError, Verdict
from coarsekit.colimit import ColimitBoundedness
from coarsekit.families import Family, family, points, reroot
from coarsekit.invariants import (
    AmenabilityWitness,
    amenability_lift,
    amenability_verify,
    covered_points,
    horizon_ratio,
)
from coarsekit.spaces import validate_space

from builders import fam, line_space, overlap_system


Y5 = points(["0", "1", "2", "3", "4"])


def test_covered_points_follow_the_scale():
    pts = points(["a", "b", "c"])
    assert covered_points(fam(pts, {"a", "b"})) == ("a", "b")
    assert covered_points(family(pts, [])) == ()


def test_horizon_ratio_counts_duplicates():
    sp = line_space(Y5.ids)
    scale = sp.level(1)
    v = Family(
        Y5,
        (
            frozenset({"0", "1"}),
            frozenset({"0", "1"}),
            frozenset({"2", "3"}),
        ),
    )
    # two copies meet the point, all three meet its star {0, 1, 2}
    assert horizon_ratio(scale, v, "0") == Fraction(2, 3)

    doubled_far = Family(Y5, (frozenset({"0", "1"}), frozenset({"0", "1"})))
    assert horizon_ratio(scale, doubled_far, "4") is None


def test_singleton_scales_give_ratio_one():
    pts = points(["a", "b", "c"])
    sp = validate_space(pts, [fam(pts, {"a"}, {"b"}, {"c"})])
    singles = sp.level(1)
    for x in pts.ids:
        assert horizon_ratio(singles, singles, x) == 1
    w = AmenabilityWitness(singles, singles, Fraction(1, 2), 1)
    assert amenability_verify(sp, w).verdict is Verdict.VERIFIED


def test_missing_companion_members_refute():
    pts = points(["a", "b", "c"])
    sp = validate_space(
        pts,
        [
            fam(pts, {"a"}, {"b"}, {"c"}),
            fam(pts, {"a", "b"}, {"b", "c"}),
        ],
    )
    scale = sp.level(2)
    # the far edge meets a's star through b but never a itself
    far_edge = fam(pts, {"b", "c"})
    report = amenability_verify(
        sp, AmenabilityWitness(scale, far_edge, Fraction(1, 2), 1)
    )
    assert report.verdict is Verdict.REFUTED
    assert any("ratio 0 at point 'a'" in c.detail for c in report.failures())


def test_empty_denominator_at_a_covered_point_is_a_hard_failure():
    pts = points(["a", "b"])
    sp = validate_space(pts, [fam(pts, {"a"}, {"b"})])
    scale = fam(pts, {"a"})
    empty_v = family(pts, [])
    report = amenability_verify(sp, AmenabilityWitness(scale, empty_v, Fraction(1, 2), 1))
    assert report.verdict is Verdict.REFUTED
    assert any("empty horizon denominator at point 'a'" in c.detail for c in report.failures())


def test_uncovered_points_stay_out_of_quantification():
    pts = points(["a", "b", "c"])
    sp = validate_space(
        pts,
        [
            fam(pts, {"a"}, {"b"}, {"c"}),
            fam(pts, {"a", "b"}, {"b", "c"}),
        ],
    )
    scale = fam(pts, {"a", "b"})
    v = fam(pts, {"a", "b"})
    w = AmenabilityWitness(scale, v, Fraction(1, 2), 2)
    assert amenability_verify(sp, w).verdict is Verdict.VERIFIED


def test_verify_rejects_bad_thresholds_and_spaces():
    pts = points(["a"])
    sp = validate_space(pts, [fam(pts, {"a"})])
    u = fam(pts, {"a"})
    with pytest.raises(DomainError, match="positive"):
        amenability_verify(sp, AmenabilityWitness(u, u, Fraction(0), 1))
    other = points(["z"])
    with pytest.raises(DomainError):
        amenability_verify(sp, AmenabilityWitness(fam(other, {"z"}), u, Fraction(1), 1))


def piece_witness(piece):
    scale = family(
        piece.space.points, [frozenset({p}) for p in piece.space.points.ids]
    )
    return AmenabilityWitness(scale, scale, Fraction(1, 2), 1)


def test_lift_keeps_outside_ratios_at_exactly_one():
    fs = overlap_system()
    piece = fs.pieces[0]
    w = piece_witness(piece)
    assert amenability_verify(piece.space, w)

    u = Family(
        fs.ambient,
        reroot(w.scale, fs.ambient).members
        + (frozenset({"3"}), frozenset({"4"})),
    )
    lifted = amenability_lift(fs, 0, w, u)
    assert lifted.scale is u
    assert isinstance(lifted.v_bound, ColimitBoundedness)
    assert amenability_verify(fs, lifted).verdict is Verdict.VERIFIED

    for x in ("3", "4"):
        assert horizon_ratio(u, lifted.v, x) == 1


def test_lift_without_outside_points_keeps_the_companion():
    fs = overlap_system()
    w = piece_witness(fs.pieces[2])
    u = reroot(w.scale, fs.ambient)
    lifted = amenability_lift(fs, 2, w, u)
    assert lifted.v.members == reroot(w.v, fs.ambient).members


def test_lift_rejects_mismatched_or_straddling_inputs():
    fs = overlap_system()
    piece = fs.pieces[0]
    w = piece_witness(piece)

    too_small = reroot(w.scale, fs.ambient)
    extra = Family(too_small.space, too_small.members + (frozenset({"0", "1"}),))
    with pytest.raises(DomainError, match="does not match"):
        amenability_lift(fs, 0, w, extra)

    straddling = Family(
        fs.ambient,
        reroot(w.scale, fs.ambient).members + (frozenset({"2", "3"}),),
    )
    with pytest.raises(DomainError, match="outside the piece"):
        amenability_lift(fs, 0, w, straddling)

    with pytest.raises(DomainError, match="ambient"):
        amenability_lift(fs, 0, w, w.scale)


def test_lift_rejects_a_failing_piece_witness():
    fs = overlap_system()
    piece = fs.pieces[0]
    scale = family(
        piece.space.points, [frozenset({p}) for p in piece.space.points.ids]
    )
    hollow = AmenabilityWitness(scale, fam(piece.space.points, {"0"}), Fraction(1, 2), 1)
    u = reroot(scale, fs.ambient)
    with pytest.raises(DomainError, match="does not verify"):
        amenability_lift(fs, 0, hollow, u)
