"""Coordinate pinch witnesses: exact squared-distance comparisons."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from coarsekit import Clause, DomainError, Verdict, from_clauses
from coarsekit.colimit import ColimitBoundedness
from coarsekit.families import family, points
from coarsekit.invariants import (
    pinch_lift,
    pinch_verify,
    pinch_witness,
    sq_dist,
)
from coarsekit.spaces import validate_space

from builders import fam, overlap_system


P3 = points(["a", "b", "c"])


def path_abc():
    return validate_space(
        P3,
        [
            fam(P3, {"a"}, {"b"}, {"c"}),
            fam(P3, {"a", "b"}, {"b", "c"}),
            fam(P3, {"a", "b", "c"}),
        ],
    )


def test_witness_constructor_validates_shape_and_thresholds():
    scale = fam(P3, {"a", "b"})
    sep = fam(P3, {"a", "b", "c"})
    with pytest.raises(DomainError, match="dimension"):
        pinch_witness(0, [[], [], []], scale, sep, 1, 1)
    with pytest.raises(DomainError, match="row per point"):
        pinch_witness(1, [[0], [0]], scale, sep, 1, 1)
    with pytest.raises(DomainError, match="row length"):
        pinch_witness(2, [[0], [0], [0]], scale, sep, 1, 1)
    with pytest.raises(DomainError, match="positive"):
        pinch_witness(1, [[0], [0], [0]], scale, sep, 0, 1)
    with pytest.raises(DomainError, match="positive"):
        pinch_witness(1, [[0], [0], [0]], scale, sep, 1, 0)


def test_sq_dist_is_exact():
    a = (Fraction(1, 3), Fraction(0))
    b = (Fraction(0), Fraction(1, 2))
    assert sq_dist(a, b) == Fraction(1, 9) + Fraction(1, 4)


def test_constant_embedding_with_whole_set_separation():
    sp = path_abc()
    w = pinch_witness(
        1,
        [[0], [0], [0]],
        sp.level(2),
        fam(P3, {"a", "b", "c"}),
        1,
        "1/2",
        sep_bound=3,
    )
    assert pinch_verify(sp, w).verdict is Verdict.VERIFIED


def test_half_gap_pairs_refute_separation():
    sp = path_abc()
    w = pinch_witness(
        1,
        [[0], ["1/2"], [5]],
        sp.level(1),
        fam(P3, {"a"}, {"b"}, {"c"}),
        1,
        1,
        sep_bound=1,
    )
    report = pinch_verify(sp, w)
    assert report.verdict is Verdict.REFUTED
    failure = next(c for c in report.failures())
    assert "('a', 'b')" in failure.detail and "1/4" in failure.detail


def test_thresholds_compare_squared_and_exactly():
    sp = path_abc()
    # diameter exactly at the threshold must fail: the comparison is strict
    at_eps = pinch_witness(
        1,
        [[0], [1], [0]],
        fam(P3, {"a", "b"}),
        fam(P3, {"a", "b", "c"}),
        1,
        1,
        sep_bound=3,
    )
    assert pinch_verify(sp, at_eps).verdict is Verdict.REFUTED

    # separation exactly at the threshold passes: the comparison is not strict
    at_c = pinch_witness(
        1,
        [[0], [1], [2]],
        fam(P3, {"a"}),
        fam(P3, {"a"}, {"b"}, {"c"}),
        1,
        1,
        sep_bound=1,
    )
    assert pinch_verify(sp, at_c).verdict is Verdict.VERIFIED

    # a pair a hair inside unit distance: no slack either way at c = eps = 1
    pair = points(["a", "b"])
    near = validate_space(pair, [fam(pair, {"a"}, {"b"}), fam(pair, {"a", "b"})])
    rows = [[0], [1 - Fraction(1, 10**10)]]
    apart = fam(pair, {"a"}, {"b"})
    together = fam(pair, {"a", "b"})
    too_close = pinch_witness(1, rows, apart, apart, 1, 1, sep_bound=1)
    assert pinch_verify(near, too_close).verdict is Verdict.REFUTED
    small_image = pinch_witness(1, rows, together, together, 1, 1, sep_bound=2)
    assert pinch_verify(near, small_image).verdict is Verdict.VERIFIED


def test_claimed_separation_bound_is_checked():
    sp = path_abc()
    w = pinch_witness(
        1,
        [[0], [0], [0]],
        sp.level(1),
        fam(P3, {"a", "c"}),
        1,
        1,
        sep_bound=1,
    )
    report = pinch_verify(sp, w)
    assert any("does not check" in c.detail for c in report.failures())


def piece_witness(piece):
    pts = piece.space.points
    return pinch_witness(
        1,
        [[0]] * len(pts),
        piece.space.level(1),
        fam(pts, set(pts.ids)),
        1,
        "1/2",
    )


def test_lift_pads_outside_points_onto_unit_axes():
    fs = overlap_system()
    w = piece_witness(fs.pieces[0])
    assert pinch_verify(fs.pieces[0].space, w)

    lifted = pinch_lift(fs, 0, w)
    assert lifted.dim == w.dim + 2
    assert isinstance(lifted.sep_bound, ColimitBoundedness)

    # outside pairs sit at squared distance exactly 2
    assert sq_dist(lifted.vec("3"), lifted.vec("4")) == 2
    # mixed pairs sit at exactly 1: the boundary the unit calibration allows
    assert sq_dist(lifted.vec("0"), lifted.vec("3")) == 1
    assert sq_dist(lifted.vec("0"), lifted.vec("1")) == 0

    assert pinch_verify(fs, lifted).verdict is Verdict.VERIFIED


def test_lift_requires_unit_calibration():
    fs = overlap_system()
    piece = fs.pieces[0]
    pts = piece.space.points
    off = pinch_witness(
        1,
        [[0]] * len(pts),
        piece.space.level(1),
        fam(pts, set(pts.ids)),
        2,
        "1/2",
    )
    with pytest.raises(DomainError, match="calibrated"):
        pinch_lift(fs, 0, off)


def test_lift_rejects_a_failing_piece_witness():
    fs = overlap_system()
    piece = fs.pieces[0]
    pts = piece.space.points
    spread = pinch_witness(
        1,
        [[0], [5], [10]],
        piece.space.level(1),
        fam(pts, set(pts.ids)),
        1,
        "1/2",
    )
    with pytest.raises(DomainError, match="does not verify"):
        pinch_lift(fs, 0, spread)


# the verifier on integer rows against a plain Fraction reference


def reference_clauses(w):
    """The pinch clauses computed pair by pair on Fractions, scanning the
    separation members for every pair."""

    def sq(p, q):
        return sum(((x - y) ** 2 for x, y in zip(w.vec(p), w.vec(q))), Fraction(0))

    worst_pair, worst = None, None
    for m in w.scale.members:
        inside = w.scale.space.sort(m)
        for a, p in enumerate(inside):
            for q in inside[a + 1 :]:
                if worst is None or sq(p, q) > worst:
                    worst, worst_pair = sq(p, q), (p, q)
    diam = Clause(
        "image diameters stay below the pinch threshold",
        worst is None or worst < w.eps**2,
        "" if worst is None else f"extremal pair {worst_pair!r} at squared distance {worst}",
    )

    nearest_pair, nearest = None, None
    ids = w.scale.space.ids
    for a, p in enumerate(ids):
        for q in ids[a + 1 :]:
            if any(p in m and q in m for m in w.sep.members):
                continue
            if nearest is None or sq(p, q) < nearest:
                nearest, nearest_pair = sq(p, q), (p, q)
    sep = Clause(
        "separated off the separation family",
        nearest is None or nearest >= w.c**2,
        ""
        if nearest is None
        else f"extremal pair {nearest_pair!r} at squared distance {nearest}",
    )
    return [Clause("separation family bounded", True, "bounded at level 1"), diam, sep]


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)
positive = st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12)


@st.composite
def witness_cases(draw):
    """Rows of int entries and of Fractions with mixed and negative
    denominators, some of them all zero, then the int 0 and 1 unit columns a
    lift appends for some of the points, over scale and separation families
    whose members overlap. Zero rows and unit columns give pairs of rows with
    disjoint supports."""
    n = draw(st.integers(min_value=2, max_value=7))
    ids = [f"p{i}" for i in range(n)]
    pts = points(ids)
    dim = draw(st.integers(min_value=1, max_value=3))
    entries = rationals | st.integers(min_value=-3, max_value=3)
    zero = st.lists(st.sampled_from([0, Fraction(0)]), min_size=dim, max_size=dim)
    rows = [draw(zero | st.lists(entries, min_size=dim, max_size=dim)) for _ in ids]
    lifted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    axes = [i for i, on in enumerate(lifted) if on]
    for i, row in enumerate(rows):
        row += [1 if i == k else 0 for k in axes]
    subsets = st.lists(st.sampled_from(ids), unique=True, max_size=n)
    scale = family(pts, draw(st.lists(subsets, max_size=4)))
    sep = family(pts, draw(st.lists(subsets, max_size=5)))
    w = pinch_witness(dim + len(axes), rows, scale, sep, draw(positive), draw(positive))
    return validate_space(pts, [family(pts, [ids])]), w


@given(witness_cases())
def test_verifier_agrees_with_the_fraction_reference(case):
    sp, w = case
    report = pinch_verify(sp, w)
    reference = reference_clauses(w)
    assert list(report.clauses) == reference
    assert report.verdict is from_clauses(reference).verdict
