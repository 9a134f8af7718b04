"""Dimension witnesses: verification, search, lifting, restriction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from coarsekit import DomainError, Verdict
from coarsekit.colimit import ColimitBoundedness, Piece, validate_system
from coarsekit.families import Family, family, points
from coarsekit.invariants import (
    AsdimWitness,
    asdim_lift,
    asdim_restrict,
    asdim_search,
    asdim_verify,
)
from coarsekit.spaces import restrict, validate_space

import asdim_oracle


def fam(space, *members):
    return family(space, [frozenset(m) for m in members])


def line_space(ids):
    pts = points(ids)
    vals = [int(p) for p in ids]
    levels = []
    r = 1
    diam = max(vals) - min(vals) if len(vals) > 1 else 1
    while True:
        members = [
            frozenset(q for q, w in zip(ids, vals) if abs(w - v) <= r) for v in vals
        ]
        levels.append(family(pts, members))
        if r >= diam:
            break
        r *= 2
    return validate_space(pts, levels)


Y5 = points(["0", "1", "2", "3", "4"])


def adjacent_pairs(pts):
    return family(
        pts,
        [
            frozenset({pts.ids[i], pts.ids[i + 1]})
            for i in range(len(pts.ids) - 1)
        ],
    )


def test_adjacent_pairs_witness_dimension_one_on_a_line():
    sp = line_space(Y5.ids)
    scale = adjacent_pairs(Y5)
    w = AsdimWitness(scale, scale, 1)
    assert asdim_verify(sp, 1, w).verdict is Verdict.VERIFIED

    found = asdim_search(sp, 1, scale)
    assert found == asdim_search(sp, 1, scale, mode="exhaustive")
    assert found.witness is not None
    assert asdim_verify(sp, 1, found.witness)


def test_disjoint_islands_have_dimension_zero():
    pts = points(["a", "b", "c", "d"])
    sp = validate_space(
        pts,
        [
            fam(pts, {"a"}, {"b"}, {"c"}, {"d"}),
            fam(pts, {"a", "b"}, {"c", "d"}),
        ],
    )
    scale = sp.level(2)
    found = asdim_search(sp, 0, scale)
    assert found.witness is not None
    assert set(found.witness.coarsening.members) == set(scale.members)
    assert asdim_verify(sp, 0, found.witness)


def test_exhaustive_search_refutes_dimension_zero_on_a_path():
    pts = points(["a", "b", "c"])
    sp = validate_space(
        pts,
        [
            fam(pts, {"a"}, {"b"}, {"c"}),
            fam(pts, {"a", "b"}, {"b", "c"}),
        ],
    )
    found = asdim_search(sp, 0, sp.level(2))
    assert found.witness is None
    assert found.exhausted

    # with a whole-set top member the overlap merges away
    wider = validate_space(
        pts, list(sp.levels) + [fam(pts, {"a", "b", "c"})]
    )
    found = asdim_search(wider, 0, wider.level(2))
    assert found.witness is not None
    assert found.witness.coarsening.members == (frozenset({"a", "b", "c"}),)


def test_verify_reports_each_failing_clause():
    sp = line_space(Y5.ids)
    scale = adjacent_pairs(Y5)

    crowded = asdim_verify(sp, 0, AsdimWitness(scale, scale, 1))
    assert crowded.verdict is Verdict.REFUTED
    assert any("multiplicity" in c.name for c in crowded.failures())

    stray = AsdimWitness(fam(Y5, {"0", "4"}), fam(Y5, {"0", "1"}), 1)
    report = asdim_verify(sp, 1, stray)
    assert any("fits no coarsening member" in c.detail for c in report.failures())

    spread = fam(Y5, {"0", "4"})
    wrong_bound = AsdimWitness(spread, spread, 1)
    report = asdim_verify(sp, 1, wrong_bound)
    assert any("does not check" in c.detail for c in report.failures())
    assert asdim_verify(sp, 1, AsdimWitness(spread, spread, 3))


def test_verify_rejects_malformed_inputs():
    sp = line_space(Y5.ids)
    scale = adjacent_pairs(Y5)
    with pytest.raises(DomainError):
        asdim_verify(sp, -1, AsdimWitness(scale, scale, 1))
    other = points(["x"])
    with pytest.raises(DomainError):
        asdim_verify(sp, 1, AsdimWitness(fam(other, {"x"}), scale, 1))


def test_all_singleton_scales_need_no_coarsening():
    sp = line_space(Y5.ids)
    scale = fam(Y5, {"0"}, {"3"})
    found = asdim_search(sp, 0, scale)
    assert found.witness is not None
    assert found.witness.coarsening.members == ()
    assert asdim_verify(sp, 0, found.witness)


def test_search_modes_and_caps():
    sp = line_space(Y5.ids)
    scale = adjacent_pairs(Y5)
    with pytest.raises(DomainError, match="mode"):
        asdim_search(sp, 1, scale, mode="sideways")
    with pytest.raises(DomainError, match="at most"):
        asdim_search(sp, 1, scale, cap=3, mode="exhaustive")

    greedy = asdim_search(sp, 1, scale, mode="greedy")
    assert greedy != asdim_search(sp, 1, scale, mode="exhaustive")
    assert greedy.witness is not None
    assert asdim_verify(sp, 1, greedy.witness)

    auto_flips = asdim_search(sp, 1, scale, cap=3, mode="auto")
    assert auto_flips == greedy


@st.composite
def searches(draw):
    """A valid chain over 1 to 7 points, a scale with empty, singleton and
    repeated members, and a dimension bound. The first level is drawn masks
    completed to a cover; each further level grows every member of the one
    below, so the chain is monotone. Scale members are drawn freely or
    inside a top member, so that most of them fit the top level."""
    pts = points("abcdefg"[: draw(st.integers(1, 7))])
    member = st.sets(st.integers(0, len(pts) - 1)).map(lambda bits: sum(1 << i for i in bits))
    base = draw(st.lists(member, max_size=5))
    covered = 0
    for m in base:
        covered |= m
    levels = [tuple(base) + tuple(1 << i for i in range(len(pts)) if not covered >> i & 1)]
    for _ in range(draw(st.integers(0, 2))):
        levels.append(tuple(m | draw(member) for m in levels[-1]))
    space = validate_space(pts, [Family.from_masks(pts, lv) for lv in levels])
    inside_top = st.tuples(st.sampled_from(levels[-1]), member).map(lambda t: t[0] & t[1])
    scale = draw(st.lists(st.one_of(member, inside_top), min_size=1, max_size=6))
    scale += draw(st.lists(st.sampled_from(scale), max_size=1))
    return space, Family.from_masks(pts, tuple(scale)), draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(searches())
def test_exhaustive_search_finds_a_witness_exactly_when_the_oracle_does(data):
    """Exhaustive search returns the oracle's first coarsening in canonical
    order, or nothing when the oracle finds none."""
    space, scale, n = data
    want = asdim_oracle.first_coarsening(
        list(scale.masks), list(space.level(space.depth).masks), n, len(space.points)
    )
    exhaustive = asdim_search(space, n, scale, mode="exhaustive")
    assert exhaustive.exhausted == (want is None)
    if want is None:
        assert exhaustive.witness is None
    else:
        assert exhaustive.witness.coarsening.masks == tuple(want)
    greedy = asdim_search(space, n, scale, mode="greedy")
    assert not greedy.exhausted
    for w in (exhaustive.witness, greedy.witness):
        if w is not None:
            assert w.scale == scale
            assert asdim_verify(space, n, w).verdict is Verdict.VERIFIED
    assert greedy.witness is None or want is not None


def test_exhaustive_search_backtracks_out_of_a_dead_end():
    """{a, d} first joins {b, e}, which leaves {c, e} no group; the search
    must undo that choice, counts included, to find the witness."""
    pts = points("abcde")
    sp = validate_space(pts, [fam(pts, "ce", "abce", "abde")])
    found = asdim_search(sp, 0, fam(pts, "be", "ad", "ce"), mode="exhaustive")
    assert found.witness.coarsening == fam(pts, "bce", "ad")


def test_greedy_search_merges_crowded_groups_until_none_is_crowded():
    sp = line_space(Y5.ids)
    found = asdim_search(sp, 0, adjacent_pairs(Y5), mode="greedy")
    assert found.witness.coarsening == fam(Y5, set(Y5.ids))


def test_scale_given_as_a_level_index():
    sp = line_space(Y5.ids)
    found = asdim_search(sp, 1, 1)
    assert found.witness is not None
    assert found.witness.scale == sp.level(1)


def overlap_system():
    ambient = Y5
    full = line_space(ambient.ids)
    left = frozenset({"0", "1", "2"})
    right = frozenset({"2", "3", "4"})
    return validate_system(
        ambient,
        [
            Piece("left", left, restrict(full, left)),
            Piece("right", right, restrict(full, right)),
            Piece("all", frozenset(ambient.ids), full),
        ],
    )


def test_lift_carries_a_piece_witness_to_the_colimit():
    fs = overlap_system()
    piece = fs.pieces[0]
    scale = adjacent_pairs(piece.space.points)
    found = asdim_search(piece.space, 1, scale)
    assert found.witness is not None

    lifted = asdim_lift(fs, 0, 1, found.witness)
    assert lifted.scale.space == fs.ambient
    assert isinstance(lifted.bound, ColimitBoundedness)
    assert asdim_verify(fs, 1, lifted).verdict is Verdict.VERIFIED


def test_lift_rejects_a_witness_that_does_not_verify():
    fs = overlap_system()
    piece = fs.pieces[0]
    scale = adjacent_pairs(piece.space.points)
    bogus = AsdimWitness(scale, scale, None)
    with pytest.raises(DomainError, match="piece witness"):
        asdim_lift(fs, 0, 0, bogus)


def test_restrict_cuts_a_colimit_witness_to_a_piece():
    fs = overlap_system()
    scale = adjacent_pairs(fs.ambient)
    w = AsdimWitness(scale, scale, ColimitBoundedness(2, 1))
    assert asdim_verify(fs, 1, w)
    for s in range(len(fs.pieces)):
        cut = asdim_restrict(fs, s, 1, w)
        assert asdim_verify(fs.pieces[s].space, 1, cut).verdict is Verdict.VERIFIED


def test_restrict_rejects_a_witness_that_does_not_verify():
    fs = overlap_system()
    scale = adjacent_pairs(fs.ambient)
    with pytest.raises(DomainError, match="colimit witness"):
        asdim_restrict(fs, 0, 0, AsdimWitness(scale, scale, ColimitBoundedness(2, 1)))


@given(st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=3))
@settings(max_examples=30)
def test_lift_then_restrict_round_trips(piece_idx, level):
    fs = overlap_system()
    piece = fs.pieces[piece_idx]
    level = min(level, piece.space.depth)
    found = asdim_search(piece.space, 1, piece.space.level(level))
    if found.witness is None:
        return
    lifted = asdim_lift(fs, piece_idx, 1, found.witness)
    assert asdim_verify(fs, 1, lifted)
    back = asdim_restrict(fs, piece_idx, 1, lifted)
    assert asdim_verify(piece.space, 1, back)
