"""Dimension witnesses: verification, search, lifting, restriction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from coarsekit import DomainError, Verdict
from coarsekit.colimit import ColimitBoundedness
from coarsekit.corpus import gen_c0
from coarsekit.families import Family, family, points
from coarsekit.invariants import (
    AsdimWitness,
    asdim_lift,
    asdim_restrict,
    asdim_search,
    asdim_verify,
)
from coarsekit.spaces import validate_space

import asdim_oracle
from builders import fam, line_space, overlap_system


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


def test_search_rejects_a_system_target():
    with pytest.raises(DomainError, match="^witness search needs a single-space target$"):
        asdim_search(gen_c0(2, 1), 1, 1)


def test_all_singleton_scales_need_no_coarsening():
    sp = line_space(Y5.ids)
    scale = fam(Y5, {"0"}, {"3"})
    found = asdim_search(sp, 0, scale)
    assert found.witness is not None
    assert found.witness.coarsening.members == ()
    assert asdim_verify(sp, 0, found.witness)


def test_search_stops_when_its_node_budget_is_spent():
    sp = line_space(Y5.ids)
    scale = adjacent_pairs(Y5)
    assert asdim_search(sp, 1, scale).witness is not None
    stopped = asdim_search(sp, 1, scale, budget=1)
    assert stopped.witness is None
    assert not stopped.exhausted
    assert "budget of 1 nodes" in stopped.detail
    assert stopped.clause("witness search").truncation


GRIDS = {"5x5": (2, 2), "3x3x3": (3, 1), "7x7": (2, 3), "5x5x5": (3, 2)}


def top_piece_cell(grid, bound_level):
    """The top piece of a c0 grid with its chain cut to levels 1 to B."""
    space = gen_c0(*GRIDS[grid]).pieces[-1].space
    return validate_space(space.points, [space.level(i) for i in range(1, bound_level + 1)])


@pytest.mark.parametrize(
    "grid, n, bound_level, nodes, exhausted",
    [
        ("5x5", 1, 2, 46, True),
        ("3x3x3", 2, 2, 4701, True),
        ("7x7", 1, 2, 82, True),
        ("5x5x5", 2, 2, 30818, True),
        ("5x5", 2, 2, 39, False),
        ("3x3x3", 3, 2, 88, False),
        ("7x7", 2, 2, 1882, False),
        ("7x7", 2, 3, 50, False),
        ("5x5", 0, 3, 26, False),
        ("3x3x3", 0, 3, 28, False),
    ],
)
def test_search_decides_each_grid_cell_in_its_recorded_nodes(
    grid, n, bound_level, nodes, exhausted
):
    """Searches at scale level 1, each deciding within its node count and
    stopping undecided one node short of it."""
    sp = top_piece_cell(grid, bound_level)
    decided = asdim_search(sp, n, 1, budget=nodes)
    assert decided.exhausted == exhausted
    assert (decided.witness is None) == exhausted
    if exhausted:
        assert decided.detail == (
            f"no coarsening of multiplicity at most {n + 1} is bounded at level {bound_level}"
        )
    else:
        assert asdim_verify(sp, n, decided.witness).verdict is Verdict.VERIFIED
    short = asdim_search(sp, n, 1, budget=nodes - 1)
    assert short.witness is None and not short.exhausted


@pytest.mark.parametrize("grid, n, bound_level", [("7x7", 1, 3), ("5x5x5", 1, 3), ("5x5x5", 3, 2)])
def test_search_stops_on_a_grid_cell_past_its_budget(grid, n, bound_level):
    """These cells run past 2M nodes; a small budget shows they stop undecided."""
    found = asdim_search(top_piece_cell(grid, bound_level), n, 1, budget=2000)
    assert found.witness is None
    assert not found.exhausted
    assert "budget of 2000 nodes" in found.detail


def test_search_on_a_large_piece_returns_the_first_witness():
    """Search is exact past 12 points: on the 49-point grid piece at its own
    top level, the first coarsening in canonical order is the whole piece."""
    fs = gen_c0(2, 3)
    sp = fs.pieces[fs.piece_index("grid2")].space
    found = asdim_search(sp, 0, 1)
    want = asdim_oracle.first_coarsening(
        list(sp.level(1).masks), list(sp.level(sp.depth).masks), 0, len(sp.points)
    )
    assert found.witness.coarsening.masks == tuple(want) == ((1 << len(sp.points)) - 1,)
    assert asdim_verify(sp, 0, found.witness).verdict is Verdict.VERIFIED


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
    exhaustive = asdim_search(space, n, scale)
    assert exhaustive.exhausted == (want is None)
    if want is None:
        assert exhaustive.witness is None
    else:
        assert exhaustive.witness.coarsening.masks == tuple(want)
        assert exhaustive.witness.scale == scale
        assert asdim_verify(space, n, exhaustive.witness).verdict is Verdict.VERIFIED


def test_exhaustive_search_backtracks_out_of_a_dead_end():
    """{a, d} first joins {b, e}, which leaves {c, e} no group; the search
    must undo that choice, counts included, to find the witness."""
    pts = points("abcde")
    sp = validate_space(pts, [fam(pts, "ce", "abce", "abde")])
    found = asdim_search(sp, 0, fam(pts, "be", "ad", "ce"))
    assert found.witness.coarsening == fam(pts, "bce", "ad")


def test_scale_given_as_a_level_index():
    sp = line_space(Y5.ids)
    found = asdim_search(sp, 1, 1)
    assert found.witness is not None
    assert found.witness.scale == sp.level(1)


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
