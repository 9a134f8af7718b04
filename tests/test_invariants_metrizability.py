"""Generator lists closed under pairwise union-with-star, and their merge."""

from __future__ import annotations

import pytest

from coarsekit import DomainError, TruncationError, Verdict
from coarsekit.colimit import Piece, validate_system
from coarsekit.families import points
from coarsekit.invariants import (
    GeneratorSet,
    combined_pair,
    generator_set,
    metrizability_generator_check,
    metrizability_merge,
)
from coarsekit.spaces import restrict, validate_space

from builders import fam, line_space


P3 = points(["a", "b", "c"])


def test_generator_set_validates_inputs():
    with pytest.raises(DomainError, match="at least one"):
        generator_set(P3, [])
    other = points(["z"])
    with pytest.raises(DomainError, match="point set"):
        generator_set(P3, [fam(other, {"z"})])


def test_a_generator_set_checks_itself_when_built():
    with pytest.raises(DomainError, match="^a generator set needs at least one family$"):
        GeneratorSet(P3, ())
    other = points(["z"])
    with pytest.raises(
        DomainError, match="^generator family is not over the stated point set$"
    ):
        GeneratorSet(P3, (fam(P3, {"a"}), fam(other, {"z"})))
    families = (fam(P3, {"a", "b"}, {"c"}),)
    assert GeneratorSet(P3, families) == generator_set(P3, list(families))


def test_combined_pair_concatenates_members_and_stars():
    a = fam(P3, {"a", "b"})
    b = fam(P3, {"b", "c"})
    combined = combined_pair(a, b)
    assert combined.members == (
        frozenset({"a", "b"}),
        frozenset({"b", "c"}),
        frozenset({"a", "b", "c"}),
    )


def test_whole_set_generator_list_is_closed():
    g = generator_set(P3, [fam(P3, {"a", "b", "c"})])
    report = metrizability_generator_check(g)
    assert report.verdict is Verdict.VERIFIED
    assert [c.name for c in report.clauses] == ["pair (0, 0)"]


def test_ball_levels_form_a_closed_list():
    sp = line_space([str(i) for i in range(5)])
    g = generator_set(sp.points, sp.levels)
    assert metrizability_generator_check(g).verdict is Verdict.VERIFIED


def test_open_ended_lists_fail_the_pair_check():
    g = generator_set(
        P3,
        [
            fam(P3, {"a"}, {"b"}, {"c"}),
            fam(P3, {"a", "b"}, {"b", "c"}),
        ],
    )
    report = metrizability_generator_check(g)
    assert report.verdict is Verdict.REFUTED
    assert any(
        "no family in the list coarsens" in c.detail for c in report.failures()
    )


def island_system():
    ambient = points(["0", "1", "2", "3"])
    a = frozenset({"0", "1"})
    b = frozenset({"2", "3"})
    top = validate_space(
        ambient,
        [
            fam(ambient, {"0"}, {"1"}, {"2"}, {"3"}),
            fam(ambient, {"0", "1"}, {"2", "3"}),
        ],
    )
    return validate_system(
        ambient,
        [
            Piece("a", restrict(top, a)),
            Piece("b", restrict(top, b)),
            Piece("all", top),
        ],
    )


def test_single_piece_merge_is_the_identity():
    sp = line_space([str(i) for i in range(5)])
    fs = validate_system(
        sp.points, [Piece("all", sp)]
    )
    gs = generator_set(sp.points, sp.levels)
    merged, report = metrizability_merge(fs, [gs])
    assert report.verdict is Verdict.VERIFIED
    assert merged.space == fs.ambient
    assert [f.members for f in merged.families] == [lv.members for lv in sp.levels]
    assert metrizability_generator_check(merged).verdict is Verdict.VERIFIED


def test_island_merge_produces_a_closed_ambient_list():
    fs = island_system()
    pa = points(["0", "1"])
    pb = points(["2", "3"])
    sets = [
        generator_set(pa, [fam(pa, {"0", "1"})]),
        generator_set(pb, [fam(pb, {"2", "3"})]),
        generator_set(fs.ambient, [fam(fs.ambient, {"0", "1"}, {"2", "3"})]),
    ]
    merged, report = metrizability_merge(fs, sets)
    assert report.verdict is Verdict.VERIFIED
    assert len(merged.families) == 3
    assert metrizability_generator_check(merged).verdict is Verdict.VERIFIED


def wide_island_system():
    ambient = points(["0", "1", "2", "3", "4"])
    a = frozenset({"0", "1", "2"})
    b = frozenset({"3", "4"})
    top = validate_space(
        ambient,
        [
            fam(ambient, {"0"}, {"1"}, {"2"}, {"3"}, {"4"}),
            fam(ambient, {"0", "1"}, {"1", "2"}, {"3", "4"}),
            fam(ambient, {"0", "1", "2"}, {"3", "4"}),
        ],
    )
    return validate_system(
        ambient,
        [
            Piece("a", restrict(top, a)),
            Piece("b", restrict(top, b)),
            Piece("all", top),
        ],
    )


def test_merge_checks_piece_lists_for_self_closure():
    fs = wide_island_system()
    pa = points(["0", "1", "2"])
    pb = points(["3", "4"])
    # overlapping pairs star into the whole island, which the list lacks
    open_list = generator_set(pa, [fam(pa, {"0", "1"}, {"1", "2"})])
    closed_b = generator_set(pb, [fam(pb, {"3", "4"})])
    closed_all = generator_set(
        fs.ambient, [fam(fs.ambient, {"0", "1", "2"}, {"3", "4"})]
    )
    own = metrizability_generator_check(open_list)
    if own:
        pytest.fail("fixture list unexpectedly closed")
    with pytest.raises(TruncationError, match="own pair check"):
        metrizability_merge(fs, [open_list, closed_b, closed_all])


def test_merge_routes_pairs_through_the_upper_piece():
    fs = island_system()
    pa = points(["0", "1"])
    pb = points(["2", "3"])
    sets = [
        generator_set(pa, [fam(pa, {"0", "1"})]),
        generator_set(pb, [fam(pb, {"2", "3"})]),
        # closed on its own but too fine to absorb the island pair routed up
        generator_set(fs.ambient, [fam(fs.ambient, {"0", "1"}, {"2"}, {"3"})]),
    ]
    assert metrizability_generator_check(sets[2]).verdict is Verdict.VERIFIED
    with pytest.raises(TruncationError, match="no coarsening for the pair"):
        metrizability_merge(fs, sets)


def test_merge_validates_structure_before_searching():
    fs = island_system()
    pa = points(["0", "1"])
    gs = generator_set(pa, [fam(pa, {"0", "1"})])
    with pytest.raises(DomainError, match="one generator set per piece"):
        metrizability_merge(fs, [gs])
    with pytest.raises(DomainError, match="not over its carrier"):
        metrizability_merge(fs, [gs, gs, gs])
