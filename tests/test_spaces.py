"""Scaled spaces: chain validation, boundedness, restriction, components."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from coarsekit import DomainError, ValidationError
from coarsekit.corpus import gen_c0
from coarsekit.families import family, points
from coarsekit.spaces import (
    coarse_components,
    coincidence_failure,
    essentially_refines,
    is_bounded,
    restrict,
    validate_space,
    weakly_bounded,
)

import oracles
from builders import fam

P3 = points(["1", "2", "3"])


def path3():
    """Three points in a row: singletons, edge pairs, the whole set."""
    return validate_space(
        P3,
        [
            fam(P3, {"1"}, {"2"}, {"3"}),
            fam(P3, {"1", "2"}, {"2", "3"}),
            fam(P3, {"1", "2", "3"}),
        ],
    )


@st.composite
def partition_chains(draw):
    """Monotone chains built by merging partition blocks, always valid."""
    n = draw(st.integers(min_value=1, max_value=6))
    ids = tuple(str(i) for i in range(n))
    space = points(ids)
    blocks = [frozenset({p}) for p in ids]
    levels = [family(space, blocks)]
    depth = draw(st.integers(min_value=0, max_value=2))
    for _ in range(depth):
        if len(blocks) > 1:
            i = draw(st.integers(min_value=0, max_value=len(blocks) - 2))
            blocks = blocks[:i] + [blocks[i] | blocks[i + 1]] + blocks[i + 2 :]
        levels.append(family(space, blocks))
    return validate_space(space, levels)


@st.composite
def cover_chains(draw):
    """Monotone covering chains with overlapping members: each level grows
    every member of the one before and may add members of its own."""
    n = draw(st.integers(min_value=1, max_value=6))
    ids = tuple(str(i) for i in range(n))
    space = points(ids)
    subsets = st.integers(min_value=0, max_value=(1 << n) - 1)
    first = draw(st.lists(subsets, max_size=4))
    covered = 0
    for m in first:
        covered |= m
    level = first + [1 << i for i in range(n) if not covered >> i & 1]
    levels = [level]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        level = [m | draw(subsets) for m in level] + draw(st.lists(subsets, max_size=2))
        levels.append(level)
    return validate_space(
        space,
        [family(space, [oracles.from_mask(ids, m) for m in lv]) for lv in levels],
    )


@st.composite
def graded_chains(draw):
    """Chains of balls on a path or cycle of 6 to 11 points, radii growing
    level by level but short of the whole space, and a few extra members
    inside the next level's. Radius-r balls starred against themselves reach
    radius 3r, so the top level's stars escape it and a singleton first level
    always fits: most draws have a star depth strictly between 0 and full."""
    n = draw(st.integers(min_value=6, max_value=11))
    ids = tuple(str(i) for i in range(n))
    space = points(ids)
    cycle = draw(st.booleans())

    def gap(p, q):
        return min(abs(p - q), n - abs(p - q)) if cycle else abs(p - q)

    def ball(p, r):
        return sum(1 << q for q in range(n) if gap(p, q) <= r)

    radii = [draw(st.integers(min_value=0, max_value=1))]
    for step in draw(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=4)):
        radii.append(min(radii[-1] + step, (n - 3) // 2))
    levels = [[ball(p, r) for p in range(n)] for r in radii]
    for k in range(len(levels) - 1):
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            host = draw(st.sampled_from(levels[k + 1]))
            levels[k].append(host & draw(st.integers(min_value=1, max_value=(1 << n) - 1)))
    return validate_space(
        space,
        [family(space, [oracles.from_mask(ids, m) for m in lv if m]) for lv in levels],
    )


def oracle_star_depth(sp):
    ids = list(sp.points.ids)
    return oracles.star_depth_masks(
        [[oracles.to_mask(ids, m) for m in lv.members] for lv in sp.levels]
    )


def test_validate_accepts_a_monotone_covering_chain():
    sp = path3()
    assert sp.depth == 3
    assert sp.level(1).members == (
        frozenset({"1"}),
        frozenset({"2"}),
        frozenset({"3"}),
    )
    with pytest.raises(DomainError):
        sp.level(0)
    with pytest.raises(DomainError):
        sp.level(4)


def test_star_depth_certifies_when_stars_stay_inside():
    assert path3().star_depth == 3

    short = validate_space(
        P3,
        [
            fam(P3, {"1"}, {"2"}, {"3"}),
            fam(P3, {"1", "2"}, {"2", "3"}),
        ],
    )
    # the star of the pair level against itself needs the whole set
    assert short.star_depth == 1


def test_star_depth_agrees_with_the_oracle_below_full_depth():
    P4 = points(["1", "2", "3", "4"])
    chains = [
        # path pairs then triples: the star of a middle pair needs all four points
        [
            fam(P4, {"1"}, {"2"}, {"3"}, {"4"}),
            fam(P4, {"1", "2"}, {"2", "3"}, {"3", "4"}),
            fam(P4, {"1", "2", "3"}, {"2", "3", "4"}),
        ],
        # overlapping first level whose self-star fits no level at all
        [fam(P3, {"1", "2"}, {"2", "3"})],
        # only the top level's stars escape: {3} against it is already {1, 2, 3, 4}
        [
            fam(P4, {"1"}, {"2"}, {"3"}, {"4"}),
            fam(P4, {"1", "2"}, {"2", "3"}, {"4"}),
            fam(P4, {"1", "2", "3"}, {"4"}),
            fam(P4, {"1", "2", "3"}, {"3", "4"}),
        ],
    ]
    depths = []
    for levels in chains:
        sp = validate_space(levels[0].space, levels)
        assert sp.star_depth == oracle_star_depth(sp)
        depths.append((sp.star_depth, sp.depth))
    assert depths == [(1, 3), (0, 1), (3, 4)]


def test_star_depth_agrees_with_the_oracle_on_c0_pieces():
    for piece in gen_c0(2, 3).pieces:
        assert piece.space.star_depth == oracle_star_depth(piece.space)


def test_validate_rejects_a_non_covering_level():
    with pytest.raises(ValidationError, match="'3'"):
        validate_space(P3, [fam(P3, {"1", "2"})])


def test_validate_rejects_a_non_monotone_chain():
    with pytest.raises(ValidationError, match="monotone"):
        validate_space(
            P3,
            [
                fam(P3, {"1", "2", "3"}),
                fam(P3, {"1"}, {"2"}, {"3"}),
            ],
        )


def test_validate_rejects_empty_chains_and_foreign_levels():
    with pytest.raises(ValidationError):
        validate_space(P3, [])
    other = points(["1", "2"])
    with pytest.raises(DomainError):
        validate_space(P3, [fam(other, {"1", "2"})])


def test_is_bounded_returns_the_least_level():
    sp = path3()
    assert is_bounded(sp, fam(P3, {"2"})) == 1
    assert is_bounded(sp, fam(P3, {"2", "3"})) == 2
    assert is_bounded(sp, fam(P3, {"1", "3"})) == 3


def test_small_members_never_block_boundedness():
    sp = validate_space(P3, [fam(P3, {"1"}, {"2"}, {"3"})])
    assert is_bounded(sp, fam(P3, {"1"}, {"3"})) == 1
    assert is_bounded(sp, family(P3, [])) == 1
    assert is_bounded(sp, fam(P3, {"1", "2"})) is None


def test_is_bounded_requires_the_same_point_set():
    with pytest.raises(DomainError):
        is_bounded(path3(), fam(points(["1", "2"]), {"1"}))


def test_restrict_intersects_and_drops_empty_members():
    sub = restrict(path3(), frozenset({"1", "3"}))
    assert sub.points.ids == ("1", "3")
    assert sub.level(2).members == (frozenset({"1"}), frozenset({"3"}))
    assert sub.level(3).members == (frozenset({"1", "3"}),)


def test_restrict_rejects_an_empty_carrier():
    with pytest.raises(DomainError):
        restrict(path3(), frozenset())


def test_coincidence_is_blind_to_level_bookkeeping():
    sp = path3()
    doubled = validate_space(P3, sp.levels + (sp.levels[-1],))
    assert coincidence_failure(sp, doubled) is None

    fine = validate_space(P3, [fam(P3, {"1"}, {"2"}, {"3"})])
    side, level = coincidence_failure(sp, fine)
    assert side == "first" and level == 2


def test_coincidence_failure_reports_the_second_side():
    fine = validate_space(P3, [fam(P3, {"1"}, {"2"}, {"3"})])
    assert coincidence_failure(fine, path3()) == ("second", 2)


def test_coarse_components_split_islands():
    P4 = points(["1", "2", "3", "4"])
    sp = validate_space(
        P4,
        [
            fam(P4, {"1"}, {"2"}, {"3"}, {"4"}),
            fam(P4, {"1", "2"}, {"3", "4"}),
        ],
    )
    assert coarse_components(sp) == (
        frozenset({"1", "2"}),
        frozenset({"3", "4"}),
    )

    assert weakly_bounded(sp, frozenset({"1", "3"}))
    assert weakly_bounded(sp, frozenset({"1", "2", "3"}))
    assert weakly_bounded(sp, frozenset())

    P5 = points(["1", "2", "3", "4", "5"])
    stretched = validate_space(
        P5,
        [
            fam(P5, {"1"}, {"2"}, {"3"}, {"4"}, {"5"}),
            fam(P5, {"1", "2"}, {"3", "4"}, {"4", "5"}),
        ],
    )
    # {3, 5} spans the second island but fits no single member
    assert not weakly_bounded(stretched, frozenset({"1", "3", "5"}))


def test_connected_space_has_one_component():
    assert coarse_components(path3()) == (frozenset({"1", "2", "3"}),)
    assert not weakly_bounded(
        validate_space(
            P3,
            [
                fam(P3, {"1"}, {"2"}, {"3"}),
                fam(P3, {"1", "2"}, {"2", "3"}),
            ],
        ),
        frozenset({"1", "3"}),
    )


# properties


@given(partition_chains())
def test_partition_chains_have_full_star_depth(sp):
    assert sp.star_depth == sp.depth


@given(cover_chains())
def test_star_depth_agrees_with_the_oracle(sp):
    assert sp.star_depth == oracle_star_depth(sp)


@given(graded_chains())
def test_star_depth_agrees_with_the_oracle_on_graded_chains(sp):
    assert sp.star_depth == oracle_star_depth(sp)


@given(cover_chains())
def test_every_star_lies_inside_a_diagonal_star(sp):
    """The lemma behind star depth: for i, j <= k, the star of a level-i
    member against level j lies inside the star of some level-k member
    against level k."""
    ids = list(sp.points.ids)
    levels = [[oracles.to_mask(ids, m) for m in lv.members] for lv in sp.levels]
    for k, lk in enumerate(levels):
        diagonal = [oracles.star_mask(m, lk) for m in lk]
        for li in levels[: k + 1]:
            for lj in levels[: k + 1]:
                for m in li:
                    s = oracles.star_mask(m, lj)
                    assert any(s & ~d == 0 for d in diagonal)


@given(partition_chains())
def test_bounded_families_refine_every_later_level(sp):
    for lv in sp.levels:
        i = is_bounded(sp, lv)
        assert i is not None
        for j in range(i, sp.depth + 1):
            assert essentially_refines(lv, sp.level(j))


@given(partition_chains())
def test_restrict_to_everything_is_identity(sp):
    sub = restrict(sp, frozenset(sp.points.ids))
    assert sub.points == sp.points
    assert sub.levels == sp.levels


@given(cover_chains(), st.data())
def test_restriction_of_a_valid_chain_is_valid(sp, data):
    carrier = data.draw(st.sets(st.sampled_from(sp.points.ids), min_size=1))
    sub = restrict(sp, frozenset(carrier))
    assert validate_space(sub.points, sub.levels) == sub


@given(partition_chains())
def test_restriction_preserves_boundedness_levels(sp):
    carrier = frozenset(sp.points.ids[: 1 + len(sp.points.ids) // 2])
    sub = restrict(sp, carrier)
    for i in range(1, sp.depth + 1):
        cut = family(
            sub.points, [m & carrier for m in sp.level(i).members if m & carrier]
        )
        j = is_bounded(sub, cut)
        assert j is not None and j <= i


@given(partition_chains())
def test_components_agree_with_top_level_blocks(sp):
    blocks = coarse_components(sp)
    assert frozenset().union(*blocks) == frozenset(sp.points.ids)
    for m in sp.levels[-1].members:
        assert sum(1 for b in blocks if m <= b) == 1
