"""Laws of the mask-native family kernels against the brute-force oracles.

Families are drawn over point sets of 1 to 7 points (a point set is never
empty), with members of 0 to 7 points, and every draw may hold empty,
singleton and repeated members. Each family is built twice, through the
checked constructor from frozensets and through ``Family.from_masks``, and
both must behave alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from coarsekit import DomainError
from coarsekit.families import (
    Family,
    covers,
    cut,
    essentially_refines,
    horizon_indices,
    points,
    reroot,
    star_family,
    uncovered_point,
)
from coarsekit.spaces import is_bounded, validate_space

import oracles

IDS = tuple("abcdefg")


@st.composite
def mask_lists(draw, width, max_size=6):
    """Masks over ``width`` bits: any mask, the empty one or a singleton,
    with some drawn masks repeated."""
    member = st.one_of(
        st.integers(0, (1 << width) - 1),
        st.just(0),
        st.integers(0, width - 1).map(lambda i: 1 << i),
    )
    masks = draw(st.lists(member, max_size=max_size))
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=2))
    return draw(st.permutations(masks))


@st.composite
def families(draw, count=1):
    n = draw(st.integers(1, len(IDS)))
    space = points(IDS[:n])
    out = [space]
    for _ in range(count):
        masks = draw(mask_lists(n))
        out.append(Family.from_masks(space, tuple(masks)))
    return tuple(out)


def checked(u: Family) -> Family:
    """The same family through the checked constructor."""
    return Family(u.space, tuple(oracles.from_mask(u.space.ids, m) for m in u.masks))


@given(families())
def test_trusted_and_checked_families_agree(data):
    space, u = data
    v = checked(u)
    assert u == v and hash(u) == hash(v)
    assert u.masks == v.masks
    assert u.members == v.members
    assert len(u) == len(v) == len(u.masks)


@given(families())
def test_members_view_keeps_member_order(data):
    space, u = data
    want = tuple(oracles.from_mask(space.ids, m) for m in u.masks)
    assert u.members == want
    assert tuple(u) == want
    assert tuple(oracles.to_mask(space.ids, m) for m in u.members) == u.masks


@given(families(count=2), st.data())
def test_essential_refinement_with_and_without_carrier(data, draw):
    space, u, v = data
    carrier = draw.draw(st.integers(0, (1 << len(space)) - 1))
    for fu, fv in ((u, v), (checked(u), checked(v))):
        assert essentially_refines(fu, fv) == oracles.essentially_refines_masks(
            list(u.masks), list(v.masks)
        )
        got = essentially_refines(fu, fv, oracles.from_mask(space.ids, carrier))
        assert got == oracles.essentially_refines_masks(list(u.masks), list(v.masks), carrier)


@given(families())
def test_uncovered_point_is_the_first_point_outside_every_member(data):
    space, u = data
    covered = 0
    for m in u.masks:
        covered |= m
    want = next((p for i, p in enumerate(space.ids) if not covered >> i & 1), None)
    assert uncovered_point(u) == want
    assert covers(u) == (want is None)


@given(families(count=2))
def test_star_family_stars_each_member_in_order(data):
    space, v, u = data
    got = star_family(v, u)
    assert got.space == space
    assert got.masks == tuple(oracles.star_mask(m, list(u.masks)) for m in v.masks)
    assert star_family(checked(v), checked(u)) == got


@given(families(), st.data())
def test_horizon_indices_match_the_oracle(data, draw):
    space, u = data
    a = draw.draw(st.integers(0, (1 << len(space)) - 1))
    got = horizon_indices(oracles.from_mask(space.ids, a), u)
    assert got == tuple(sorted(oracles.horizon_index_set(a, list(u.masks))))


@st.composite
def chains(draw):
    """A valid chain: a cover, then levels that each grow every member of the
    level below by a drawn mask, so each level refines the next."""
    space, base = draw(families())
    covered = 0
    for m in base.masks:
        covered |= m
    full = (1 << len(space)) - 1
    first = base.masks + tuple(1 << i for i in range(len(space)) if not covered >> i & 1)
    levels = [first]
    for _ in range(draw(st.integers(0, 2))):
        levels.append(tuple(m | draw(st.integers(0, full)) for m in levels[-1]))
    fams = [Family.from_masks(space, lv) for lv in levels]
    return validate_space(space, fams), draw(mask_lists(len(space)))


@given(chains())
def test_is_bounded_is_the_least_essentially_refined_level(data):
    sp, fmasks = data
    f = Family.from_masks(sp.points, tuple(fmasks))
    want = next(
        (
            i
            for i, lv in enumerate(sp.levels, 1)
            if oracles.essentially_refines_masks(fmasks, list(lv.masks))
        ),
        None,
    )
    assert is_bounded(sp, f) == want
    assert is_bounded(sp, checked(f)) == want


@given(families(), st.permutations(IDS))
def test_reroot_moves_members_to_another_point_order(data, order):
    space, u = data
    wider = points(order)
    moved = reroot(u, wider)
    assert moved.space == wider
    assert moved.members == u.members
    assert moved.masks == tuple(oracles.to_mask(order, m) for m in u.members)
    assert reroot(moved, space) == u
    assert reroot(checked(u), wider) == moved
    if len(space) < len(IDS):
        outside = Family.from_masks(wider, (1 << wider.index(IDS[-1]),))
        with pytest.raises(DomainError) as exc:
            reroot(outside, space)
        assert str(exc.value) == f"member point {IDS[-1]!r} outside the point set"


@given(families(), st.permutations(IDS), st.data())
def test_cut_keeps_the_non_empty_intersections_over_the_given_points(data, order, draw):
    """``pts`` is a non-empty subset of the point set in another order, or,
    when a point outside the point set is drawn too, no subset at all."""
    space, u = data
    kept = set(draw.draw(st.lists(st.sampled_from(space.ids), min_size=1)))
    if len(space) < len(IDS) and draw.draw(st.booleans()):
        with pytest.raises(DomainError):
            cut(u, points(p for p in order if p in kept or p == IDS[-1]))
    pts = points(p for p in order if p in kept)
    inside = oracles.to_mask(space.ids, pts.ids)
    want = tuple(
        oracles.to_mask(pts.ids, oracles.from_mask(space.ids, m & inside))
        for m in u.masks
        if m & inside
    )
    got = cut(u, pts)
    assert got.space == pts
    assert got.masks == want
    assert cut(checked(u), pts) == got
