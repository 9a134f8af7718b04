"""Covering-family primitives: stars, refinement, components, horizons."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from coarsekit import DomainError
from coarsekit.families import (
    Family,
    chain_components,
    covers,
    essentially_refines,
    family,
    family_key,
    horizon,
    horizon_indices,
    multiplicity,
    points,
    refines,
    star_family,
    star_set,
    trivial_extension,
    uncovered_point,
)

import oracles
from builders import fam

X5 = points(["1", "2", "3", "4", "5"])
X6 = points(["1", "2", "3", "4", "5", "6"])


# strategies over a fixed eight-point universe

IDS = tuple(str(i) for i in range(8))


@st.composite
def spaces(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return points(IDS[:n])


@st.composite
def families_over(draw, space):
    ids = space.ids
    member = st.frozensets(st.sampled_from(ids), max_size=len(ids))
    members = draw(st.lists(member, max_size=6))
    return family(space, members)


@st.composite
def space_and_families(draw, count=1):
    space = draw(spaces())
    fams = tuple(draw(families_over(space)) for _ in range(count))
    return (space, *fams)


def as_masks(u):
    return [oracles.to_mask(u.space.ids, m) for m in u.members]


# frozen examples


def test_sorting_orders_by_position_and_names_an_unknown_point():
    assert X5.sort({"4", "1", "3"}) == ("1", "3", "4")
    assert family_key(fam(X5, {"5", "2"}, {"3"}, {"1", "4"})) == (
        ("1", "4"),
        ("2", "5"),
        ("3",),
    )
    with pytest.raises(DomainError) as exc:
        X5.sort(["2", "x"])
    assert str(exc.value) == "point 'x' not in this point set"


def test_star_set_grows_v_by_overlapping_members():
    u = fam(X5, {"1", "2"}, {"2", "3"}, {"4", "5"})
    assert star_set(frozenset({"2"}), u) == frozenset({"1", "2", "3"})


def test_star_set_of_empty_set_is_empty():
    u = fam(X5, {"1", "2"})
    assert star_set(frozenset(), u) == frozenset()


def test_star_set_without_overlap_returns_v():
    u = fam(X5, {"4", "5"})
    assert star_set(frozenset({"1"}), u) == frozenset({"1"})


def test_star_set_rejects_foreign_points():
    u = fam(X5, {"1", "2"})
    with pytest.raises(DomainError):
        star_set(frozenset({"zz"}), u)


def test_star_family_acts_member_by_member():
    v = fam(X5, {"2"}, {"4"})
    u = fam(X5, {"1", "2"}, {"4", "5"})
    out = star_family(v, u)
    assert out.members == (frozenset({"1", "2"}), frozenset({"4", "5"}))


def test_star_family_requires_matching_spaces():
    with pytest.raises(DomainError):
        star_family(fam(X5, {"1"}), fam(X6, {"1"}))


def test_refines_when_every_member_fits():
    u = fam(X5, {"1"}, {"2", "3"})
    v = fam(X5, {"1", "2", "3"})
    assert refines(u, v)


def test_refines_fails_when_a_member_straddles():
    u = fam(X5, {"1", "4"})
    v = fam(X5, {"1", "2"}, {"3", "4"})
    assert not refines(u, v)


def test_empty_member_needs_some_target_member():
    x = points(["1"])
    holed = family(x, [frozenset()])
    assert refines(holed, fam(x, {"1"}))
    assert not refines(holed, family(x, []))


def test_empty_family_refines_anything():
    assert refines(family(X5, []), family(X5, []))


def test_essential_refinement_ignores_small_members():
    x = points(["1", "2", "3", "9"])
    u = fam(x, {"1", "2"}, {"9"})
    v = fam(x, {"1", "2", "3"})
    assert not refines(u, v)
    assert essentially_refines(u, v)


def test_all_singletons_essentially_refine_the_empty_family():
    u = fam(X5, {"1"}, {"3"}, {"5"})
    assert essentially_refines(u, family(X5, []))


def test_trivial_extension_appends_singletons_in_point_order():
    u = fam(points(["1", "2", "3"]), {"1", "2"})
    out = trivial_extension(u)
    assert out.members == (
        frozenset({"1", "2"}),
        frozenset({"1"}),
        frozenset({"2"}),
        frozenset({"3"}),
    )
    assert covers(out)


def test_multiplicity_counts_the_busiest_point():
    assert multiplicity(fam(X5, {"1", "2"}, {"2", "3"})) == 2
    assert multiplicity(family(X5, [])) == 0
    assert multiplicity(fam(X5, {"1"}, {"3", "4"})) == 1


def test_multiplicity_counts_duplicates():
    u = family(X5, [frozenset({"1"}), frozenset({"1"})])
    assert multiplicity(u) == 2


def test_chain_components_merge_overlapping_members():
    u = fam(X6, {"1", "2"}, {"2", "3"}, {"5", "6"})
    assert chain_components(u) == (
        frozenset({"1", "2", "3"}),
        frozenset({"5", "6"}),
    )


def test_chain_components_of_empty_family():
    assert chain_components(family(X6, [])) == ()


def test_chain_components_single_block_when_connected():
    u = fam(X5, {"1", "2"}, {"2", "3"}, {"3", "4"}, {"4", "5"})
    assert chain_components(u) == (frozenset(X5.ids),)


def test_uncovered_point_reports_the_first_gap():
    u = fam(X5, {"1", "2"}, {"4", "5"})
    assert not covers(u)
    assert uncovered_point(u) == "3"
    assert uncovered_point(trivial_extension(u)) is None


def test_horizon_keeps_order_and_duplicates():
    u = fam(X5, {"1", "2"}, {"2", "3"}, {"4"})
    h = horizon(frozenset({"2"}), u)
    assert h.members == (frozenset({"1", "2"}), frozenset({"2", "3"}))
    assert horizon_indices(frozenset({"2"}), u) == (0, 1)

    doubled = family(X5, [frozenset({"1", "2"})] * 2)
    assert len(horizon(frozenset({"1"}), doubled)) == 2


def test_horizon_of_disjoint_set_is_empty():
    u = fam(X5, {"1", "2"})
    assert horizon(frozenset({"4"}), u).members == ()
    assert horizon_indices(frozenset(), u) == ()


# properties


@given(space_and_families())
def test_star_always_contains_the_seed(data):
    space, u = data
    for seed in (frozenset(), frozenset({space.ids[0]}), frozenset(space.ids)):
        assert seed <= star_set(seed, u)


@given(space_and_families())
def test_star_matches_mask_oracle(data):
    space, u = data
    masks = as_masks(u)
    for m in list(u.members) + [frozenset(space.ids), frozenset()]:
        got = star_set(m, u)
        want = oracles.star_mask(oracles.to_mask(space.ids, m), masks)
        assert got == oracles.from_mask(space.ids, want)


@given(space_and_families())
def test_refinement_is_reflexive(data):
    _, u = data
    assert refines(u, u)


@given(space_and_families(count=3))
def test_refinement_is_transitive(data):
    _, u, v, w = data
    if refines(u, v) and refines(v, w):
        assert refines(u, w)


@given(space_and_families(count=2))
def test_refinement_implies_essential_refinement(data):
    _, u, v = data
    if refines(u, v):
        assert essentially_refines(u, v)


@given(space_and_families(count=2))
def test_refinement_matches_mask_oracle(data):
    _, u, v = data
    assert refines(u, v) == oracles.refines_masks(as_masks(u), as_masks(v))


@given(space_and_families(count=2))
def test_essential_refinement_matches_mask_oracle(data):
    _, u, v = data
    assert essentially_refines(u, v) == oracles.essentially_refines_masks(as_masks(u), as_masks(v))


@given(space_and_families())
def test_trivial_extension_covers_and_adds_at_most_one_layer(data):
    _, u = data
    out = trivial_extension(u)
    assert covers(out)
    assert multiplicity(out) <= multiplicity(u) + 1
    assert refines(u, out)


@given(space_and_families())
def test_multiplicity_matches_mask_oracle(data):
    space, u = data
    assert multiplicity(u) == oracles.multiplicity_masks(as_masks(u), len(space.ids))


@given(space_and_families())
def test_components_partition_the_covered_points(data):
    _, u = data
    blocks = chain_components(u)
    seen: set = set()
    for b in blocks:
        assert not (b & seen)
        seen |= b
    assert seen == frozenset().union(*u.members) if u.members else seen == set()
    for m in u.members:
        if m:
            assert sum(1 for b in blocks if m <= b) == 1


@given(space_and_families())
def test_components_match_mask_oracle(data):
    space, u = data
    got = [oracles.to_mask(space.ids, b) for b in chain_components(u)]
    assert got == oracles.components_masks(as_masks(u))


@given(space_and_families())
def test_horizon_matches_mask_oracle(data):
    space, u = data
    for a in [frozenset(), frozenset({space.ids[-1]}), frozenset(space.ids)]:
        h = horizon(a, u)
        amask = oracles.to_mask(space.ids, a)
        assert as_masks(h) == oracles.horizon_masks(amask, as_masks(u))
        assert set(horizon_indices(a, u)) == oracles.horizon_index_set(
            amask, as_masks(u)
        )


@given(space_and_families())
def test_horizon_is_monotone_in_the_probe_set(data):
    space, u = data
    half = frozenset(space.ids[: len(space.ids) // 2])
    whole = frozenset(space.ids)
    small = set(horizon_indices(half, u))
    assert small <= set(horizon_indices(whole, u))


@given(space_and_families(count=2))
def test_horizon_respects_memberwise_containment(data):
    """Adding members, or growing them, can only grow the horizon."""
    space, u, v = data
    merged = Family(space, u.members + v.members)
    a = frozenset(space.ids[:1])
    assert set(horizon(a, u).members) <= set(horizon(a, merged).members)
    assert len(horizon(a, u)) <= len(horizon(a, merged))


@given(space_and_families(count=2))
def test_horizon_transports_along_refinement(data):
    """If u refines v, the horizon inside u refines the horizon inside v,
    for any probe set and any larger probe set on the coarse side."""
    space, u, v = data
    if not refines(u, v):
        return
    a = frozenset(space.ids[:1])
    b = frozenset(space.ids)
    assert refines(horizon(a, u), horizon(b, v))
    assert refines(horizon(a, u), horizon(a, v))
