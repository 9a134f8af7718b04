"""Reference instance generators: shapes, caps, determinism."""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from coarsekit import DomainError
from coarsekit.colimit import validate_system
from coarsekit.corpus import (
    MAX_RANDOM_DEPTH,
    MAX_RANDOM_PIECES,
    MAX_RANDOM_POINTS,
    _ball_levels,
    _int_radii,
    gen_c0,
    gen_disjoint_union,
    gen_random_system,
    gen_unit_interval,
)
from coarsekit.documents import emit_document, system_to_doc
from coarsekit.families import points
from coarsekit.maps import (
    INF,
    MetricTarget,
    close_check,
    close_violation,
    path_metric,
    restrict_map,
)


def test_one_dimensional_grid_shape():
    fs = gen_c0(1, 1)
    assert fs.ambient.ids == ("-1", "0", "1")
    assert [p.name for p in fs.pieces] == ["grid1"]
    assert fs.pieces[0].space.depth == 2
    assert any("radii: 1, 2" in m for m in fs.meta)


def test_two_coordinate_grid_nests_pieces():
    fs = gen_c0(2, 1)
    assert len(fs.ambient) == 9
    assert [p.name for p in fs.pieces] == ["grid1", "grid2"]
    assert fs.pieces[0].space.points.ids == ("-1,0", "0,0", "1,0")
    assert set(fs.pieces[0].space.points) < set(fs.pieces[1].space.points)
    assert fs.upper_piece(0, 1) == 1
    assert fs.pieces[1].space.depth == 3


def test_degenerate_grid_boxes_are_allowed():
    fs = gen_c0(1, 0)
    assert fs.ambient.ids == ("0",)
    assert fs.pieces[0].space.depth == 1


def test_grid_caps_and_argument_errors():
    with pytest.raises(DomainError, match="at least one coordinate"):
        gen_c0(0, 1)
    with pytest.raises(DomainError, match="non-negative"):
        gen_c0(1, -1)
    with pytest.raises(DomainError, match="cap exceeded"):
        gen_c0(10, 1)
    with pytest.raises(DomainError, match="non-decreasing"):
        gen_c0(1, 1, radii=(2, 1))
    with pytest.raises(DomainError, match="positive"):
        gen_c0(1, 1, radii=(0,))


def test_disjoint_union_pieces_and_island_balls():
    left = path_metric(points(["a", "b"]))
    right = path_metric(points(["x", "y", "z"]))
    fs = gen_disjoint_union([left, right])
    assert [p.name for p in fs.pieces] == ["M0", "M1", "M0+M1"]
    assert fs.ambient.ids == ("0:a", "0:b", "1:x", "1:y", "1:z")

    for piece in fs.pieces:
        for lv in piece.space.levels:
            for m in lv.members:
                islands = {p.split(":", 1)[0] for p in m}
                assert len(islands) <= 1

    assert fs.upper_piece(0, 1) == 2


def test_single_island_union_collapses():
    fs = gen_disjoint_union([path_metric(points(["a", "b", "c"]))])
    assert [p.name for p in fs.pieces] == ["M0"]


def test_disjoint_union_caps():
    small = path_metric(points(["a"]))
    with pytest.raises(DomainError, match="at least one island"):
        gen_disjoint_union([])
    with pytest.raises(DomainError, match="islands, at most"):
        gen_disjoint_union([small] * 5)
    big = path_metric(points([f"q{i}" for i in range(40)]))
    with pytest.raises(DomainError, match="points, at most"):
        gen_disjoint_union([big, big])


def test_unit_interval_smallest_instance():
    inst = gen_unit_interval(2)
    fs = inst.system
    assert fs.ambient.ids == ("1", "1/2", "1/3")
    assert [p.name for p in fs.pieces] == ["X1", "X2"]
    assert fs.pieces[0].space.points.ids == ("1", "1/2")
    assert inst.f.images == ("1", "2", "3")
    assert set(inst.g.images) == {"1"}
    assert inst.colimit_chain.depth == 1
    # every harmonic value in range is reachable, so the shallow colimit
    # chain is still wide enough here to bring the two maps together
    assert close_check(inst.f, inst.g, inst.colimit_chain) == 1


def test_unit_interval_colimit_chain_fails_at_harmonic_points():
    inst = gen_unit_interval(8)
    chain = inst.colimit_chain
    assert chain.depth == 2
    # radius 1 balls have diameter 2; radius 2 balls have diameter 4
    assert close_violation(inst.f, inst.g, chain.level(1)) == "1/4"
    assert close_violation(inst.f, inst.g, chain.level(2)) == "1/6"
    assert close_check(inst.f, inst.g, chain) is None


def test_unit_interval_piece_chains_succeed():
    inst = gen_unit_interval(8)
    for n, chain in enumerate(inst.piece_chains, start=1):
        pts = inst.system.pieces[n - 1].space.points
        f = restrict_map(inst.f, pts)
        g = restrict_map(inst.g, pts)
        assert close_check(f, g, chain) is not None


def test_unit_interval_bounds():
    with pytest.raises(DomainError, match="at least two"):
        gen_unit_interval(1)
    with pytest.raises(DomainError, match="cap exceeded"):
        gen_unit_interval(65)


def test_random_systems_validate_and_replay():
    for seed in range(10):
        fs = gen_random_system(seed)
        again = gen_random_system(seed)
        assert fs == again
        assert f"seed: {seed}" in fs.meta
        # revalidation from parts must agree, upper bounds included
        rebuilt = validate_system(fs.ambient, fs.pieces)
        assert rebuilt.upper == fs.upper


def test_random_systems_stay_within_the_caps():
    for seed in range(200):
        fs = gen_random_system(seed)
        assert 2 <= len(fs.ambient) <= MAX_RANDOM_POINTS
        assert 1 <= len(fs.pieces) <= MAX_RANDOM_PIECES
        for piece in fs.pieces:
            assert 1 <= piece.space.depth <= MAX_RANDOM_DEPTH


def test_generated_documents_are_byte_stable():
    for build in (
        lambda: gen_c0(2, 1),
        lambda: gen_random_system(7),
        lambda: gen_unit_interval(4).system,
        lambda: gen_disjoint_union(
            [path_metric(points(["a", "b"])), path_metric(points(["c"]))]
        ),
    ):
        first = emit_document(system_to_doc(build()))
        second = emit_document(system_to_doc(build()))
        assert first == second


def test_infinite_distances_never_enter_balls():
    pts = points(["u", "v"])
    split = MetricTarget(
        pts, [[0, float("inf")], [float("inf"), 0]]
    )
    fs = gen_disjoint_union([split, path_metric(points(["w"]))], radii=(1,))
    for piece in fs.pieces:
        for lv in piece.space.levels:
            assert frozenset({"0:u", "0:v"}) not in lv.members
            for m in lv.members:
                assert len(m) == 1


# balls against their literal definition


FRACTIONS = st.fractions(0, 6, max_denominator=4)


@st.composite
def distances_and_radii(draw, distance=st.one_of(st.integers(0, 6), FRACTIONS)):
    """Up to seven points in blocks, with distances drawn per ordered pair
    inside a block (int or Fraction by default) and INF between blocks, the
    table's rows in point order, and radii drawn unsorted and with repeats
    from a small pool that holds some of the distances exactly and some
    drawn int or Fraction values."""
    n = draw(st.integers(min_value=1, max_value=7))
    block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    table = {
        (i, j): draw(distance) if block[i] == block[j] else INF
        for i in range(n)
        for j in range(n)
    }
    finite = sorted({d for d in table.values() if d != INF})
    value = st.one_of(st.integers(0, 6), FRACTIONS)
    pool = finite[:3] + draw(st.lists(value, min_size=1, max_size=2))
    radii = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    pts = points(f"p{i}" for i in range(n))
    rows = [[table[i, j] for j in range(n)] for i in range(n)]
    return pts, (lambda p, q: table[pts.index(p), pts.index(q)]), rows, radii


@given(distances_and_radii())
def test_ball_levels_match_the_definition(case):
    pts, dist, rows, radii = case
    levels = _ball_levels(pts, rows, radii)
    assert len(levels) == len(radii)
    for lv, r in zip(levels, radii):
        assert lv.space == pts
        assert lv.members == tuple(
            frozenset(q for q in pts.ids if dist(p, q) <= r) for p in pts.ids
        )


@given(distances_and_radii(distance=st.integers(0, 6)))
def test_int_distances_give_the_same_balls_under_floored_radii(case):
    pts, _, rows, radii = case
    floored = _int_radii(radii)
    assert all(type(r) is int for r in floored)
    assert [lv.masks for lv in _ball_levels(pts, rows, floored)] == [
        lv.masks for lv in _ball_levels(pts, rows, radii)
    ]


def test_one_point_balls_hold_the_point():
    pts = points(["o"])
    levels = _ball_levels(pts, [[0]], [Fraction(1, 2), 1, 1])
    assert [lv.members for lv in levels] == [(frozenset({"o"}),)] * 3


# generated documents, pinned byte for byte

ROOT = Path(__file__).resolve().parent.parent


_spec = importlib.util.spec_from_file_location(
    "corpus_digest", ROOT / "scripts" / "corpus_digest.py"
)
corpus_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus_digest)


@pytest.mark.parametrize(
    "case, files, digest",
    [
        ("c0 --s-max 3 --box 2", 1,
         "339d662dc70b6e42ae151ec94c80d53f32e9c5ee152d0399e95959be83d3770a"),
        ("c0 --s-max 3 --box 3", 1,
         "0f53ddefbc3b26836f9ebae6f1936608e292c03399afe7224bfcbd5bed9f7cbd"),
        ("c0 --s-max 1 --box 255", 1,
         "43ca5e7afe361dedc5324e13446a030c17a728a624dfcf915edb7832041b53d4"),
        ("c0 --s-max 2 --box 3 --radii 1,3/2,3,12", 1,
         "8ac9669afe264334daae8ac56563171d8524bdf1e9411096c510d849697b4940"),
        ("unit-interval --n-max 16", 21,
         "f0224ef5d51156f2c3f5ee207895c3040de261b88691eac6bbb5a249b8e9e9bb"),
        ("unit-interval --n-max 64", 69,
         "f852245503e65b543074e259d2e83db1ca174d3445d9f4eaaf04f670422e889e"),
        ("disjoint-union --islands 16,16,16,16", 1,
         "9c6ea13d055f59f102baa0c662456f96d9b7976e736afd479ea36e32dbfc0dc6"),
        ("disjoint-union --islands 3,1,2 --radii 1,2", 1,
         "e50a4932c240926811dbff6a9da76105f0e29ed5fc6d3fe53d9fa02acd91b996"),
        ("random --seed 3", 1,
         "d20d05c76b59a7b8855686633b2083daee02106e0917556cbab3f8e0b451bf4f"),
    ],
)
def test_corpus_documents_are_pinned(case, files, digest):
    got, count, _ = corpus_digest.corpus_digest(case.split())
    assert (got, count) == (digest, files)
