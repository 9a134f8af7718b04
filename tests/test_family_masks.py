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
from coarsekit.cli import main
from coarsekit.colimit import Piece, validate_system
from coarsekit.corpus import gen_disjoint_union
from coarsekit.documents import (
    Document,
    emit_document,
    map_to_doc,
    metric_to_doc,
    space_to_doc,
    system_to_doc,
)
from coarsekit.families import (
    Family,
    bits,
    covers,
    cut,
    essentially_refines,
    horizon_indices,
    points,
    reroot,
    star_family,
    uncovered_point,
)
from coarsekit.maps import grounded_map, identity_map, path_metric
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
    _, u = data
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


@given(families(count=2))
def test_essential_refinement_agrees_on_mask_built_and_checked_families(data):
    _, u, v = data
    for fu, fv in ((u, v), (checked(u), checked(v))):
        assert essentially_refines(fu, fv) == oracles.essentially_refines_masks(
            list(u.masks), list(v.masks)
        )


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


@given(st.integers(0, (1 << 70) - 1))
def test_bits_walks_the_set_bits_in_increasing_order(mask):
    assert bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def point_masks(draw):
    """A point set of 1 to 600 points, named against their order, and a mask
    over it: empty, one bit, the top bit, sparse (up to a few bits past the
    dense/sparse crossover of ``points_of``), full, full but for a few bits,
    or any."""
    n = draw(st.integers(1, 600))
    full = (1 << n) - 1
    few = st.lists(st.integers(0, n - 1), max_size=(n + 96) // 16 + 3)
    mask = draw(
        st.one_of(
            st.just(0),
            st.integers(0, n - 1).map((1).__lshift__),
            st.just(1 << n - 1),
            few.map(lambda ix: sum({1 << i for i in ix})),
            st.just(full),
            few.map(lambda ix: full & ~sum({1 << i for i in ix})),
            st.integers(0, full),
        )
    )
    return tuple(str(n - i) for i in range(n)), mask


@given(point_masks())
def test_points_of_names_the_set_bits_in_point_order(case):
    ids, mask = case
    got = points(ids).points_of(mask)
    assert got == oracles.ordered_from_mask(ids, mask)
    assert frozenset(got) == oracles.from_mask(ids, mask)


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
    for _ in range(draw(st.integers(0, 3))):
        levels.append(tuple(m | draw(st.integers(0, full)) for m in levels[-1]))
    fams = [Family.from_masks(space, lv) for lv in levels]
    return validate_space(space, fams), draw(mask_lists(len(space)))


@given(chains(), st.integers(1, 6))
def test_is_bounded_is_the_least_essentially_refined_level(data, start):
    """From level 1 and from any later start, past the depth too, where no
    level is left to bound the family."""
    sp, fmasks = data
    f = Family.from_masks(sp.points, tuple(fmasks))
    least = [
        i
        for i, lv in enumerate(sp.levels, 1)
        if oracles.essentially_refines_masks(fmasks, list(lv.masks))
    ]
    want = next(iter(least), None)
    assert is_bounded(sp, f) == want
    assert is_bounded(sp, checked(f)) == want
    assert is_bounded(sp, f, start=start) == next((i for i in least if i >= start), None)


def test_is_bounded_refuses_a_start_below_level_one():
    sp = validate_space(points("ab"), [Family.from_masks(points("ab"), (3,))])
    with pytest.raises(DomainError, match="^start level 0 is below 1$"):
        is_bounded(sp, Family.from_masks(sp.points, (3,)), start=0)


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


def test_reroot_moves_repeated_members_and_names_the_first_stray_point():
    """Each distinct member is moved once, in member order, so the point
    reported is that of the first member that does not fit."""
    space, wider = points("abcd"), points("dcba")
    u = Family.from_masks(space, (0b0011, 0b1100, 0b0011, 0b0011))
    assert reroot(u, wider).masks == (0b1100, 0b0011, 0b1100, 0b1100)
    stray = Family.from_masks(space, (0b0100, 0b1000, 0b0100))
    with pytest.raises(DomainError) as exc:
        reroot(stray, points("ab"))
    assert str(exc.value) == "member point 'c' outside the point set"


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


# the frozenset forms are the API edge: no command reaches them


def _spy_inputs(tmp_path) -> list[tuple[list[str], int]]:
    """Command lines with their exit codes, covering every command, each of
    its generators, invariants and map checks, over small paths."""

    def save(name, kind, body):
        path = tmp_path / name
        path.write_text(emit_document(Document(kind, "1", body)), encoding="utf-8")
        return str(path)

    def save_doc(name, doc):
        return save(name, doc.kind, doc.body)

    fs = gen_disjoint_union([path_metric(points("ab")), path_metric(points("cd"))])
    ambient = list(fs.ambient.ids)  # 0:a 0:b 1:c 1:d
    system = save_doc("sys.json", system_to_doc(fs))
    piece = save_doc("m0.json", space_to_doc(fs.pieces[0].space))
    pair = save("pair.json", "family", {"points": ambient, "members": [["0:a", "0:b"]]})
    other = save("other.json", "family", {"points": ambient, "members": [["1:c"], ["0:b"]]})
    witnesses = {
        "asdim": {"scale": {"level": 1}, "coarsening": [["0:a", "0:b"]]},
        "exactness": {
            "scale": {"level": 1},
            "eps": 1,
            "indices": ["u"],
            "weights": {"0:a": {"u": 1}, "0:b": {"u": 1}},
        },
        "pinch": {
            "scale": {"level": 1},
            "sep": [["0:a", "0:b"]],
            "c": 1,
            "eps": 1,
            "dim": 1,
            "coords": {"0:a": [0], "0:b": [0]},
        },
        "amenability": {
            "scale": {"level": 1},
            "companion": [["0:a", "0:b"], ["0:a", "0:b"]],
            "eps": "1/2",
        },
        "property-a": {
            "scale": [["0:a"], ["0:b"]],
            "support": [["0:a"], ["0:b"]],
            "eps": "1/2",
            "n_cap": 1,
            "sets": {"0:a": [["0:a", 1]], "0:b": [["0:b", 1]]},
        },
    }
    u = save(
        "u.json",
        "family",
        {"points": ambient, "members": [["0:a", "0:b"], ["0:a", "0:b"], ["1:c"], ["1:d"]]},
    )
    argvs = [
        ["corpus", "c0", "--s-max", "2", "--box", "1"],
        ["corpus", "unit-interval", "--n-max", "4"],
        ["corpus", "disjoint-union", "--islands", "2,3"],
        ["corpus", "random", "--seed", "3"],
    ]
    argvs = [[*a, "--out-dir", str(tmp_path / a[1])] for a in argvs]
    argvs += [
        ["validate", system],
        ["validate", piece],
        ["bounded", system, pair],
        ["star", system, pair, other],
        ["probe", "apc", system],
        ["check", "asdim", piece, "--n", "0", "--search", "--level", "1"],
    ]
    for inv, body in witnesses.items():
        kind = "witness:" + inv.replace("-", "_")
        w = save(f"{inv}.json", kind, body)
        lifted = str(tmp_path / f"{inv}-lifted.json")
        extra = ["--n", "0"] if inv == "asdim" else []
        lift = ["lift", inv, system, "--piece", "M0", "--witness", w, "-o", lifted, *extra]
        if inv == "amenability":
            lift += ["--input", u]
        argvs += [lift, ["check", inv, piece, "--witness", w, *extra]]
        argvs.append(["check", inv, system, "--witness", lifted, *extra])

    pts = points("012")
    line = validate_space(
        pts, [Family.from_masks(pts, (0b011, 0b111, 0b110)), Family.from_masks(pts, (0b111,) * 3)]
    )
    src = save_doc("line.json", space_to_doc(line))
    ident = save_doc("id.json", map_to_doc(identity_map(pts)))
    const = save_doc("const.json", map_to_doc(grounded_map(pts, pts, dict.fromkeys("012", "0"))))
    target = path_metric(points("xyz"))
    metric = save_doc("metric.json", metric_to_doc(target))
    spread = grounded_map(pts, target.points, dict(zip("012", "xyz")))
    spread = save_doc("spread.json", map_to_doc(spread))
    lsys = system_to_doc(validate_system(pts, [Piece("all", line)]))
    lsys = save_doc("lsys.json", lsys)
    scale = save("scale.json", "family", {"points": list("012"), "members": [["0", "1"], ["2"]]})
    bset = save("b.json", "family", {"points": list("012"), "members": [["0"], ["1", "0"]]})
    so = ["map-check", "so", src, metric, spread, "--eps", "1", "--level", "1"]
    refuted = [*so, "--witness-set", bset]  # {0, 1, 2} spreads over x..z
    argvs += [
        ["map-check", "bornologous", src, src, ident],
        ["map-check", "bornologous", lsys, src, const],
        ["map-check", "close", src, ident, const],
        [*so, "--search", "-o", str(tmp_path / "b-found.json")],
        refuted,
        ["map-check", "so", lsys, metric, spread, "--eps", "1"]
        + ["--scale", scale, "--witness-set", bset],
    ]
    return [(argv, 1 if argv is refuted else 0) for argv in argvs]


def test_commands_never_reach_the_frozenset_forms(tmp_path, monkeypatch):
    """Counts every checked construction and every read of the members view
    (iteration included) while each command runs; library code builds and
    reads families as masks only."""
    cases = _spy_inputs(tmp_path)
    uses = []
    real_init, real_members = Family.__init__, Family.__dict__["members"].func

    def init(self, *args):
        uses.append("Family(...)")
        real_init(self, *args)

    def members(self):
        uses.append(".members")
        return real_members(self)

    monkeypatch.setattr(Family, "__init__", init)
    monkeypatch.setattr(Family, "members", property(members))
    for argv, code in cases:
        assert main(argv) == code, argv
        assert not uses, (argv, uses)
