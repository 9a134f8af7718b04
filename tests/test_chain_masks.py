"""The chain check, and system validation on deep chains, against the
brute-force oracles.

Chains are drawn as member masks in which only some consecutive levels
refine: each level either grows every member of the level before by a point,
in a shuffled order, or is drawn afresh. Members may be empty or repeated, and a
level may leave points uncovered, so cover faults and monotonicity faults
interleave. Deep piece systems cut one shared chain to each carrier.

A space checks its chain when it is built, so a drawn piece that may be
faulty keeps its raw parts: its ``space`` is a Chain of points and levels,
and validate_built builds the spaces inside the call under test.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from coarsekit import DomainError, ValidationError
from coarsekit.colimit import Piece, validate_system
from coarsekit.documents import doc_to_space, doc_to_system
from coarsekit.families import Family, PointSet, points
from coarsekit.spaces import ScaledSpace, validate_space

import oracles


class Chain(NamedTuple):
    """The unchecked parts of a space."""

    points: PointSet
    levels: tuple[Family, ...]


def validate_built(ambient, pieces):
    """validate_system on the pieces, each space built, so checked, from the
    points and levels of its Chain or space."""
    return validate_system(
        ambient, [Piece(p.name, ScaledSpace(p.space.points, p.space.levels)) for p in pieces]
    )


@st.composite
def mixed_chains(draw, width, min_levels, max_levels, grow_only=False):
    """Per-level lists of member masks over ``width`` points. With
    ``grow_only`` every level grows the one before, and the first holds
    every singleton, so the chain covers and is monotone."""
    member = st.integers(0, (1 << width) - 1)
    levels = [draw(st.lists(member, max_size=5))]
    if grow_only:
        levels[0] += [1 << k for k in range(width)]
    for _ in range(draw(st.integers(min_levels, max_levels)) - 1):
        if grow_only or draw(st.booleans()):
            grown = [m | 1 << draw(st.integers(0, width - 1)) for m in levels[-1]]
            levels.append(draw(st.permutations(grown)) + draw(st.lists(member, max_size=1)))
        else:
            levels.append(draw(st.lists(member, max_size=5)))
    return levels


def with_singletons(draw, levels, width):
    """Each level, or some of them, with every singleton added."""
    singles = [1 << k for k in range(width)]
    return [lv + singles if draw(st.booleans()) else lv for lv in levels]


def chain_oracle(ids, levels):
    """The message of the first chain fault, covers before monotonicity."""
    for i, lv in enumerate(levels, 1):
        covered = 0
        for m in lv:
            covered |= m
        missing = [p for k, p in enumerate(ids) if not covered >> k & 1]
        if missing:
            return f"level {i} does not cover: point {missing[0]!r} is in no member"
    for i in range(len(levels) - 1):
        if not oracles.refines_masks(levels[i], levels[i + 1]):
            return f"chain not monotone: level {i + 1} does not refine level {i + 2}"
    return None


def scales_body(ids, levels):
    return [[sorted(oracles.from_mask(ids, m)) for m in lv] for lv in levels]


def outcome(fn, *args):
    try:
        fn(*args)
    except ValidationError as exc:
        return str(exc)
    return None


def chain_fault(piece):
    """The oracle's first fault of the piece's chain, or None."""
    return chain_oracle(piece.space.points.ids, [lv.masks for lv in piece.space.levels])


def coincidence_oracle(ids, a, b, inter):
    """First (side, level) at which one chain, restricted to the inter mask
    with empties dropped, essentially refines no level of the other."""

    def cut(space):
        return [
            [r for m in lv.members if (r := oracles.to_mask(ids, m) & inter)]
            for lv in space.levels
        ]

    ca, cb = cut(a), cut(b)
    for side, xs, ys in (("first", ca, cb), ("second", cb, ca)):
        for i, lx in enumerate(xs, 1):
            if not any(oracles.essentially_refines_masks(lx, ly) for ly in ys):
                return side, i
    return None


def pairwise_first_failure(ambient, pieces):
    """The error text for the first overlapping pair, in index order, whose
    chains fail the coincidence oracle on their overlap, or None."""
    ids = ambient.ids
    for r in range(len(pieces)):
        for s in range(r + 1, len(pieces)):
            a, b = pieces[r], pieces[s]
            inter = frozenset(a.space.points) & frozenset(b.space.points)
            want = inter and coincidence_oracle(ids, a.space, b.space, oracles.to_mask(ids, inter))
            if want:
                side, lvl = want
                owner = a.name if side == "first" else b.name
                return (
                    f"restrictions of pieces {a.name} and {b.name} do not coincide: "
                    f"level {lvl} of {owner} restricted to the intersection "
                    f"essentially refines no level of the other"
                )
    return None


def system_body(ambient, pieces):
    return {
        "ambient": list(ambient.ids),
        "pieces": [
            {
                "name": p.name,
                "carrier": list(p.space.points.ids),
                "scales": [
                    [list(p.space.points.points_of(m)) for m in lv.masks] for lv in p.space.levels
                ],
            }
            for p in pieces
        ],
    }


@st.composite
def chains(draw):
    ids = tuple(str(k) for k in range(draw(st.integers(1, 6))))
    levels = with_singletons(draw, draw(mixed_chains(len(ids), 1, 6)), len(ids))
    return ids, levels


@given(chains())
@example((("1", "2", "3"), [[0b111], [0b001, 0b010, 0b100]]))
@settings(max_examples=400)
def test_chain_check_matches_the_oracle(data):
    ids, levels = data
    pts = points(ids)
    fams = [Family(pts, tuple(oracles.from_mask(ids, m) for m in lv)) for lv in levels]
    want = chain_oracle(ids, levels)
    assert outcome(ScaledSpace, pts, tuple(fams)) == want
    assert outcome(validate_space, pts, fams) == want
    assert outcome(doc_to_space, {"points": list(ids), "scales": scales_body(ids, levels)}) == want


@pytest.mark.parametrize("make", [ScaledSpace, validate_space])
def test_a_space_needs_a_level_over_its_own_points(make):
    pts = points("ab")
    with pytest.raises(ValidationError, match="^a scaled space needs at least one level$"):
        make(pts, ())
    whole = Family(pts, (frozenset("ab"),))
    other = Family(points("abc"), (frozenset("abc"),))
    with pytest.raises(DomainError, match="^level 2 is not over the space's point set$"):
        make(pts, (whole, other))


@st.composite
def deep_piece_systems(draw, mixed=False):
    """Two or three pieces over at most 7 points, one of them carrying all,
    each cutting to its carrier a prefix of one shared grown chain of 4 to 6
    levels; a piece may gain one extra member on one level and every level
    after it. Every chain covers and is monotone. With ``mixed`` the shared
    chain is sometimes drawn as in mixed_chains, so a piece's chain may miss
    points or fail to refine upward. Each piece's space is a Chain."""
    ids = tuple(str(k) for k in range(draw(st.integers(2, 7))))
    width = len(ids)
    grow_only = not mixed or draw(st.booleans())
    base = draw(mixed_chains(width, 4, 6, grow_only=grow_only))
    n = draw(st.integers(2, 3))
    top = draw(st.integers(0, n - 1))
    pieces = []
    for k in range(n):
        carrier = (1 << width) - 1 if k == top else draw(st.integers(1, (1 << width) - 1))
        depth = draw(st.integers(1, len(base)))
        levels = [[m & carrier for m in lv if m & carrier] for lv in base[:depth]]
        if draw(st.booleans()):
            extra = draw(st.integers(0, (1 << width) - 1)) & carrier
            for lv in levels[draw(st.integers(0, depth - 1)):]:
                lv.append(extra)
        pts = points(p for j, p in enumerate(ids) if carrier >> j & 1)
        members = [tuple(oracles.from_mask(ids, m) for m in lv) for lv in levels]
        pieces.append(Piece(f"P{k}", Chain(pts, tuple(Family(pts, lv) for lv in members))))
    return points(ids), pieces


@given(deep_piece_systems(mixed=True))
@settings(max_examples=400)
def test_cofinal_coincidence_matches_the_oracle(data):
    """On deep chains, where coincidence compares only top levels,
    validate_system and the decoder give the oracle's first chain fault,
    else the first pair that a pairwise scan finds failing."""
    ambient, pieces = data
    want = next(filter(None, map(chain_fault, pieces)), None)
    want = want or pairwise_first_failure(ambient, pieces)
    assert outcome(validate_built, ambient, pieces) == want
    assert outcome(doc_to_system, system_body(ambient, pieces)) == want


def test_deep_piece_systems_reach_every_outcome():
    """Drawn systems pass and fail on a pair, and no chain is faulty."""
    seen = set()

    @given(deep_piece_systems())
    @settings(max_examples=300, database=None, derandomize=True)
    def record(data):
        got = outcome(validate_built, *data)
        pair = got is not None and got.startswith("restrictions of pieces ")
        seen.add("pair fails" if pair else got or "pairs pass")

    record()
    assert seen == {"pair fails", "pairs pass"}
