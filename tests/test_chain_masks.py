"""The chain check and the cofinal reduction against the brute-force oracles.

Chains are drawn as member masks in which only some consecutive levels
refine: each level either grows every member of the level before by a point,
in a shuffled order, or is drawn afresh. Members may be empty or repeated, and a
level may leave points uncovered, so cover faults, monotonicity faults and
levels that the coincidence check may drop all interleave.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from coarsekit import ValidationError
from coarsekit.colimit import Piece, validate_system
from coarsekit.documents import doc_to_space, doc_to_system
from coarsekit.families import Family, points
from coarsekit.spaces import ScaledSpace, cofinal_levels, validate_space

import oracles
from test_colimit import coincidence_oracle


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


@st.composite
def chains(draw):
    ids = tuple(str(k) for k in range(draw(st.integers(1, 6))))
    levels = with_singletons(draw, draw(mixed_chains(len(ids), 1, 6)), len(ids))
    return ids, levels


@given(chains())
@settings(max_examples=400)
def test_chain_check_matches_the_oracle(data):
    ids, levels = data
    pts = points(ids)
    fams = [Family(pts, tuple(oracles.from_mask(ids, m) for m in lv)) for lv in levels]
    want = chain_oracle(ids, levels)
    assert outcome(validate_space, pts, fams) == want
    assert outcome(doc_to_space, {"points": list(ids), "scales": scales_body(ids, levels)}) == want


@given(chains())
def test_cofinal_levels_are_the_levels_that_do_not_refine(data):
    _, levels = data
    steps = range(len(levels) - 1)
    want = [i for i in steps if not oracles.refines_masks(levels[i], levels[i + 1])]
    assert cofinal_levels(levels) == want + [len(levels) - 1]


@st.composite
def deep_piece_systems(draw):
    """Two or three pieces over at most 7 points, one of them carrying all,
    each cutting to its carrier a prefix of 4 to 6 levels of one shared
    chain; a piece may gain one extra member on one level. Sometimes every
    level of the shared chain grows the one before, so that whole systems
    also decode."""
    ids = tuple(str(k) for k in range(draw(st.integers(2, 7))))
    width = len(ids)
    base = draw(mixed_chains(width, 4, 6, grow_only=draw(st.booleans())))
    n = draw(st.integers(2, 3))
    top = draw(st.integers(0, n - 1))
    pieces = []
    for k in range(n):
        carrier = (1 << width) - 1 if k == top else draw(st.integers(1, (1 << width) - 1))
        depth = draw(st.integers(4, len(base)))
        levels = [[m & carrier for m in lv if m & carrier] for lv in base[:depth]]
        if draw(st.booleans()):
            extra = draw(st.integers(0, (1 << width) - 1)) & carrier
            levels[draw(st.integers(0, len(levels) - 1))].append(extra)
        cut_ids = [p for j, p in enumerate(ids) if carrier >> j & 1]
        singles = [1 << j for j in range(width) if carrier >> j & 1]
        levels = [lv + singles if draw(st.booleans()) else lv for lv in levels]
        pieces.append((f"P{k}", carrier, cut_ids, levels))
    return ids, pieces


def system_oracle(ids, pieces):
    """The message of the first pair whose restrictions do not coincide."""
    for r in range(len(pieces)):
        for s in range(r + 1, len(pieces)):
            inter = pieces[r][1] & pieces[s][1]
            if not inter:
                continue
            a, b = space_of(ids, pieces[r]), space_of(ids, pieces[s])
            failure = coincidence_oracle(ids, a, b, inter)
            if failure is not None:
                side, lvl = failure
                names = pieces[r][0], pieces[s][0]
                owner = names[0] if side == "first" else names[1]
                return (
                    f"restrictions of pieces {names[0]} and {names[1]} do not coincide: "
                    f"level {lvl} of {owner} restricted to the intersection "
                    f"essentially refines no level of the other"
                )
    return None


def space_of(ids, piece):
    """The piece's chain as a space built directly, unchecked."""
    _, _, cut_ids, levels = piece
    pts = points(cut_ids)
    members = [[oracles.from_mask(ids, m) for m in lv] for lv in levels]
    return ScaledSpace(pts, tuple(Family(pts, tuple(lv)) for lv in members))


def chain_fault(ids, piece):
    """The first chain fault of the piece, over its own point order."""
    _, _, cut_ids, levels = piece
    local = [[oracles.to_mask(cut_ids, oracles.from_mask(ids, m)) for m in lv] for lv in levels]
    return chain_oracle(cut_ids, local)


@given(deep_piece_systems())
@settings(max_examples=400)
def test_cofinal_coincidence_matches_the_oracle(data):
    ids, pieces = data
    ambient = points(ids)
    want = system_oracle(ids, pieces)
    built = [Piece(p[0], oracles.from_mask(ids, p[1]), space_of(ids, p)) for p in pieces]
    assert outcome(validate_system, ambient, built) == want

    # the decoder checks each chain first, then the system on its top levels
    fault = next(filter(None, (chain_fault(ids, p) for p in pieces)), None)
    want = fault or want
    body = {
        "ambient": list(ids),
        "pieces": [
            {"name": name, "carrier": cut_ids, "scales": scales_body(ids, levels)}
            for name, _, cut_ids, levels in pieces
        ],
    }
    assert outcome(doc_to_system, body) == want


def test_deep_piece_systems_reach_every_outcome():
    """Drawn systems pass and fail, with dropped and kept levels interleaved
    in a chain, and decoded systems pass and fail on a pair too."""
    seen = set()

    @given(deep_piece_systems())
    @settings(max_examples=300, database=None, derandomize=True)
    def record(data):
        ids, pieces = data
        pair = system_oracle(ids, pieces) is not None
        seen.add("pair fails" if pair else "pairs pass")
        if any(1 < len(cofinal_levels(p[3])) < len(p[3]) for p in pieces):
            seen.add("interleaved")
        if not any(chain_fault(ids, p) for p in pieces):
            seen.add("decoded pair fails" if pair else "decoded pairs pass")

    record()
    assert seen == {
        "pair fails", "pairs pass", "interleaved", "decoded pair fails", "decoded pairs pass"
    }

