"""Chain-wide and system-wide answers read the top level, of the top piece
for a system; the oracles ask every level of every piece instead.

Systems come from the corpus generators and from deep_piece_systems, whose
pieces cut one shared chain and may gain extra members; drawn systems that
fail validation are skipped. Each piece chain is also asked through each of
its prefixes, themselves monotone covering chains. A tested set holds two
to six points, so it is weakly bounded in some chains and not in others.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import assume, given, strategies as st

from coarsekit import ValidationError
from coarsekit.colimit import system_weakly_bounded
from coarsekit.corpus import gen_c0, gen_disjoint_union, gen_random_system, gen_unit_interval
from coarsekit.families import points
from coarsekit.invariants import geometry_cap
from coarsekit.maps import path_metric
from coarsekit.spaces import coarse_components, validate_space, weakly_bounded

import oracles
from test_chain_masks import deep_piece_systems, validate_built


@lru_cache(maxsize=None)
def corpus() -> tuple:
    islands = [
        [path_metric(points([f"i{k}p{j}" for j in range(size)])) for k, size in enumerate(combo)]
        for combo in ((2, 3), (1, 4), (2, 2, 2))
    ]
    return (
        gen_c0(2, 2),
        gen_c0(3, 1),
        gen_c0(2, 3),
        gen_unit_interval(8).system,
        gen_unit_interval(16).system,
        *map(gen_disjoint_union, islands),
        *map(gen_random_system, range(200)),
    )


@st.composite
def systems_and_sets(draw):
    kind = draw(st.sampled_from(["generated", "random", "deep"]))
    if kind != "deep":
        fs = draw(st.sampled_from(corpus()[:8] if kind == "generated" else corpus()[8:]))
    else:
        try:
            fs = validate_built(*draw(deep_piece_systems()))
        except ValidationError:
            assume(False)
    b = draw(st.sets(st.sampled_from(fs.ambient.ids), min_size=2, max_size=6))
    return fs, frozenset(b)


def components(ids, pool):
    return tuple(oracles.from_mask(ids, block) for block in oracles.components_masks(pool))


@given(systems_and_sets())
def test_top_level_answers_match_every_level(data):
    fs, b = data
    prefixes = (pc.space.levels[:d] for pc in fs.pieces for d in range(1, pc.space.depth + 1))
    for sp in (validate_space(levels[0].space, levels) for levels in prefixes):
        ids = sp.points.ids
        pool = oracles.all_level_masks(ids, [lv.members for lv in sp.levels])
        assert coarse_components(sp) == components(ids, pool)
        assert weakly_bounded(sp, b & set(ids)) == oracles.weakly_bounded_masks(
            pool, oracles.to_mask(ids, b & set(ids))
        )
        assert geometry_cap(sp) == oracles.largest_member_masks(pool)

    ids = fs.ambient.ids
    levels = [lv.members for pc in fs.pieces for lv in pc.space.levels]
    pool = oracles.all_level_masks(ids, levels)
    assert coarse_components(fs.pieces[fs.top_piece()].space) == components(ids, pool)
    assert system_weakly_bounded(fs, b) == oracles.weakly_bounded_masks(
        pool, oracles.to_mask(ids, b)
    )
    assert geometry_cap(fs) == oracles.largest_member_masks(pool)
