"""Truncation as a library operation: truncate and deepen on spaces, and
deepen_system on systems.

Spaces are the pieces of the corpus systems and the drawn chains of
test_spaces; systems are the corpus systems. A tested family has up to four
members of one to four points, so it is bounded at some levels of a chain and
not at others.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from coarsekit import DomainError
from coarsekit.colimit import deepen_system, validate_system
from coarsekit.documents import doc_to_space, emit_document, space_to_doc
from coarsekit.families import Family
from coarsekit.spaces import deepen, is_bounded, truncate, validate_space

from test_spaces import cover_chains, graded_chains, partition_chains, path3
from test_top_level import corpus


@st.composite
def corpus_spaces(draw):
    fs = draw(st.sampled_from(corpus()))
    return draw(st.sampled_from(fs.pieces)).space


spaces = st.one_of(corpus_spaces(), partition_chains(), cover_chains(), graded_chains())


@st.composite
def spaces_and_families(draw):
    sp = draw(spaces)
    member = st.frozensets(st.sampled_from(sp.points.ids), min_size=1, max_size=4)
    return sp, Family(sp.points, tuple(draw(st.lists(member, max_size=4))))


def assert_round_trips(sp):
    doc = space_to_doc(sp)
    again = doc_to_space(doc.body)
    assert again == sp
    assert emit_document(space_to_doc(again)) == emit_document(doc)


@given(spaces)
def test_truncating_a_deepening_gives_the_space_back(sp):
    assert truncate(deepen(sp), sp.depth) == sp


@given(spaces)
def test_every_truncation_and_deepening_round_trips_to_the_same_bytes(sp):
    deeper = deepen(sp)
    assert deeper.depth == sp.depth + 1
    assert deeper.levels[-1].members == (frozenset(sp.points.ids),)
    assert_round_trips(deeper)
    for j in range(1, sp.depth + 1):
        cut = truncate(sp, j)
        assert cut == validate_space(sp.points, sp.levels[:j])
        assert_round_trips(cut)


@given(spaces_and_families())
def test_deepening_keeps_every_bounding_level_and_bounds_every_family(data):
    sp, f = data
    level = is_bounded(sp, f)
    assert is_bounded(deepen(sp), f) == (sp.depth + 1 if level is None else level)
    for j in range(1, sp.depth + 1):
        within = level is not None and level <= j
        assert is_bounded(truncate(sp, j), f) == (level if within else None)


@pytest.mark.parametrize("j", [0, 4, -1])
def test_truncation_depth_is_checked(j):
    with pytest.raises(DomainError, match=rf"^level {j} out of range 1\.\.3$"):
        truncate(path3(), j)


def test_deepen_system_validates_on_every_corpus_system():
    for fs in corpus():
        deep = deepen_system(fs)
        assert deep.upper == fs.upper
        assert [p.space for p in deep.pieces] == [deepen(p.space) for p in fs.pieces]
        assert validate_system(deep.ambient, deep.pieces, deep.upper) == deep
