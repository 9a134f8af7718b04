"""Star-disjoint selection witnesses and the probe harness."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from coarsekit import DomainError, Verdict
from coarsekit.colimit import Piece, validate_system
from coarsekit.families import points
from coarsekit.invariants import (
    ApcWitness,
    apc_probe,
    apc_search,
    apc_verify,
    colimit_probe_chain,
)
from coarsekit.spaces import validate_space

from builders import fam, line_space, overlap_system


P3 = points(["a", "b", "c"])


def path_abc():
    return validate_space(
        P3,
        [
            fam(P3, {"a"}, {"b"}, {"c"}),
            fam(P3, {"a", "b"}, {"b", "c"}),
            fam(P3, {"a", "b", "c"}),
        ],
    )


def test_single_whole_set_selection_verifies():
    sp = path_abc()
    w = ApcWitness((fam(P3, {"a", "b", "c"}),), (3,))
    assert apc_verify(sp, w).verdict is Verdict.VERIFIED


def test_island_selection_is_star_disjoint():
    pts = points(["a", "b", "c", "d"])
    sp = validate_space(
        pts,
        [
            fam(pts, {"a"}, {"b"}, {"c"}, {"d"}),
            fam(pts, {"a", "b"}, {"c", "d"}),
        ],
    )
    w = ApcWitness((sp.level(2),), (2,))
    assert apc_verify(sp, w).verdict is Verdict.VERIFIED


def test_star_contact_refutes_a_selection():
    sp = path_abc()
    w = ApcWitness((fam(P3, {"a"}, {"b"}, {"c"}),), (1,), chain=(sp.level(2),))
    report = apc_verify(sp, w)
    assert report.verdict is Verdict.REFUTED
    assert any("meet through a star" in c.detail for c in report.failures())


def test_uncovered_point_refutes_a_witness():
    sp = path_abc()
    w = ApcWitness((fam(P3, {"a", "b"}),), (2,))
    report = apc_verify(sp, w)
    assert report.verdict is Verdict.REFUTED
    assert any("'c' is uncovered" in c.detail for c in report.failures())


def test_verify_rejects_malformed_witnesses():
    sp = path_abc()
    with pytest.raises(DomainError, match="at least one"):
        apc_verify(sp, ApcWitness((), ()))
    sel = fam(P3, {"a", "b", "c"})
    with pytest.raises(DomainError, match="one boundedness claim"):
        apc_verify(sp, ApcWitness((sel,), ()))
    with pytest.raises(DomainError, match="prefix exceeds"):
        apc_verify(sp, ApcWitness((sel,) * 4, (3,) * 4))
    with pytest.raises(DomainError, match="chain is shorter"):
        apc_verify(sp, ApcWitness((sel, sel), (3, 3), chain=(sp.level(1),)))


def test_non_monotone_explicit_chains_are_refuted():
    sp = path_abc()
    sel = fam(P3, {"a", "b", "c"})
    w = ApcWitness((sel, sel), (3, 3), chain=(sp.level(3), sp.level(1)))
    report = apc_verify(sp, w)
    assert report.verdict is Verdict.REFUTED
    assert any(c.name == "chain monotone" for c in report.failures())
    assert report.clause("chain monotone").detail == "entry 1 does not refine entry 2"


def test_greedy_search_needs_the_whole_chain_on_a_line():
    sp = line_space([str(i) for i in range(5)])
    # stars at a shared scale keep neighbours apart until the top level
    assert apc_search(sp, sp.levels[:2]).witness is None
    w = apc_search(sp, sp.levels).witness
    assert w is not None
    assert len(w.selections) == 3
    assert apc_verify(sp, w).verdict is Verdict.VERIFIED


def test_singleton_levels_are_their_own_witness():
    sp = path_abc()
    w = apc_search(sp, [sp.level(1)]).witness
    assert w is not None
    assert w.selections[0].members == sp.level(1).members
    assert apc_verify(sp, w).verdict is Verdict.VERIFIED


def test_search_returns_none_when_the_chain_runs_out():
    sp = path_abc()
    # the pair level alone cannot cover: stars block every second member
    assert apc_search(sp, [sp.level(2)]).witness is None


def single_piece_system():
    sp = line_space([str(i) for i in range(5)])
    return validate_system(
        sp.points, [Piece("all", sp)]
    )


def test_probe_on_one_piece_matches_the_piece_search():
    fs = single_piece_system()
    piece = fs.pieces[0]
    outcome = apc_probe(fs)
    direct = apc_search(piece.space, piece.space.levels).witness
    assert (outcome.piece_witnesses[0] is not None) == (direct is not None)
    piece_clause = outcome.report.clauses[0]
    assert piece_clause.ok == (direct is not None)


def test_probe_chain_comes_from_a_top_piece():
    fs = overlap_system()
    chain = colimit_probe_chain(fs)
    assert len(chain) == fs.pieces[2].space.depth
    for entry in chain:
        assert entry.space == fs.ambient
    short = colimit_probe_chain(fs, prefix_len=1)
    assert len(short) == 1


def test_probe_verdicts_never_refute():
    for fs in (single_piece_system(), overlap_system()):
        outcome = apc_probe(fs)
        assert outcome.report.verdict in (Verdict.VERIFIED, Verdict.UNDECIDED)
        found_all = all(w is not None for w in outcome.piece_witnesses) and (
            outcome.colimit_witness is not None
        )
        assert bool(outcome.report) == found_all
        if outcome.colimit_witness is not None:
            assert outcome.colimit_witness.chain == outcome.colimit_chain
            check = apc_verify(fs, outcome.colimit_witness)
            assert check.verdict is Verdict.VERIFIED


def test_probe_budget_zero_is_all_truncation():
    outcome = apc_probe(overlap_system(), budget=0)
    assert outcome.report.verdict is Verdict.UNDECIDED
    assert outcome.colimit_witness is None
    assert all(w is None for w in outcome.piece_witnesses)
    assert all("budget" in c.detail for c in outcome.report.clauses)


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=10)
def test_probe_prefix_lengths_stay_consistent(prefix):
    fs = overlap_system()
    outcome = apc_probe(fs, prefix_len=prefix)
    assert len(outcome.colimit_chain) == min(
        prefix, fs.pieces[2].space.depth
    )
    for w in outcome.piece_witnesses:
        if w is not None:
            assert len(w.selections) <= prefix
