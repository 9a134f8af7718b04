"""How a check's first offense, and a claimed bound that fails, are worded."""

from __future__ import annotations

from coarsekit.colimit import ColimitBoundedness, Piece, validate_system
from coarsekit.families import family, points
from coarsekit.invariants.common import bound_clause
from coarsekit.reports import Clause, Verdict, from_clauses, offense_clause
from coarsekit.spaces import validate_space


def test_an_offense_clause_passes_on_none_and_fails_on_any_text():
    assert offense_clause("check", None) == Clause("check", True, "", truncation=False)
    for offense in ("point 'a' is uncovered", ""):
        clause = offense_clause("check", offense)
        assert clause == Clause("check", False, offense, truncation=False)
        assert from_clauses([clause]).verdict is Verdict.REFUTED


def test_a_claimed_bound_that_does_not_check_fails_with_its_detail():
    pts = points(["a", "b"])
    sp = validate_space(pts, [family(pts, [{"a"}, {"b"}]), family(pts, [{"a", "b"}])])
    pair = family(pts, [{"a", "b"}])
    system = validate_system(pts, [Piece("all", sp)])
    failed = Clause("pair bounded", False, "claimed boundedness certificate does not check")
    assert bound_clause("pair bounded", sp, pair, 1) == failed
    assert bound_clause("pair bounded", system, pair, ColimitBoundedness(0, 1)) == failed
    assert bound_clause("pair bounded", sp, pair, 2).ok
