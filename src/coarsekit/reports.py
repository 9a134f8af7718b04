"""Clause-separated verdict reports, and the outcome of every witness search.

Every verifier returns a Report. The verdict is verified exactly when all
clauses pass. A failing clause marked as a truncation limit makes the verdict
undecided-at-truncation; any other failing clause makes it refuted.

A check with nothing to say when it passes returns its first offense or
None, and offense_clause words it. SearchOutcome.clause words every
truncation limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional


class Verdict(str, Enum):
    VERIFIED = "verified"
    REFUTED = "refuted"
    UNDECIDED = "undecided-at-truncation"


@dataclass(frozen=True)
class Clause:
    name: str
    ok: bool
    detail: str = ""
    truncation: bool = False


@dataclass(frozen=True)
class Report:
    verdict: Verdict
    clauses: tuple[Clause, ...] = ()

    def __bool__(self) -> bool:
        return self.verdict is Verdict.VERIFIED

    def clause(self, name: str) -> Clause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if not c.ok)


def offense_clause(name: str, offense: Optional[str]) -> Clause:
    """A check's clause from its first offense: None passes with an empty
    detail, and any text, even an empty one, fails with it as the detail."""
    return Clause(name, offense is None, offense or "")


def from_clauses(clauses) -> Report:
    clauses = tuple(clauses)
    bad = [c for c in clauses if not c.ok]
    if not bad:
        return Report(Verdict.VERIFIED, clauses)
    if all(c.truncation for c in bad):
        return Report(Verdict.UNDECIDED, clauses)
    return Report(Verdict.REFUTED, clauses)


@dataclass(frozen=True)
class SearchOutcome:
    """How a witness search ended, in one of three cases:

    - found: ``witness`` is set, and ``report`` is the report its verifier
      gave when the search checked it (None for a search that does not);
    - exhausted: the search space is complete and holds no witness;
      ``detail`` states that absence as a fact, and the claim refuted is its
      negation, that some witness exists;
    - stopped: no witness, and ``detail`` names what ran out or why the
      search space is incomplete; this decides nothing.
    """

    witness: Any = None
    report: Optional[Report] = None
    detail: str = ""
    exhausted: bool = False

    def clause(self, name: str) -> Clause:
        """The failing clause of an outcome without a witness: a refutation
        when the search space was exhausted, a truncation limit otherwise."""
        return Clause(name, False, self.detail, truncation=not self.exhausted)


def checked(witness: Any, report: Report, rejected: str) -> SearchOutcome:
    """Found when the verifier's report on the search's candidate verifies it,
    else stopped with the reason rejected: a rejection decides nothing."""
    return SearchOutcome(witness, report) if report else SearchOutcome(detail=rejected)
