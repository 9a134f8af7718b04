"""Exception types shared across the toolkit, and the guard that keeps
numbers too long to print out of their messages.

The split matters for verdict semantics: a TruncationError means the finite
truncation ran out of chain or star depth and the question is undecided, which
is never the same thing as a refutation.
"""

from __future__ import annotations

import sys


class CoarseError(Exception):
    pass


class DomainError(CoarseError):
    """Inputs do not live over the expected point set, or a precondition fails."""


class ValidationError(CoarseError):
    """A space or system violates one of its structural invariants."""


class TruncationError(CoarseError):
    """The operation needs more chain or star depth than this truncation has."""


class ParseError(CoarseError):
    """A document is malformed or violates its schema."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def number_text(x) -> str:
    """The text of a number for a message or a clause detail.

    A number with more digits than Python converts to text (see
    ``sys.get_int_max_str_digits``) can only come from oversized input, so
    it raises DomainError.
    """
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"a reported number has more than {limit} digits") from None
