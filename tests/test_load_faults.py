"""Space and system decoding faults: which error a load reports, and where.

Each case takes a valid space or system body, makes one or more changes to
it and pins the error class, message and path that ``doc_to_space`` or
``doc_to_system`` raises. The single-fault cases pin every message of the
two decoders; the multi-fault cases pin the order in which a load checks:
every scale of a chain is parsed before any level's cover is checked, every
level's cover before any monotonicity, each piece in full before the next,
every piece before the upper triples and the meta lines, and those before
the system-wide checks, which include the range of each upper entry and a
pair named again in reverse order.
"""

from __future__ import annotations

import copy

import pytest

from coarsekit import ParseError, ValidationError
from coarsekit.documents import doc_to_space, doc_to_system

SPACE = {
    "points": ["a", "b", "c", "d"],
    "scales": [
        [["a"], ["b"], ["c"], ["d"]],
        [["a", "b"], ["c", "d"]],
        [["a", "b", "c", "d"]],
    ],
}

SYSTEM = {
    "ambient": ["a", "b", "c", "d"],
    "pieces": [
        {
            "name": "P0",
            "carrier": ["a", "b", "c"],
            "scales": [[["a"], ["b"], ["c"]], [["a", "b", "c"]]],
        },
        {
            "name": "P1",
            "carrier": ["b", "c", "d"],
            "scales": [[["b"], ["c"], ["d"]], [["b", "c", "d"]]],
        },
        {
            "name": "P2",
            "carrier": ["a", "b", "c", "d"],
            "scales": [[["a"], ["b"], ["c"], ["d"]], [["a", "b", "c", "d"]]],
        },
    ],
    "upper": [[0, 1, 2]],
    "meta": ["note"],
}

DECODERS = {"space": (doc_to_space, SPACE), "system": (doc_to_system, SYSTEM)}
DROP = object()
NOT_MONOTONE = [[["a", "b"], ["c", "d"]], [["a"], ["b"], ["c"], ["d"]], [["a", "b", "c", "d"]]]
NO_D = [["a", "b"], ["c"]]
ABC = [[["a", "b", "c"]]]
BC_D = [[["b", "c"], ["d"]], [["b", "c", "d"]]]


def coincide(r, s, level, owner):
    return ValidationError(
        f"restrictions of pieces {r} and {s} do not coincide: level {level} of {owner} "
        f"restricted to the intersection essentially refines no level of the other"
    )


def uncovered(level, point):
    return ValidationError(f"level {level} does not cover: point {point!r} is in no member")


NOT_REFINED = ValidationError("chain not monotone: level 1 does not refine level 2")
NOT_STRINGS = ParseError("expected a list of strings", "body.scales[1][0]")

# (decoder, {dotted key path: new value, or DROP}, the error it raises); the
# empty key path replaces the whole body
SINGLE = [
    ("space", {"": []}, ParseError("expected an object", "body")),
    ("space", {"points": DROP}, ParseError("missing field 'points'", "body")),
    ("space", {"extra": 1}, ParseError("unknown field 'extra'", "body")),
    ("space", {"points": "abcd"}, ParseError("expected a list of strings", "body.points")),
    ("space", {"points": []}, ParseError("point set must be non-empty", "body.points")),
    ("space", {"points": ["a", "a"]}, ParseError("duplicate point id 'a'", "body.points")),
    ("space", {"scales": []}, ValidationError("a scaled space needs at least one level")),
    ("space", {"scales.1": "ab"}, ParseError("expected a list of members", "body.scales[1]")),
    ("space", {"scales.1.0": "ab"}, NOT_STRINGS),
    ("space", {"scales.1.0": ["a", 1]}, NOT_STRINGS),
    ("space", {"scales.1.0": [["a"]]}, NOT_STRINGS),
    (
        "space",
        {"scales.1.1": ["c", "x", "y"]},
        ParseError("unknown point 'x'", "body.scales[1][1]"),
    ),
    ("space", {"scales.1": NO_D}, uncovered(2, "d")),
    ("space", {"scales.0": [["a"], ["b"]]}, uncovered(1, "c")),
    ("space", {"scales": NOT_MONOTONE}, NOT_REFINED),
    ("system", {"ambient": 3}, ParseError("expected a list of strings", "body.ambient")),
    ("system", {"pieces": []}, ParseError("expected a non-empty list of pieces", "body.pieces")),
    (
        "system",
        {"pieces.1.scales": DROP},
        ParseError("missing field 'scales'", "body.pieces[1]"),
    ),
    (
        "system",
        {"pieces.1.name": 7},
        ParseError("piece name must be a string", "body.pieces[1].name"),
    ),
    (
        "system",
        {"pieces.1.carrier": ["b", "x"]},
        ParseError("unknown point 'x'", "body.pieces[1].carrier"),
    ),
    (
        "system",
        {"pieces.1.carrier": ["b", "c", "b"]},
        ParseError("duplicate point id 'b'", "body.pieces[1].carrier"),
    ),
    (
        "system",
        {"pieces.1.carrier": []},
        ParseError("point set must be non-empty", "body.pieces[1].carrier"),
    ),
    (
        "system",
        {"pieces.1.scales.1.0": ["b", "a"]},
        ParseError("unknown point 'a'", "body.pieces[1].scales[1][0]"),
    ),
    ("system", {"pieces.1.scales.1": [["b", "c"]]}, uncovered(2, "d")),
    ("system", {"pieces.2.scales": NOT_MONOTONE}, NOT_REFINED),
    ("system", {"upper": {}}, ParseError("expected a list of triples", "body.upper")),
    ("system", {"upper.0": [0, 1]}, ParseError("expected a [r, s, t] triple", "body.upper[0]")),
    ("system", {"upper.0": [0, "1", 2]}, ParseError("expected an integer", "body.upper[0]")),
    (
        "system",
        {"upper.0": [0, 1, 3]},
        ValidationError("upper bound of pieces P0 and P1 is 3, not a piece index"),
    ),
    ("system", {"upper.0": [0, True, 1]}, ParseError("expected an integer", "body.upper[0]")),
    ("system", {"upper.0": [0, 1.0, 1]}, ParseError("expected an integer", "body.upper[0]")),
    ("system", {"upper.0": [[0], 1, 2]}, ParseError("expected an integer", "body.upper[0]")),
    (
        "system",
        {"upper.0": [0, 1, 2, 2]},
        ParseError("expected a [r, s, t] triple", "body.upper[0]"),
    ),
    ("system", {"meta": [1]}, ParseError("expected a list of strings", "body.meta")),
    ("system", {"pieces.1.name": "P0"}, ValidationError("piece names must be distinct")),
    (
        "system",
        {"pieces.2.carrier": ["a", "b", "c"], "pieces.2.scales": ABC},
        ValidationError("directedness failure: upper(P0, P1) = P2 does not contain the union"),
    ),
    (
        "system",
        {
            "pieces.1.carrier": ["b", "c"],
            "pieces.1.scales": [[["b"], ["c"]]],
            "pieces.2.carrier": ["a", "b", "c"],
            "pieces.2.scales": ABC,
            "upper": DROP,
        },
        ValidationError("carriers do not cover: point 'd' is in no piece"),
    ),
    (
        "system",
        {"upper": DROP, "pieces.2.carrier": ["a", "b", "c"], "pieces.2.scales": ABC},
        ValidationError("directedness failure: no piece contains P0 union P1"),
    ),
    (
        "system",
        {"pieces.1.scales": [[["b"], ["c"], ["d"]], [["b", "c"], ["d"]]]},
        coincide("P1", "P2", 2, "P2"),
    ),
    # a pair named twice, in either order, even when one claim is true: the
    # same order is a fault of the list, read at the second naming; the
    # reverse order is the system's check
    (
        "system",
        {"upper": [[0, 1, 2], [1, 0, 0]]},
        ValidationError("upper bound of pieces P0 and P1 given twice"),
    ),
    (
        "system",
        {"upper": [[0, 1, 0], [0, 1, 2]]},
        ParseError("upper bound of pieces 0 and 1 given twice", "body.upper[1]"),
    ),
    (
        "system",
        {"upper.0": [0, 7, 1]},
        ValidationError("upper bound given for (0, 7), which is not a pair of pieces"),
    ),
]

MULTI = [
    # an unknown point in a later scale before a cover fault in an earlier one
    (
        "space",
        {"scales.0": [["a"]], "scales.2.0": ["a", "z"]},
        ParseError("unknown point 'z'", "body.scales[2][0]"),
    ),
    (
        "system",
        {"pieces.2.scales.0": [["a"]], "pieces.2.scales.1.0": ["z"]},
        ParseError("unknown point 'z'", "body.pieces[2].scales[1][0]"),
    ),
    # a cover fault in a later level before a monotonicity fault in an earlier one
    ("space", {"scales": NOT_MONOTONE[:2] + [NO_D]}, uncovered(3, "d")),
    ("system", {"pieces.2.scales": NOT_MONOTONE[:2] + [NO_D]}, uncovered(3, "d")),
    # a semantic fault in piece 0 before a parse fault in piece 1
    ("system", {"pieces.0.scales.1": [["a", "b"]], "pieces.1.name": 1}, uncovered(2, "c")),
    (
        "system",
        {
            "pieces.0.scales": [[["a", "b"], ["c"]], [["a"], ["b"], ["c"]]],
            "pieces.1.scales.0.0": ["q"],
        },
        NOT_REFINED,
    ),
    # every piece fault before a malformed upper triple
    ("system", {"pieces.2.scales.1": ABC[0], "upper.0": [0, 1]}, uncovered(2, "d")),
    (
        "system",
        {"pieces.2.carrier": ["a", "e"], "upper.0": "x"},
        ParseError("unknown point 'e'", "body.pieces[2].carrier"),
    ),
    ("system", {"pieces.1.scales.0": [["b"]], "upper.0": [0, 1, 9]}, uncovered(1, "c")),
    # every entry of a triple is an integer before any is in range
    ("system", {"upper.0": [0, 5, "x"]}, ParseError("expected an integer", "body.upper[0]")),
    # upper triples and meta lines before the system-wide checks
    (
        "system",
        {"pieces.1.name": "P0", "upper.0": [0, 1]},
        ParseError("expected a [r, s, t] triple", "body.upper[0]"),
    ),
    (
        "system",
        {"pieces.1.name": "P0", "meta": "m"},
        ParseError("expected a list of strings", "body.meta"),
    ),
    # distinct names before carrier coverage, directedness and coincidence
    (
        "system",
        {"pieces.1.name": "P0", "upper.0": [0, 1, 0], "pieces.1.scales": BC_D},
        ValidationError("piece names must be distinct"),
    ),
    # directedness before coincidence
    (
        "system",
        {"upper.0": [0, 1, 0], "pieces.1.scales": BC_D},
        ValidationError("directedness failure: upper(P0, P1) = P0 does not contain the union"),
    ),
    # the first failing pair, and its first failing side and level
    (
        "system",
        {"pieces.0.scales.1": [["a", "b"], ["c"]], "pieces.1.scales": BC_D},
        coincide("P0", "P1", 1, "P1"),
    ),
    (
        "system",
        {"pieces.0.scales": [[["a"], ["b"], ["c"]], [["b", "c"], ["a"]], [["b", "c"], ["a"]]]},
        coincide("P0", "P2", 2, "P2"),
    ),
    # meta lines, read by the decoder, before an upper entry out of range,
    # which the system checks
    (
        "system",
        {"upper.0": [0, 1, 9], "meta": [1]},
        ParseError("expected a list of strings", "body.meta"),
    ),
    # a pair repeated in the same order is read before any entry's range
    (
        "system",
        {"upper": [[0, 7, 1], [0, 7, 2]]},
        ParseError("upper bound of pieces 0 and 7 given twice", "body.upper[1]"),
    ),
]


def mutated(body, changes):
    body = copy.deepcopy(body)
    for dotted, value in changes.items():
        if not dotted:
            body = value
            continue
        keys = [int(k) if k.isdigit() else k for k in dotted.split(".")]
        owner = body
        for k in keys[:-1]:
            owner = owner[k]
        if value is DROP:
            del owner[keys[-1]]
        else:
            owner[keys[-1]] = value
    return body


@pytest.mark.parametrize("kind", DECODERS)
def test_valid_bodies_decode(kind):
    decoder, body = DECODERS[kind]
    decoder(copy.deepcopy(body))


def run_case(kind, changes, expected):
    decoder, body = DECODERS[kind]
    with pytest.raises(type(expected)) as exc:
        decoder(mutated(body, changes))
    assert type(exc.value) is type(expected)
    assert str(exc.value) == str(expected)
    if isinstance(expected, ParseError):
        assert exc.value.path == expected.path


@pytest.mark.parametrize("kind, changes, expected", SINGLE)
def test_single_fault_message_and_path(kind, changes, expected):
    run_case(kind, changes, expected)


@pytest.mark.parametrize("kind, changes, expected", MULTI)
def test_multi_fault_order(kind, changes, expected):
    run_case(kind, changes, expected)
