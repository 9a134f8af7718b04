"""Witness decoding faults: one table of single-fault bodies per witness kind.

Each case takes a valid witness body, makes exactly one change to it and
pins the ParseError's message and path. Missing and unknown fields, one
wrongly typed value per field type and unknown points in the point-keyed
rows are covered for every kind. A second table pins the DomainError of a
body that reads but whose witness refuses to be built: a witness's shape is
its class's own check, made once, after every field is read.
"""

from __future__ import annotations

import copy

import pytest

from coarsekit import DomainError, ParseError
from coarsekit.documents import DECODERS
from coarsekit.families import Family, points
from coarsekit.spaces import validate_space

IDS = ("a", "b", "c")
SINGLETONS = [["a"], ["b"], ["c"]]
WHOLE = [["a", "b", "c"]]


def target():
    pts = points(IDS)
    return validate_space(
        pts,
        [
            Family(pts, tuple(frozenset({p}) for p in IDS)),
            Family(pts, (frozenset({"a", "b"}), frozenset({"b", "c"}))),
            Family(pts, (frozenset(IDS),)),
        ],
    )


# kind -> (decoder, a valid body over target())
VALID = {
    "asdim": (
        DECODERS["witness:asdim"],
        {"scale": {"level": 1}, "coarsening": WHOLE, "bound": 3},
    ),
    "apc": (
        DECODERS["witness:apc"],
        {"selections": [WHOLE], "bounds": [3], "chain": [{"level": 1}, {"level": 2}]},
    ),
    "exactness": (
        DECODERS["witness:exactness"],
        {
            "scale": {"level": 1},
            "eps": "1/2",
            "indices": ["u"],
            "weights": {"a": {"u": 1}, "b": {"u": 1}, "c": {"u": 1}},
            "support_bound": 3,
        },
    ),
    "pinch": (
        DECODERS["witness:pinch"],
        {
            "scale": {"level": 1},
            "sep": WHOLE,
            "c": 1,
            "eps": "1/3",
            "dim": 2,
            "coords": {"a": [0, 0], "b": [0, 0], "c": [0, 0]},
            "sep_bound": 3,
        },
    ),
    "amenability": (
        DECODERS["witness:amenability"],
        {"scale": {"level": 1}, "companion": WHOLE, "eps": 2, "bound": 3},
    ),
    "property_a": (
        DECODERS["witness:property_a"],
        {
            "scale": SINGLETONS,
            "support": SINGLETONS,
            "eps": "1/2",
            "n_cap": 1,
            "sets": {"a": [["a", 1]], "b": [["b", 1]], "c": [["c", 1]]},
            "support_bound": 1,
        },
    ),
    "generators": (
        DECODERS["witness:generators"],
        {"points": list(IDS), "families": [SINGLETONS, WHOLE]},
    ),
}

DROP = object()
BOUND_MSG = "expected null, a level, or a piece certificate"
SCALE_MSG = "expected a level reference or a member list"

# (kind, key path into the body, new value or DROP, message, error path)
CASES = [
    # asdim: scale, family, optional bound
    ("asdim", ["scale"], DROP, "missing field 'scale'", "body"),
    ("asdim", ["coarsening"], DROP, "missing field 'coarsening'", "body"),
    ("asdim", ["extra"], 0, "unknown field 'extra'", "body"),
    ("asdim", ["scale"], "top", SCALE_MSG, "body.scale"),
    ("asdim", ["scale", "level"], "1", "expected an integer", "body.scale.level"),
    ("asdim", ["scale", "level"], 4, "level 4 out of range 1..3", "body.scale.level"),
    ("asdim", ["coarsening"], "x", "expected a list of members", "body.coarsening"),
    ("asdim", ["coarsening", 0, 0], "zz", "unknown point 'zz'", "body.coarsening[0]"),
    ("asdim", ["bound"], True, BOUND_MSG, "body.bound"),
    ("asdim", ["bound"], {"piece": 0}, "missing field 'level'", "body.bound"),
    # apc: selections, bounds and an optional chain
    ("apc", ["selections"], DROP, "missing field 'selections'", "body"),
    ("apc", ["bounds"], DROP, "missing field 'bounds'", "body"),
    ("apc", ["extra"], 0, "unknown field 'extra'", "body"),
    ("apc", ["selections"], 3, "expected a list of selections", "body.selections"),
    ("apc", ["selections", 0], "x", "expected a list of members", "body.selections[0]"),
    ("apc", ["bounds"], 3, "expected a list of bounds", "body.bounds"),
    ("apc", ["bounds", 0], True, BOUND_MSG, "body.bounds[0]"),
    ("apc", ["chain"], [], "expected a non-empty list of scales", "body.chain"),
    ("apc", ["chain", 1], "top", SCALE_MSG, "body.chain[1]"),
    # exactness: scale, rational, names, weights, optional bound
    ("exactness", ["scale"], DROP, "missing field 'scale'", "body"),
    ("exactness", ["eps"], DROP, "missing field 'eps'", "body"),
    ("exactness", ["indices"], DROP, "missing field 'indices'", "body"),
    ("exactness", ["weights"], DROP, "missing field 'weights'", "body"),
    ("exactness", ["extra"], 0, "unknown field 'extra'", "body"),
    ("exactness", ["scale"], 7, SCALE_MSG, "body.scale"),
    ("exactness", ["eps"], True, "expected a rational", "body.eps"),
    ("exactness", ["eps"], [1], "expected an integer or a 'p/q' string", "body.eps"),
    ("exactness", ["eps"], "1/0", "malformed rational '1/0'", "body.eps"),
    ("exactness", ["eps"], "inf", "infinity is not allowed here", "body.eps"),
    ("exactness", ["eps"], 0.5, "expected an integer or a 'p/q' string", "body.eps"),
    ("exactness", ["indices"], "u", "expected a list of strings", "body.indices"),
    (
        "exactness", ["weights"], [],
        "expected an object mapping points to weight objects", "body.weights",
    ),
    ("exactness", ["weights", "zz"], {}, "unknown point 'zz'", "body.weights"),
    ("exactness", ["weights", "a"], 1, "weights at 'a' must be an object", "body.weights"),
    ("exactness", ["weights", "a", "v"], 0, "unknown index 'v'", "body.weights.a"),
    ("exactness", ["weights", "a", "u"], True, "expected a rational", "body.weights.a.u"),
    ("exactness", ["support_bound"], "x", BOUND_MSG, "body.support_bound"),
    # pinch: scale, family, rationals, integer, coords, optional bound
    ("pinch", ["scale"], DROP, "missing field 'scale'", "body"),
    ("pinch", ["sep"], DROP, "missing field 'sep'", "body"),
    ("pinch", ["c"], DROP, "missing field 'c'", "body"),
    ("pinch", ["eps"], DROP, "missing field 'eps'", "body"),
    ("pinch", ["dim"], DROP, "missing field 'dim'", "body"),
    ("pinch", ["coords"], DROP, "missing field 'coords'", "body"),
    ("pinch", ["extra"], 0, "unknown field 'extra'", "body"),
    ("pinch", ["scale"], None, SCALE_MSG, "body.scale"),
    ("pinch", ["sep"], {}, "expected a list of members", "body.sep"),
    ("pinch", ["c"], "x", "malformed rational 'x'", "body.c"),
    ("pinch", ["eps"], "1/3.0", "malformed rational '1/3.0'", "body.eps"),
    ("pinch", ["dim"], "2", "expected an integer", "body.dim"),
    ("pinch", ["dim"], False, "expected an integer", "body.dim"),
    (
        "pinch", ["coords"], [],
        "expected an object mapping points to coordinate rows", "body.coords",
    ),
    ("pinch", ["coords", "zz"], [0, 0], "unknown point 'zz'", "body.coords"),
    ("pinch", ["coords", "a"], DROP, "no coordinates for point 'a'", "body.coords"),
    ("pinch", ["coords", "b"], "0", "coordinates of 'b' must be a list", "body.coords"),
    ("pinch", ["coords", "c", 1], "1/0", "malformed rational '1/0'", "body.coords.c"),
    ("pinch", ["sep_bound"], [], BOUND_MSG, "body.sep_bound"),
    # amenability: scale, family, rational, optional bound
    ("amenability", ["scale"], DROP, "missing field 'scale'", "body"),
    ("amenability", ["companion"], DROP, "missing field 'companion'", "body"),
    ("amenability", ["eps"], DROP, "missing field 'eps'", "body"),
    ("amenability", ["extra"], 0, "unknown field 'extra'", "body"),
    (
        "amenability", ["scale"], {"piece": 0, "level": 1},
        "a piece reference needs a system target", "body.scale",
    ),
    ("amenability", ["companion"], [["a", 1]], "expected a list of strings", "body.companion[0]"),
    ("amenability", ["eps"], None, "expected an integer or a 'p/q' string", "body.eps"),
    ("amenability", ["bound"], "3", BOUND_MSG, "body.bound"),
    # property A: scale, family, rational, integer, sets, optional bound
    ("property_a", ["scale"], DROP, "missing field 'scale'", "body"),
    ("property_a", ["support"], DROP, "missing field 'support'", "body"),
    ("property_a", ["eps"], DROP, "missing field 'eps'", "body"),
    ("property_a", ["n_cap"], DROP, "missing field 'n_cap'", "body"),
    ("property_a", ["sets"], DROP, "missing field 'sets'", "body"),
    ("property_a", ["extra"], 0, "unknown field 'extra'", "body"),
    ("property_a", ["scale"], "x", SCALE_MSG, "body.scale"),
    ("property_a", ["support"], {"level": 1}, "expected a list of members", "body.support"),
    ("property_a", ["eps"], "1/2/3", "malformed rational '1/2/3'", "body.eps"),
    ("property_a", ["n_cap"], 1.5, "expected an integer", "body.n_cap"),
    ("property_a", ["sets"], [], "expected an object mapping points to tag lists", "body.sets"),
    ("property_a", ["sets", "zz"], [], "unknown point 'zz'", "body.sets"),
    ("property_a", ["sets", "b"], DROP, "no tag set for point 'b'", "body.sets"),
    ("property_a", ["sets", "a"], "x", "tags at 'a' must be a list", "body.sets"),
    (
        "property_a", ["sets", "a", 0], ["a"],
        "tags at 'a' must be [point, index] pairs", "body.sets",
    ),
    ("property_a", ["sets", "c", 0, 1], "1", "expected an integer", "body.sets.c"),
    (
        "property_a", ["support_bound"], {"piece": 0, "level": "1"},
        "expected an integer", "body.support_bound.level",
    ),
    # generators: points and a list of families
    ("generators", ["points"], DROP, "missing field 'points'", "body"),
    ("generators", ["families"], DROP, "missing field 'families'", "body"),
    ("generators", ["extra"], 0, "unknown field 'extra'", "body"),
    ("generators", ["points"], "abc", "expected a list of strings", "body.points"),
    ("generators", ["points", 2], "a", "duplicate point id 'a'", "body.points"),
    ("generators", ["families"], "x", "expected a list of families", "body.families"),
    ("generators", ["families", 1], "x", "expected a list of members", "body.families[1]"),
    ("generators", ["families", 0, 2, 0], "zz", "unknown point 'zz'", "body.families[0][2]"),
]

# (kind, key path into the body, new value, the witness class's message)
SHAPE_CASES = [
    ("apc", ["selections"], [], "a witness needs at least one selection"),
    ("apc", ["bounds"], [3, 3], "one boundedness claim per selection is required"),
    ("exactness", ["eps"], 0, "variation threshold must be positive"),
    ("exactness", ["indices"], ["u", "u"], "partition indices must be distinct"),
    ("pinch", ["eps"], "-1/3", "separation and diameter thresholds must be positive"),
    ("pinch", ["c"], 0, "separation and diameter thresholds must be positive"),
    ("pinch", ["dim"], 0, "embedding dimension must be at least 1"),
    ("pinch", ["coords", "b"], [0], "coordinate row length must match the dimension"),
    ("amenability", ["eps"], "-1/2", "ratio threshold must be positive"),
    ("property_a", ["eps"], 0, "ratio threshold must be positive"),
    ("property_a", ["n_cap"], 0, "index cap must be at least 1"),
    ("generators", ["families"], [], "a generator set needs at least one family"),
]


def mutated(body, keys, value):
    body = copy.deepcopy(body)
    owner = body
    for k in keys[:-1]:
        owner = owner[k]
    if value is DROP:
        del owner[keys[-1]]
    else:
        owner[keys[-1]] = value
    return body


def decode(kind, body):
    decoder, _ = VALID[kind]
    if kind == "generators":
        return decoder(body)
    return decoder(body, target())


@pytest.mark.parametrize("kind", VALID)
def test_valid_bodies_decode(kind):
    decode(kind, VALID[kind][1])


def test_every_kind_has_cases():
    assert {kind for kind, *_ in CASES} == set(VALID)


@pytest.mark.parametrize(
    "kind, keys, value, message, path",
    CASES,
    ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}-{i}" for i, c in enumerate(CASES)],
)
def test_single_fault_message_and_path(kind, keys, value, message, path):
    body = mutated(VALID[kind][1], keys, value)
    with pytest.raises(ParseError) as exc:
        decode(kind, body)
    assert exc.value.path == path
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "kind, keys, value, message",
    SHAPE_CASES,
    ids=[f"{c[0]}-{'.'.join(map(str, c[1]))}" for c in SHAPE_CASES],
)
def test_a_witness_refuses_a_body_that_reads(kind, keys, value, message):
    body = mutated(VALID[kind][1], keys, value)
    with pytest.raises(DomainError) as exc:
        decode(kind, body)
    assert str(exc.value) == message
