"""Document envelope: strict parsing, canonical emission, round trips."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import reduce
from math import isqrt
from operator import or_

import pytest
from hypothesis import example, given, strategies as st

from coarsekit import DomainError, ParseError, ValidationError
from coarsekit.colimit import ColimitBoundedness, extended_level
from coarsekit.corpus import gen_c0, gen_disjoint_union, gen_random_system
from coarsekit.documents import (
    DECODERS,
    Document,
    Emitted,
    _encode_fraction,
    _fraction,
    doc_to_family,
    doc_to_map,
    doc_to_metric,
    doc_to_space,
    doc_to_system,
    emit_document,
    family_to_doc,
    map_to_doc,
    metric_to_doc,
    parse_document,
    report_to_doc,
    resolve_bound,
    resolve_scale,
    space_to_doc,
    system_to_doc,
    witness_to_doc,
)
from coarsekit.families import Family, bits, points
from coarsekit.invariants import (
    AmenabilityWitness,
    ApcWitness,
    AsdimWitness,
    ExactnessWitness,
    PinchWitness,
    PropertyAFamily,
    amenability_verify,
    exactness_lift,
    generator_set,
    partition_of_unity,
    pinch_lift,
    pinch_witness,
)
from coarsekit.maps import INF, MetricTarget, grounded_map, path_metric
from coarsekit.spaces import validate_space


def pair_space(ids=("a", "b", "c")):
    pts = points(ids)
    pairs = tuple(frozenset({p, q}) for p, q in zip(ids, ids[1:]))
    return validate_space(
        pts,
        [
            Family(pts, tuple(frozenset({p}) for p in ids)),
            Family(pts, pairs),
            Family(pts, (frozenset(ids),)),
        ],
    )


def reparse(doc: Document) -> Document:
    return parse_document(emit_document(doc))


def witness_round_trip(kind: str, w, target):
    return DECODERS[kind](reparse(witness_to_doc(kind, w)).body, target)


def test_space_round_trip():
    sp = pair_space()
    doc = reparse(space_to_doc(sp))
    assert doc.kind == "space"
    assert doc_to_space(doc.body) == sp


def test_system_round_trip_keeps_upper_and_meta():
    fs = gen_random_system(5)
    doc = reparse(system_to_doc(fs))
    back = doc_to_system(doc.body)
    assert back == fs
    assert back.upper == fs.upper
    assert back.meta == fs.meta


def test_a_carrier_out_of_ambient_order_is_read_in_ambient_order():
    """A carrier written in ambient order, as system_to_doc writes it, is the
    piece's point set as read; any other order is put in ambient order."""
    fs = gen_disjoint_union([path_metric(points(["a", "b", "c"])), path_metric(points(["d"]))])
    body = reparse(system_to_doc(fs)).body
    assert any(len(pc["carrier"]) > 1 for pc in body["pieces"])
    assert doc_to_system(body) == fs
    for pc in body["pieces"]:
        pc["carrier"].reverse()
    assert doc_to_system(body) == fs


def test_family_map_metric_round_trips():
    pts = points(["a", "b", "c"])
    fam = Family(pts, (frozenset({"a", "b"}), frozenset(), frozenset({"c"})))
    assert doc_to_family(reparse(family_to_doc(fam)).body) == fam

    m = grounded_map(pts, points(["x", "y"]), {"a": "x", "b": "y", "c": "x"})
    assert doc_to_map(reparse(map_to_doc(m)).body) == m

    t = MetricTarget(
        points(["u", "v"]), [[0, Fraction(3, 2)], [Fraction(3, 2), 0]]
    )
    assert doc_to_metric(reparse(metric_to_doc(t)).body) == t


def test_metric_round_trip_keeps_infinities():
    t = MetricTarget(points(["u", "v"]), [[0, INF], [INF, 0]])
    body = reparse(metric_to_doc(t)).body
    assert body["dist"][0][1] == "inf"
    assert doc_to_metric(body) == t


def test_witness_round_trips_on_a_space_target():
    sp = pair_space()
    pts = sp.points
    scale = sp.level(1)
    whole = Family(pts, (frozenset(pts.ids),))

    asdim = AsdimWitness(scale, whole, 3)
    assert witness_round_trip("witness:asdim", asdim, sp) == asdim

    apc = ApcWitness((whole,), (3,), (sp.level(1), sp.level(2)))
    assert witness_round_trip("witness:apc", apc, sp) == apc

    pou = partition_of_unity(
        pts,
        ["one"],
        [(Fraction(1),), (Fraction(1),), (Fraction(1),)],
    )
    exact = ExactnessWitness(scale, Fraction(1, 2), pou, 3)
    assert witness_round_trip("witness:exactness", exact, sp) == exact

    pinch = PinchWitness(
        2,
        ((Fraction(0), Fraction(0)),) * 3,
        scale,
        whole,
        Fraction(1),
        Fraction(1, 3),
        3,
    )
    assert witness_round_trip("witness:pinch", pinch, sp) == pinch

    amen = AmenabilityWitness(scale, whole, Fraction(2), 3)
    assert witness_round_trip("witness:amenability", amen, sp) == amen

    prop_a = PropertyAFamily(
        1,
        tuple(frozenset({(p, 1)}) for p in pts.ids),
        scale,
        scale,
        Fraction(1, 2),
        1,
    )
    assert witness_round_trip("witness:property_a", prop_a, sp) == prop_a


def lifted_grid_witness(kind):
    """The system gen_c0(2, 3) and a witness of kind on its piece grid1,
    lifted to the colimit: integer coordinates separated off the singletons,
    or uniform weights over the level-1 members holding each point."""
    fs = gen_c0(2, 3)
    idx = fs.piece_index("grid1")
    sp = fs.pieces[idx].space
    level1 = sp.level(1)
    if kind == "witness:pinch":
        coords = [tuple(int(v) for v in p.split(",")) for p in sp.points.ids]
        worst = max(
            sum((x - y) ** 2 for x, y in zip(coords[a], coords[b]))
            for m in level1.masks
            for a in bits(m)
            for b in bits(m)
        )
        singletons = Family.from_masks(sp.points, tuple(1 << i for i in range(len(coords))))
        w = pinch_witness(len(coords[0]), coords, level1, singletons, 1, isqrt(worst) + 1, 1)
        return fs, pinch_lift(fs, idx, w)
    holders = [[i for i, m in enumerate(level1.masks) if m >> p & 1] for p in range(len(sp.points))]
    rows = [
        [Fraction(1, len(held)) if i in held else 0 for i in range(len(level1.masks))]
        for held in holders
    ]
    pou = partition_of_unity(sp.points, [f"m{i}" for i in range(len(level1.masks))], rows)
    return fs, exactness_lift(fs, idx, ExactnessWitness(level1, Fraction(5, 2), pou, 1))


@pytest.mark.parametrize("kind", ["witness:pinch", "witness:exactness"])
def test_a_lifted_witness_round_trips_with_its_integral_entries_as_ints(kind):
    fs, lifted = lifted_grid_witness(kind)
    text = emit_document(witness_to_doc(kind, lifted))
    got = DECODERS[kind](parse_document(text).body, fs)
    assert got == lifted
    for w in (lifted, got):
        entries = [v for row in (w.coords if kind == "witness:pinch" else w.pou.rows) for v in row]
        assert {type(v) for v in entries if v.denominator == 1} == {int}
        assert all(type(v) is Fraction for v in entries if v.denominator != 1)
    assert emit_document(witness_to_doc(kind, got)) == text


def test_apc_witness_without_a_chain_is_written_and_read_with_a_null_chain():
    sp = pair_space()
    whole = Family(sp.points, (frozenset(sp.points.ids),))
    chained = ApcWitness((whole,), (3,), (sp.level(1), sp.level(2)))
    unchained = ApcWitness((whole,), (None,))
    for w in (chained, unchained):
        body = reparse(witness_to_doc("witness:apc", w)).body
        back = DECODERS["witness:apc"](body, sp)
        assert isinstance(back, ApcWitness)
        assert back == w
    body = reparse(witness_to_doc("witness:apc", unchained)).body
    assert body == {"selections": [[["a", "b", "c"]]], "bounds": [None], "chain": None}
    del body["chain"]
    assert DECODERS["witness:apc"](body, sp) == unchained


def test_generator_set_round_trip():
    sp = pair_space()
    gs = generator_set(sp.points, (sp.level(2), sp.level(3)))
    doc = reparse(witness_to_doc("witness:generators", gs))
    assert doc.kind == "witness:generators"
    assert DECODERS["witness:generators"](doc.body) == gs


def test_report_round_trip():
    sp = pair_space()
    w = AmenabilityWitness(sp.level(1), sp.level(1), Fraction(2), None)
    report = amenability_verify(sp, w)
    doc = reparse(report_to_doc(report, {"command": "check"}))
    assert doc.body["verdict"] == "verified"
    assert doc.body["provenance"] == {"command": "check"}
    assert all(c["ok"] for c in doc.body["clauses"])


def test_emission_is_canonical():
    fs = gen_disjoint_union(
        [path_metric(points(["a", "b"])), path_metric(points(["c", "d"]))]
    )
    text = emit_document(system_to_doc(fs))
    assert text == emit_document(system_to_doc(fs))
    assert text.endswith("\n")
    raw = json.loads(text)
    assert list(raw) == sorted(raw)
    # canonical emission is parse-stable too
    assert emit_document(parse_document(text)) == text



# Text that exercises every escape: quotes, backslashes, control characters,
# DEL, non-ASCII in and beyond the BMP, and lone surrogates.
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u2028", "\ud800", "\udfff", "é", "\U0001f600"]
)
# Keys that differ only in case or in non-ASCII characters.
JSON_KEYS = st.text(st.sampled_from("aAbBeéÉ\u0301zZ\"\\\n"), max_size=3) | JSON_TEXT
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**63) - 1, 10**40])
    | st.floats()
    | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 1e300, 5e-324])
    | JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(JSON_TEXT, max_size=4)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=20,
)


@given(JSON_TEXT, JSON_TEXT, st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=5))
@example("report", "1", {"row": [True, 1, None, "x", 1.5, False, 0]})
def test_emission_matches_json_dumps(kind, version, body):
    payload = {"kind": kind, "version": version, "body": body}
    assert emit_document(Document(kind, version, body)) == (
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


# JSON values in which documents stand at any depth, in one another's bodies too.
NESTED_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, inner, max_size=3)
    | st.builds(Document, JSON_TEXT, JSON_TEXT, st.dictionaries(JSON_KEYS, inner, max_size=3)),
    max_leaves=16,
)


def nest(value, place):
    """value with every document in it, innermost first, replaced by place(doc)."""
    if isinstance(value, Document):
        return place(Document(value.kind, value.version, nest(value.body, place)))
    if isinstance(value, (list, tuple)):
        return [nest(v, place) for v in value]
    if isinstance(value, dict):
        return {k: nest(v, place) for k, v in value.items()}
    return value


def envelope(doc):
    return {"kind": doc.kind, "version": doc.version, "body": doc.body}


def pre_emitted(doc):
    return Emitted(emit_document(doc)[:-1])


@given(JSON_TEXT, st.dictionaries(JSON_KEYS, NESTED_DOCUMENTS, max_size=4))
@example("report", {"artifacts": {"w": Document("family", "1", {"m": [["a"], Document("k", "1", {})]})}})
def test_a_pre_emitted_document_writes_as_its_envelope(kind, body):
    """A document's emitted text, wrapped in Emitted at any depth, gives the
    bytes that its envelope gives in that place."""
    want = emit_document(Document(kind, "1", nest(body, envelope)))
    assert emit_document(Document(kind, "1", nest(body, pre_emitted))) == want


@pytest.mark.parametrize(
    "body",
    [{1: "a"}, {"a": {None: 1}}, {"a": [{"b": 1, 2: 3}]}, {"a": {1, 2}}, {"a": [Fraction(1, 2)]}],
)
def test_emission_rejects_values_outside_json(body):
    with pytest.raises(TypeError):
        emit_document(Document("family", "1", body))

def test_unknown_fields_are_rejected_with_paths():
    sp = pair_space()
    body = space_to_doc(sp).body
    body["extra"] = 1
    with pytest.raises(ParseError, match="unknown field 'extra'") as exc:
        doc_to_space(body)
    assert exc.value.path == "body"

    with pytest.raises(ParseError, match="missing field 'scales'"):
        doc_to_space({"points": ["a"]})


def test_envelope_errors():
    with pytest.raises(ParseError, match="malformed JSON at line 1"):
        parse_document("{nope")
    with pytest.raises(ParseError, match="unknown kind"):
        parse_document('{"kind": "blob", "version": "1", "body": {}}')
    with pytest.raises(ParseError, match="unsupported version"):
        parse_document('{"kind": "family", "version": "2", "body": {}}')
    with pytest.raises(ParseError, match="missing field 'body'"):
        parse_document('{"kind": "family", "version": "1"}')


@pytest.mark.parametrize(
    "text, key",
    [
        (
            '{"kind": "space", "version": "1", "body": '
            '{"points": ["a", "b"], "scales": [[["a", "b"]]], "points": ["a"]}}',
            "points",
        ),
        ('{"kind": "family", "kind": "space", "version": "1", "body": {}}', "kind"),
        ('{"kind": "map", "version": "1", "body": {"table": {"a": "x", "a": "y"}}}', "a"),
        ('[{"x": 1, "x": 1}]', "x"),  # the same value twice is refused too
    ],
    ids=["body", "envelope", "nested", "outside-the-envelope"],
)
def test_a_repeated_object_key_is_a_parse_error(text, key):
    """JSON readers differ on which of two values of one key they keep, so
    another reader could see another document behind the same digest."""
    assert len(json.loads(text)) >= 1  # the standard reader keeps one silently
    with pytest.raises(ParseError, match=re.escape(f"duplicate key {key!r} in a JSON object")):
        parse_document(text)


def test_a_byte_order_mark_is_refused_as_json_loads_words_it():
    with pytest.raises(ParseError) as exc:
        parse_document("\ufeff" + emit_document(Document("family", "1", {})))
    assert str(exc.value) == (
        "malformed JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    )


def test_semantic_failures_are_not_parse_errors():
    body = {"points": ["a", "b"], "scales": [[["a"]]]}
    with pytest.raises(ValidationError, match="'b'"):
        doc_to_space(body)
    # the same body clears the envelope, and its decoder refuses it
    doc = parse_document(emit_document(Document("space", "1", body)))
    assert doc.body == body
    with pytest.raises(ValidationError):
        DECODERS[doc.kind](doc.body)


def test_fraction_forms():
    pts = ["u", "v"]
    good = {
        "points": pts,
        "dist": [[0, "3/2"], ["3/2", 0]],
    }
    assert doc_to_metric(good).dist("u", "v") == Fraction(3, 2)

    with pytest.raises(ParseError, match="malformed rational '1/0'"):
        doc_to_metric({"points": pts, "dist": [[0, "1/0"], ["1/0", 0]]})
    # only an integer or "p/q" text: no signs but a leading minus, no blanks,
    # decimals, exponents, underscores or non-ASCII digits
    for raw, value in [(-4, -4), ("-3/2", Fraction(-3, 2)), ("6/4", Fraction(3, 2)), ("-0/7", 0)]:
        assert _fraction(raw, "x") == value
    for raw in ["1.5", "+3", " 3/4 ", "3/4\n", "1e3", "1_0", "3/-4", "/2", "-", "\u0663"]:
        with pytest.raises(ParseError, match=re.escape(f"malformed rational {raw!r}")):
            _fraction(raw, "x")
    with pytest.raises(ParseError, match="expected a rational"):
        doc_to_metric({"points": pts, "dist": [[0, True], [True, 0]]})

    sp = pair_space()
    w_body = witness_to_doc(
        "witness:amenability", AmenabilityWitness(sp.level(1), sp.level(1), Fraction(2), None)
    ).body
    w_body["eps"] = "inf"
    with pytest.raises(ParseError, match="infinity is not allowed here"):
        DECODERS["witness:amenability"](w_body, sp)
    w_body["eps"] = "-1/2"
    with pytest.raises(DomainError, match="ratio threshold must be positive"):
        DECODERS["witness:amenability"](w_body, sp)
    # an exponent would make Fraction build a ten-million-digit integer
    w_body["eps"] = "1e10000000"
    with pytest.raises(ParseError, match="malformed rational '1e10000000'"):
        DECODERS["witness:amenability"](w_body, sp)


def test_scale_value_forms():
    sp = pair_space()
    fs = gen_random_system(2)

    assert resolve_scale({"level": 2}, sp) == sp.level(2)
    assert resolve_scale({"piece": 0, "level": 1}, fs) == extended_level(fs, 0, 1)
    listed = resolve_scale([["a", "b"], []], sp)
    assert listed.members == (frozenset({"a", "b"}), frozenset())

    with pytest.raises(ParseError, match="needs a system target"):
        resolve_scale({"piece": 0, "level": 1}, sp)
    with pytest.raises(ParseError, match="needs a single-space target"):
        resolve_scale({"level": 1}, fs)
    with pytest.raises(ParseError, match="out of range 1..3"):
        resolve_scale({"level": 4}, sp)
    with pytest.raises(ParseError, match="piece index 9 out of range"):
        resolve_scale({"piece": 9, "level": 1}, fs)
    with pytest.raises(ParseError) as exc:
        resolve_scale({"piece": 0, "level": 9}, fs)
    depth = fs.pieces[0].space.depth
    assert str(exc.value) == f"scale.level: level 9 out of range 1..{depth}"
    assert exc.value.path == "scale.level"
    with pytest.raises(ParseError, match="level reference or a member list"):
        resolve_scale("top", sp)


def test_bound_value_forms():
    assert resolve_bound(None) is None
    assert resolve_bound(4) == 4
    assert resolve_bound({"piece": 1, "level": 2}) == ColimitBoundedness(1, 2)
    with pytest.raises(ParseError, match="null, a level, or a piece certificate"):
        resolve_bound(True)
    with pytest.raises(ParseError, match="unknown field 'extra'"):
        resolve_bound({"piece": 1, "level": 2, "extra": 0})


def test_map_table_errors():
    body = {
        "domain": ["a", "b"],
        "codomain": ["x"],
        "table": {"a": "x"},
    }
    with pytest.raises(ParseError, match="^body.table: no image given for point 'b'$"):
        doc_to_map(body)
    body["table"] = {"a": "x", "b": "q"}
    with pytest.raises(ParseError, match="^body.table: image 'q' is not in the codomain$"):
        doc_to_map(body)
    body["table"] = {"a": "x", "b": "x", "z": "x"}
    with pytest.raises(ParseError, match="unknown domain point 'z'"):
        doc_to_map(body)


def test_report_body_is_schema_checked():
    good = {
        "kind": "report",
        "version": "1",
        "body": {
            "verdict": "verified",
            "clauses": [
                {"name": "n", "ok": True, "detail": "", "truncation": False}
            ],
            "provenance": {},
        },
    }
    doc = parse_document(json.dumps(good))
    DECODERS[doc.kind](doc.body)
    bad = parse_document(json.dumps(dict(good, body=dict(good["body"], verdict="maybe"))))
    with pytest.raises(ParseError, match="unknown verdict 'maybe'"):
        DECODERS[bad.kind](bad.body)


# member decoding against a reference: one reduce(or_) per member over a bit table

MEMBER_IDS = ("a", "b", "c", "d")
# known points, an unknown one, entries equal to each other but not strings
# (1, 1.0 and True), null, and unhashable entries
ANY_ENTRY = st.sampled_from([*MEMBER_IDS, "z", 0, 1, 1.0, True, None, ["a"], {"a": 1}])
KNOWN_MEMBER = st.lists(st.sampled_from(MEMBER_IDS), max_size=6)
ANY_MEMBER = st.one_of(
    KNOWN_MEMBER,
    st.lists(ANY_ENTRY, max_size=4),
    st.sampled_from(["a", 3, None, {"a": "b"}]),  # not a list
)


@st.composite
def member_lists(draw, member):
    """Members drawn from a small pool, so that equal members repeat; each
    repeat is a fresh copy, equal but not identical."""
    pool = draw(st.lists(member, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), max_size=8))
    return [list(m) if isinstance(m, list) else m for m in picks]


def reference_masks(members, path):
    """The masks of a member list, or the (message, path) of its ParseError."""
    bit = {p: 1 << i for i, p in enumerate(MEMBER_IDS)}
    out = []
    for i, m in enumerate(members):
        if not isinstance(m, list) or not all(isinstance(p, str) for p in m):
            return "expected a list of strings", f"{path}[{i}]"
        unknown = [p for p in m if p not in bit]
        if unknown:
            return f"unknown point {unknown[0]!r}", f"{path}[{i}]"
        out.append(reduce(or_, (bit[p] for p in m), 0))
    return tuple(out)


def decoded_or_fault(decode, body):
    try:
        return decode(body)
    except ParseError as exc:
        message = str(exc).removeprefix(f"{exc.path}: ")
        return message, exc.path


@given(member_lists(st.one_of(KNOWN_MEMBER, ANY_MEMBER)))
def test_member_masks_match_the_reference(members):
    want = reference_masks(members, "body.members")
    got = decoded_or_fault(doc_to_family, {"points": list(MEMBER_IDS), "members": members})
    assert (got.masks if isinstance(got, Family) else got) == want

    # the same list as the first scale of a space: singletons cover, one top member
    singletons = [[p] for p in MEMBER_IDS]
    body = {"points": list(MEMBER_IDS), "scales": [members + singletons, [list(MEMBER_IDS)]]}
    want = reference_masks(members, "body.scales[0]")
    got = decoded_or_fault(doc_to_space, body)
    if isinstance(got, tuple):
        assert got == want
    else:
        assert got.level(1).masks[: len(members)] == want


def test_encode_fraction_forms():
    assert _encode_fraction(Fraction(4, 2)) == 2
    assert type(_encode_fraction(Fraction(4, 2))) is int
    assert _encode_fraction(Fraction(-6, 4)) == "-3/2"
    assert _encode_fraction(Fraction(0)) == 0
    assert _encode_fraction(7) == 7
    assert _encode_fraction(math.inf) == "inf"
