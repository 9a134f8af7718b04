"""Textual document format: one strict, versioned JSON envelope per object.

Every document is {"kind": ..., "version": "1", "body": ...}. Unknown fields
are rejected, rationals travel as integers or "p/q" strings with an optional
leading minus and in no other text form, metric infinities as "inf". An
integral rational is written as its numerator; a ``Fraction`` passes straight
through the encoder, neither wrapped again nor compared with infinity, and an
int is written as it is. The entries of weight and coordinate matrices are
read as they are held: a JSON integer as an int, any other rational as a
``Fraction``. A lifted matrix is mostly the int 0, and every pass over it,
here and in the verifiers, runs on ints; each coordinate row is encoded in
one pass over its entries and written in one join.
Emission is canonical: sorted keys, two-space indent, members listed in point
order, so equal objects serialize to equal bytes.

Every decoder builds each member's bitmask once, while reading it, by a bit
lookup that is also the check that its points are known, and hands the masks
to Family.from_masks, which checks nothing again. Each distinct member list
of a list of members is decoded once; ball chains repeat members often. A
repeated point in a member counts once. Each space checks its chain on the
same masks when it is built (spaces.ScaledSpace), and so does each system
(colimit.FilteredSystem). A system piece's members are read over the
piece's own points, never over the ambient index: the system's check puts
the masks it needs there. A piece is a name and a space, and its
``carrier`` key lists that space's points in ambient order.

Witness kinds are described once, in ``WITNESSES``: per ``witness:X`` kind,
the witness class and its body fields in decode order, each as (body key,
witness attribute, field type). ``decode_witness`` checks the required and
optional keys and reads every field through its type; a field of an optional
type may be left out, which reads as null. A field type only reads: the
witness class checks its shape when it is built, and its verifier judges its
claims. ``witness_to_doc`` writes every body back by type: families as
member lists, rationals as text, bounds as an integer, null or certificate.
Only the point-keyed weights, coordinates and tag sets and the apc bounds
and chain have readers of their own. ``DECODERS`` maps every kind to the
decoder of its body.

``emit_document`` is a small writer of its own. It gives the bytes the
standard ``json`` encoder gives with a two-space indent, sorted keys and its
other defaults, plus a final newline; ``json`` itself would fall back to its
pure-Python encoder whenever an indent is asked for. The rule: ``": "`` after
each key, a comma, a newline and the indent between items, ``{}`` and ``[]``
for empty containers, strings escaped to ASCII. Its values are str, None,
bool, int, float (``NaN``, ``Infinity`` and ``-Infinity`` as ``json`` writes
them), list or tuple, dict with str keys, and ``Emitted``, a document's text
already emitted, which is nested as it stands, re-indented to its place; any
other value or key raises ``TypeError``. A list of strings is written in one
join, and so is a list of scalars, through one table keyed by exact type, so
that a bool is never written as an int; other lists go item by item.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, fields as class_fields
from fractions import Fraction
from functools import partial, reduce
from itertools import compress
from json.encoder import encode_basestring_ascii
from operator import attrgetter, or_
from typing import Any, Callable, NamedTuple, Optional, Union

from .colimit import ColimitBoundedness, FilteredSystem, Piece, extended_level, validate_system
from .errors import CoarseError, ParseError
from .families import Family, PointSet
from .invariants import (
    AmenabilityWitness,
    ApcWitness,
    AsdimWitness,
    ExactnessWitness,
    GeneratorSet,
    PartitionOfUnity,
    PinchWitness,
    PropertyAFamily,
    Target,
)
from .invariants.common import target_points
from .maps import GroundedMap, MetricTarget, INF, grounded_map, metric_target
from .reports import Report
from .spaces import ScaledSpace, validate_space

VERSION = "1"


@dataclass(frozen=True)
class Document:
    kind: str
    version: str
    body: Any


def _fail(msg: str, path: str):
    raise ParseError(msg, path)


def _check_keys(obj, required, optional, path):
    if not isinstance(obj, dict):
        _fail("expected an object", path)
    for k in required:
        if k not in obj:
            _fail(f"missing field {k!r}", path)
    for k in obj:
        if k not in required and k not in optional:
            _fail(f"unknown field {k!r}", path)


def _str_list(v, path) -> tuple[str, ...]:
    if not isinstance(v, list) or not all(isinstance(x, str) for x in v):
        _fail("expected a list of strings", path)
    return tuple(v)


def _int(v, path) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        _fail("expected an integer", path)
    return v


RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fraction(v, path, allow_inf=False):
    if isinstance(v, bool):
        _fail("expected a rational", path)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if v == "inf":
            if allow_inf:
                return INF
            _fail("infinity is not allowed here", path)
        if RATIONAL.fullmatch(v):
            try:
                return Fraction(v)
            except (ValueError, ZeroDivisionError):  # a zero denominator, too many digits
                pass
        _fail(f"malformed rational {v!r}", path)
    _fail("expected an integer or a 'p/q' string", path)


def _encode_fraction(v) -> Union[int, str]:
    """A rational as its integer or its "p/q" text, INF as "inf". An int is
    returned as it is; a Fraction is never INF and needs no wrapping."""
    if type(v) is int:
        return v
    if not isinstance(v, Fraction):
        if v == INF:
            return "inf"
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else str(v)


def _entry(v, path):
    """A matrix entry: a JSON integer as an int, any other rational as a
    Fraction."""
    return v if type(v) is int else _fraction(v, path)


def _points(v, path) -> PointSet:
    ids = _str_list(v, path)
    try:
        return PointSet(ids)
    except CoarseError as exc:
        _fail(str(exc), path)


def _masks(v, pts: PointSet, path) -> tuple[int, ...]:
    """A member list as masks over pts: the bit lookup that builds a mask is
    also the membership check.

    Each distinct member is looked up once: its mask is kept, for this call
    only, under the tuple of its entries. Only strings are keys of the bit
    table, and only a string equals a string, so a later member equal to a
    kept key names the same points. A mask is the sum of its bits unless a
    point repeats, which the bit count shows; then the bits are or-ed."""
    if not isinstance(v, list):
        _fail("expected a list of members", path)
    get = pts._bit.__getitem__
    seen: dict = {}
    out = []
    for m in v:
        if not isinstance(m, list):
            _member_fault(v, pts, path)
        try:
            key = tuple(m)
            mask = seen.get(key)
            if mask is None:
                mask = sum(map(get, m))
                if mask.bit_count() != len(m):
                    mask = reduce(or_, map(get, m))
                seen[key] = mask
        except (TypeError, KeyError):  # an unhashable entry, or an unknown point
            _member_fault(v, pts, path)
        out.append(mask)
    return tuple(out)


def _member_fault(v: list, pts: PointSet, path):
    """Word the error of a member list that failed a bit lookup: the first
    bad entry of the first bad member, in list order."""
    for i, m in enumerate(v):
        for p in _str_list(m, f"{path}[{i}]"):
            if p not in pts:
                _fail(f"unknown point {p!r}", f"{path}[{i}]")
    raise AssertionError("a member list failing the bit lookup has a bad entry")


def _family(v, pts: PointSet, path) -> Family:
    return Family.from_masks(pts, _masks(v, pts, path))


def _family_list(v, pts: PointSet, path, what) -> tuple[Family, ...]:
    if not isinstance(v, list):
        _fail(f"expected a list of {what}", path)
    return tuple(_family(m, pts, f"{path}[{i}]") for i, m in enumerate(v))


def _encode(value):
    """The body value of a witness attribute or a list of families, by its type."""
    if isinstance(value, Family):
        return [list(value.space.points_of(m)) for m in value.masks]
    if isinstance(value, Fraction):
        return _encode_fraction(value)
    if isinstance(value, ColimitBoundedness):
        return {"piece": value.piece, "level": value.level}
    if isinstance(value, PointSet):
        return list(value.ids)
    if isinstance(value, frozenset):
        return [_encode(v) for v in sorted(value)]
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value  # a str, an int, or the null bound


# Decoders check what reading needs (JSON types, field names, point names),
# as ParseError at its path; every other fact is checked once, by the builder
# the decoder calls. One call on one path (PointSet, grounded_map, a level)
# has its error located there; a fact across pieces, levels or points surfaces
# as the builder's ValidationError or DomainError, so callers can tell the
# layers apart.


# space


def doc_to_space(body, path="body") -> ScaledSpace:
    """A space from its body. Each member's mask is built once, while it is
    read; the space checks its chain when it is built."""
    _check_keys(body, ("points", "scales"), (), path)
    pts = _points(body["points"], f"{path}.points")
    return validate_space(pts, _family_list(body["scales"], pts, f"{path}.scales", "scales"))


def space_to_doc(sp: ScaledSpace) -> Document:
    body = {"points": list(sp.points.ids), "scales": _encode(sp.levels)}
    return Document("space", VERSION, body)


# system


def doc_to_system(body, path="body") -> FilteredSystem:
    """A system from its body. Each piece's members are read once, over the
    piece's own points, and each piece's space checks its chain when it is
    built; colimit.validate_system builds the system, which checks itself,
    comparing each overlap on top levels. Every piece is read and checked in
    full before the next, and every piece before the upper triples, the meta
    lines and the checks across pieces. A piece's space is over its carrier
    in ambient order. An upper triple's read faults are reported in order:
    not a triple, then its first non-integer entry, then a pair (r, s)
    already given in that order; its path is built only for the report. An
    index out of range and a pair given again in reverse order are the
    system's own checks, made after the meta lines are read, and raise its
    ValidationError naming the pieces."""
    _check_keys(body, ("ambient", "pieces"), ("upper", "meta"), path)
    ambient = _points(body["ambient"], f"{path}.ambient")
    raw_pieces = body["pieces"]
    if not isinstance(raw_pieces, list) or not raw_pieces:
        _fail("expected a non-empty list of pieces", f"{path}.pieces")
    pieces = []
    for i, rp in enumerate(raw_pieces):
        p_path = f"{path}.pieces[{i}]"
        _check_keys(rp, ("name", "carrier", "scales"), (), p_path)
        if not isinstance(rp["name"], str):
            _fail("piece name must be a string", f"{p_path}.name")
        carrier = _points(rp["carrier"], f"{p_path}.carrier")
        for p in carrier:
            if p not in ambient:
                _fail(f"unknown point {p!r}", f"{p_path}.carrier")
        if len(carrier) < len(ambient) and (ordered := ambient.sort(carrier)) != carrier.ids:
            carrier = PointSet(ordered)
        sub = ambient if len(carrier) == len(ambient) else carrier
        levels = _family_list(rp["scales"], sub, f"{p_path}.scales", "scales")
        pieces.append(Piece(rp["name"], validate_space(sub, levels)))
    upper = {}
    if "upper" in body:
        raw_upper = body["upper"]
        if not isinstance(raw_upper, list):
            _fail("expected a list of triples", f"{path}.upper")
        for i, triple in enumerate(raw_upper):
            if not isinstance(triple, list) or len(triple) != 3:
                _fail("expected a [r, s, t] triple", f"{path}.upper[{i}]")
            for x in triple:
                if not isinstance(x, int) or isinstance(x, bool):
                    _fail("expected an integer", f"{path}.upper[{i}]")
            r, s, t = triple
            if (r, s) in upper:
                _fail(f"upper bound of pieces {r} and {s} given twice", f"{path}.upper[{i}]")
            upper[r, s] = t
    meta = _str_list(body.get("meta", []), f"{path}.meta")
    return validate_system(ambient, pieces, upper, meta)


def system_to_doc(system: FilteredSystem) -> Document:
    body = {
        "ambient": list(system.ambient.ids),
        "pieces": [
            {
                "name": pc.name,
                "carrier": list(pc.space.points.ids),
                "scales": _encode(pc.space.levels),
            }
            for pc in system.pieces
        ],
        "upper": [[r, s, t] for (r, s), t in sorted(system.upper.items())],
    }
    if system.meta:
        body["meta"] = list(system.meta)
    return Document("system", VERSION, body)


# family


def doc_to_family(body, path="body") -> Family:
    _check_keys(body, ("points", "members"), (), path)
    pts = _points(body["points"], f"{path}.points")
    return _family(body["members"], pts, f"{path}.members")


def family_to_doc(fam: Family) -> Document:
    body = {"points": list(fam.space.ids), "members": _encode(fam)}
    return Document("family", VERSION, body)


# map


def doc_to_map(body, path="body") -> GroundedMap:
    _check_keys(body, ("domain", "codomain", "table"), (), path)
    domain = _points(body["domain"], f"{path}.domain")
    codomain = _points(body["codomain"], f"{path}.codomain")
    table = body["table"]
    if not isinstance(table, dict):
        _fail("expected an object mapping points to points", f"{path}.table")
    for k, v in table.items():
        if not isinstance(v, str):
            _fail(f"image of {k!r} must be a string", f"{path}.table")
        if k not in domain:
            _fail(f"unknown domain point {k!r}", f"{path}.table")
    try:
        return grounded_map(domain, codomain, table)
    except CoarseError as exc:
        _fail(str(exc), f"{path}.table")


def map_to_doc(m: GroundedMap) -> Document:
    body = {
        "domain": list(m.domain.ids),
        "codomain": list(m.codomain.ids),
        "table": {p: m(p) for p in m.domain.ids},
    }
    return Document("map", VERSION, body)


# metric


def doc_to_metric(body, path="body") -> MetricTarget:
    _check_keys(body, ("points", "dist"), (), path)
    pts = _points(body["points"], f"{path}.points")
    raw = body["dist"]
    if not isinstance(raw, list):
        _fail("expected a list of distance rows", f"{path}.dist")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            _fail("expected a list of distances", f"{path}.dist[{i}]")
        rows.append(
            tuple(
                _fraction(v, f"{path}.dist[{i}][{j}]", allow_inf=True)
                for j, v in enumerate(row)
            )
        )
    return metric_target(pts, rows)


def metric_to_doc(t: MetricTarget) -> Document:
    body = {
        "points": list(t.points.ids),
        "dist": [[_encode_fraction(v) for v in row] for row in t.rows],
    }
    return Document("metric", VERSION, body)


# scale and bound values shared by witness bodies


def resolve_scale(value, target: Target, path="scale") -> Family:
    """A scale value is {"level": i}, {"piece": i, "level": j}, or members."""
    if isinstance(value, dict):
        if "piece" in value:
            _check_keys(value, ("piece", "level"), (), path)
            if isinstance(target, ScaledSpace):
                _fail("a piece reference needs a system target", path)
            s = _int(value["piece"], f"{path}.piece")
            if not 0 <= s < len(target.pieces):
                _fail(f"piece index {s} out of range", f"{path}.piece")
            level = partial(extended_level, target, s)
        else:
            _check_keys(value, ("level",), (), path)
            if not isinstance(target, ScaledSpace):
                _fail("a bare level reference needs a single-space target", path)
            level = target.level
        i = _int(value["level"], f"{path}.level")
        try:
            return level(i)
        except CoarseError as exc:
            _fail(str(exc), f"{path}.level")
    if isinstance(value, list):
        pts = target_points(target)
        return _family(value, pts, path)
    _fail("expected a level reference or a member list", path)


def resolve_bound(value, path="bound"):
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, dict):
        _check_keys(value, ("piece", "level"), (), path)
        return ColimitBoundedness(
            _int(value["piece"], f"{path}.piece"), _int(value["level"], f"{path}.level")
        )
    _fail("expected null, a level, or a piece certificate", path)


# witnesses: field types, the WITNESSES table, and its decoder and encoder


class FieldType(NamedTuple):
    """How one body field maps to one witness attribute.

    ``read(raw, path, got)`` decodes the raw value; ``got`` holds the target,
    the points the witness lives over (``"space"``) and every attribute read
    before this field. ``write(value, witness)`` gives the raw value back.
    An ``optional`` field may be left out of a body; ``read`` then gets None,
    as it does for a null.
    """

    read: Callable
    write: Callable = lambda value, w: _encode(value)
    optional: bool = False


def _by_point(raw, pts: PointSet, path, what) -> dict:
    """raw as an object keyed by points of pts; an unknown point is an error."""
    if not isinstance(raw, dict):
        _fail(f"expected an object mapping points to {what}", path)
    for p in raw:
        if p not in pts:
            _fail(f"unknown point {p!r}", path)
    return raw


def _read_weights(raw, path, got):
    pts, indices = got["space"], got["pou.indices"]
    raw = _by_point(raw, pts, path, "weight objects")
    pos = {name: k for k, name in enumerate(indices)}
    rows = []
    for p in pts.ids:
        row = [0] * len(indices)
        cell = raw.get(p, {})
        if not isinstance(cell, dict):
            _fail(f"weights at {p!r} must be an object", path)
        for name, v in cell.items():
            if name not in pos:
                _fail(f"unknown index {name!r}", f"{path}.{p}")
            row[pos[name]] = _entry(v, f"{path}.{p}.{name}")
        rows.append(tuple(row))
    return PartitionOfUnity(pts, indices, tuple(rows))


def _write_weights(pou, w) -> dict:
    """Each point's nonzero weights; a point with none is left out."""
    cells = (
        (p, {name: _encode_fraction(v) for name, v in compress(zip(pou.indices, row), row)})
        for p, row in zip(pou.space.ids, pou.rows)
    )
    return {p: cell for p, cell in cells if cell}


def _read_coords(raw, path, got) -> tuple:
    pts = got["space"]
    raw = _by_point(raw, pts, path, "coordinate rows")
    rows = []
    for p in pts.ids:
        if p not in raw:
            _fail(f"no coordinates for point {p!r}", path)
        row = raw[p]
        if not isinstance(row, list):
            _fail(f"coordinates of {p!r} must be a list", path)
        row_path = f"{path}.{p}"
        rows.append(tuple(_entry(v, row_path) for v in row))
    return tuple(rows)


def _write_coords(coords, w) -> dict:
    return dict(zip(w.scale.space.ids, (list(map(_encode_fraction, row)) for row in coords)))


def _read_sets(raw, path, got) -> tuple:
    pts = got["space"]
    raw = _by_point(raw, pts, path, "tag lists")
    sets = []
    for p in pts.ids:
        if p not in raw:
            _fail(f"no tag set for point {p!r}", path)
        tags = raw[p]
        if not isinstance(tags, list):
            _fail(f"tags at {p!r} must be a list", path)
        parsed = set()
        for t in tags:
            if not isinstance(t, list) or len(t) != 2 or not isinstance(t[0], str):
                _fail(f"tags at {p!r} must be [point, index] pairs", path)
            parsed.add((t[0], _int(t[1], f"{path}.{p}")))
        sets.append(frozenset(parsed))
    return tuple(sets)


def _write_by_point(rows, w) -> dict:
    return dict(zip(w.scale.space.ids, _encode(rows)))


def _read_bounds(raw, path, got) -> tuple:
    if not isinstance(raw, list):
        _fail("expected a list of bounds", path)
    return tuple(resolve_bound(b, f"{path}[{i}]") for i, b in enumerate(raw))


def _read_chain(raw, path, got) -> Optional[tuple]:
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        _fail("expected a non-empty list of scales", path)
    return tuple(resolve_scale(v, got["target"], f"{path}[{i}]") for i, v in enumerate(raw))


SCALE = FieldType(lambda raw, path, got: resolve_scale(raw, got["target"], path))
FAMILY = FieldType(lambda raw, path, got: _family(raw, got["space"], path))
FRACTION = FieldType(lambda raw, path, got: _fraction(raw, path))
INTEGER = FieldType(lambda raw, path, got: _int(raw, path))
BOUND = FieldType(lambda raw, path, got: resolve_bound(raw, path), optional=True)
BOUNDS = FieldType(_read_bounds)
CHAIN = FieldType(_read_chain, optional=True)
NAMES = FieldType(lambda raw, path, got: _str_list(raw, path))
POINTS = FieldType(lambda raw, path, got: _points(raw, path))
FAMILIES = FieldType(lambda raw, path, got: _family_list(raw, got["space"], path, "families"))
SELECTIONS = FieldType(lambda raw, path, got: _family_list(raw, got["space"], path, "selections"))
WEIGHTS = FieldType(_read_weights, _write_weights)
COORDS = FieldType(_read_coords, _write_coords)
SETS = FieldType(_read_sets, _write_by_point)


@dataclass(frozen=True)
class WitnessCodec:
    cls: type
    fields: tuple  # (body key, witness attribute, FieldType), in decode order


WITNESSES = {
    "witness:apc": WitnessCodec(ApcWitness, (
        ("selections", "selections", SELECTIONS),
        ("bounds", "bounds", BOUNDS),
        ("chain", "chain", CHAIN),
    )),
    "witness:asdim": WitnessCodec(AsdimWitness, (
        ("scale", "scale", SCALE),
        ("coarsening", "coarsening", FAMILY),
        ("bound", "bound", BOUND),
    )),
    "witness:exactness": WitnessCodec(ExactnessWitness, (
        ("scale", "scale", SCALE),
        ("eps", "eps", FRACTION),
        ("indices", "pou.indices", NAMES),
        ("weights", "pou", WEIGHTS),
        ("support_bound", "support_bound", BOUND),
    )),
    "witness:pinch": WitnessCodec(PinchWitness, (
        ("scale", "scale", SCALE),
        ("sep", "sep", FAMILY),
        ("c", "c", FRACTION),
        ("eps", "eps", FRACTION),
        ("dim", "dim", INTEGER),
        ("coords", "coords", COORDS),
        ("sep_bound", "sep_bound", BOUND),
    )),
    "witness:amenability": WitnessCodec(AmenabilityWitness, (
        ("scale", "scale", SCALE),
        ("companion", "v", FAMILY),
        ("eps", "eps", FRACTION),
        ("bound", "v_bound", BOUND),
    )),
    "witness:property_a": WitnessCodec(PropertyAFamily, (
        ("scale", "scale", SCALE),
        ("support", "support", FAMILY),
        ("eps", "eps", FRACTION),
        ("n_cap", "n_cap", INTEGER),
        ("sets", "sets", SETS),
        ("support_bound", "support_bound", BOUND),
    )),
    "witness:generators": WitnessCodec(GeneratorSet, (
        ("points", "space", POINTS),
        ("families", "families", FAMILIES),
    )),
}


def decode_witness(kind: str, body, target: Optional[Target] = None, path="body"):
    """The witness a body of a WITNESSES kind describes over target."""
    row = WITNESSES[kind].fields
    required = [key for key, _, ftype in row if not ftype.optional]
    _check_keys(body, required, [key for key, _, ftype in row if ftype.optional], path)
    got = {"target": target, "space": None if target is None else target_points(target)}
    for key, attr, ftype in row:
        got[attr] = ftype.read(body.get(key), f"{path}.{key}", got)
    cls = WITNESSES[kind].cls
    return cls(**{f.name: got[f.name] for f in class_fields(cls)})


def witness_to_doc(kind: str, w) -> Document:
    """The document of a witness of a WITNESSES kind."""
    body = {
        key: ftype.write(attrgetter(attr)(w), w) for key, attr, ftype in WITNESSES[kind].fields
    }
    return Document(kind, VERSION, body)


# report


def report_to_doc(report: Report, provenance: dict) -> Document:
    body = {
        "verdict": report.verdict.value,
        "clauses": [
            {
                "name": c.name,
                "ok": c.ok,
                "detail": c.detail,
                "truncation": c.truncation,
            }
            for c in report.clauses
        ],
        "provenance": provenance,
    }
    return Document("report", VERSION, body)


def _validate_report_body(body, path="body"):
    _check_keys(body, ("verdict", "clauses", "provenance"), ("artifacts",), path)
    if "artifacts" in body and not isinstance(body["artifacts"], dict):
        _fail("expected an object", f"{path}.artifacts")
    if body["verdict"] not in ("verified", "refuted", "undecided-at-truncation"):
        _fail(f"unknown verdict {body['verdict']!r}", f"{path}.verdict")
    if not isinstance(body["clauses"], list):
        _fail("expected a list of clauses", f"{path}.clauses")
    for i, c in enumerate(body["clauses"]):
        _check_keys(c, ("name", "ok", "detail", "truncation"), (), f"{path}.clauses[{i}]")
    if not isinstance(body["provenance"], dict):
        _fail("expected an object", f"{path}.provenance")


# kind -> decoder of its body; a witness decoder takes the target second
DECODERS = {
    "space": doc_to_space,
    "system": doc_to_system,
    "family": doc_to_family,
    "map": doc_to_map,
    "metric": doc_to_metric,
    "report": _validate_report_body,
    **{kind: partial(decode_witness, kind) for kind in WITNESSES},
}
KINDS = tuple(DECODERS)


def _json_object(pairs: list) -> dict:
    """A JSON object from its key-value pairs, refusing a repeated key: a
    reader that kept the first value would see another document behind the
    same digest."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(f"duplicate key {key!r} in a JSON object")
    return obj


_JSON = json.JSONDecoder(object_pairs_hook=_json_object)  # one scanner, built once


def parse_document(text: str) -> Document:
    """Strict parse of the envelope: JSON text with no repeated object key,
    the three envelope fields, a known kind and the supported version, all
    as ParseError.

    The body is left as read; its DECODERS entry reads it, once a witness
    has its verification target, raising ParseError where reading fails and
    ValidationError or DomainError from the builder it calls (see the
    comment above doc_to_space).
    """
    try:
        if text.startswith("\ufeff"):  # json.loads refuses a BOM so; its decoder does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw = _JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer past the limit of int() on text
        raise ParseError(
            f"an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise ParseError("document nests too deeply to parse") from None
    _check_keys(raw, ("kind", "version", "body"), (), "document")
    kind = raw["kind"]
    if kind not in KINDS:
        _fail(f"unknown kind {kind!r}", "document.kind")
    if raw["version"] != VERSION:
        _fail(f"unsupported version {raw['version']!r}", "document.version")
    return Document(kind, raw["version"], raw["body"])


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == INF:
        return "Infinity"
    if x == -INF:
        return "-Infinity"
    return float.__repr__(x)


@dataclass(frozen=True)
class Emitted:
    """The text emit_document gave for a document, less its final newline.

    _write nests it at any indent without writing the document again: its
    newlines are all structural, since escaped strings hold none.
    """

    text: str


# The text of a scalar by its exact type: a bool is not written as an int,
# and a subclass of any of these is written item by item.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
    float: _float_text,
}


def _write(value, indent: str, out: list) -> None:
    """Append the canonical text of one JSON value, nested at ``indent``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        try:
            # Member lists, all strings, make up most of every document;
            # the encoder raises TypeError at the first item that is not.
            out.append(sep.join(map(encode_basestring_ascii, value)))
        except TypeError:
            # Then lists of scalars, such as coordinate rows; a list that
            # starts with a container goes item by item at once.
            text = None
            if type(value[0]) in _SCALAR_TEXT:
                try:
                    text = sep.join([_SCALAR_TEXT[type(v)](v) for v in value])
                except KeyError:
                    pass
            if text is None:
                _write(value[0], inner, out)
                for v in value[1:]:
                    out.append(sep)
                    _write(v, inner, out)
            else:
                out.append(text)
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = ",\n" + inner
        head = "{\n" + inner
        for k in sorted(value):
            # raises TypeError on a key that is not a str
            out.append(head + encode_basestring_ascii(k) + ": ")
            head = sep
            _write(value[k], inner, out)
        out.append("\n" + indent + "}")
    elif isinstance(value, Emitted):
        out.append(value.text.replace("\n", "\n" + indent))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_document(doc: Document) -> str:
    """The canonical text of a document: see the module docstring."""
    if not isinstance(doc.body, dict):
        raise ParseError("document body must be an object")
    out: list = []
    _write({"kind": doc.kind, "version": doc.version, "body": doc.body}, "", out)
    out.append("\n")
    return "".join(out)
