"""Textual document format: one strict, versioned JSON envelope per object.

Every document is {"kind": ..., "version": "1", "body": ...}. Unknown fields
are rejected, rationals travel as "p/q" strings (plain integers allowed),
metric infinities as "inf". Emission is canonical: sorted keys, two-space
indent, members listed in point order, so equal objects serialize to equal
bytes.

``emit_document`` is a small writer of its own. It gives the bytes the
standard ``json`` encoder gives with a two-space indent, sorted keys and its
other defaults, plus a final newline; ``json`` itself would fall back to its
pure-Python encoder whenever an indent is asked for. The rule: ``": "`` after
each key, a comma, a newline and the indent between items, ``{}`` and ``[]``
for empty containers, strings escaped to ASCII. Its values are str, None,
bool, int, float (``NaN``, ``Infinity`` and ``-Infinity`` as ``json`` writes
them), list or tuple, and dict with str keys; any other value or key raises
``TypeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Union

from .colimit import ColimitBoundedness, FilteredSystem, Piece, extended_level, validate_system
from .errors import CoarseError, ParseError
from .families import Family, PointSet
from .invariants import (
    AmenabilityWitness,
    ApcWitness,
    AsdimWitness,
    ExactnessWitness,
    GeneratorSet,
    PinchWitness,
    PropertyAFamily,
    Target,
    generator_set,
    partition_of_unity,
)
from .invariants.common import target_points
from .maps import GroundedMap, MetricTarget, INF, metric_target
from .reports import Report
from .spaces import ScaledSpace, validate_space

VERSION = "1"

WITNESS_KINDS = (
    "witness:asdim",
    "witness:apc",
    "witness:exactness",
    "witness:pinch",
    "witness:amenability",
    "witness:property_a",
    "witness:generators",
)
KINDS = ("space", "system", "family", "map", "metric", "report") + WITNESS_KINDS


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
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            _fail(f"malformed rational {v!r}", path)
    _fail("expected an integer or a 'p/q' string", path)


def _encode_fraction(v) -> Union[int, str]:
    if v == INF:
        return "inf"
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else str(v)


def _points(v, path) -> PointSet:
    ids = _str_list(v, path)
    try:
        return PointSet(ids)
    except CoarseError as exc:
        _fail(str(exc), path)


def _members(v, pts: PointSet, path) -> tuple[frozenset, ...]:
    if not isinstance(v, list):
        _fail("expected a list of members", path)
    keys = pts._index.keys()
    out = []
    for i, m in enumerate(v):
        try:
            s = frozenset(m) if isinstance(m, list) else None
        except TypeError:  # an unhashable entry
            s = None
        if s is None or not keys >= s:
            # the per-point check words the error: first bad entry in list order
            for p in _str_list(m, f"{path}[{i}]"):
                if p not in pts:
                    _fail(f"unknown point {p!r}", f"{path}[{i}]")
            raise AssertionError("a member failing the set check has a bad entry")
        out.append(s)
    return tuple(out)


def _encode_members(fam: Family) -> list:
    return [list(fam.space.sort(m)) for m in fam.members]


def _scales(v, pts: PointSet, path) -> tuple[Family, ...]:
    if not isinstance(v, list) or not v:
        _fail("expected a non-empty list of scales", path)
    return tuple(
        Family(pts, _members(level, pts, f"{path}[{i}]"))
        for i, level in enumerate(v)
    )


def _encode_scales(levels) -> list:
    return [_encode_members(lv) for lv in levels]


# Structural problems raise ParseError; builders below let the semantic
# checks (covering, monotonicity, coincidence, metric axioms) surface as
# ValidationError or DomainError so callers can tell the layers apart.


# space


def doc_to_space(body, path="body") -> ScaledSpace:
    _check_keys(body, ("points", "scales"), (), path)
    pts = _points(body["points"], f"{path}.points")
    levels = _scales(body["scales"], pts, f"{path}.scales")
    return validate_space(pts, levels)


def space_to_doc(sp: ScaledSpace) -> Document:
    body = {"points": list(sp.points.ids), "scales": _encode_scales(sp.levels)}
    return Document("space", VERSION, body)


# system


def doc_to_system(body, path="body") -> FilteredSystem:
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
        carrier_ids = _str_list(rp["carrier"], f"{p_path}.carrier")
        for p in carrier_ids:
            if p not in ambient:
                _fail(f"unknown point {p!r}", f"{p_path}.carrier")
        if len(set(carrier_ids)) != len(carrier_ids):
            _fail("duplicate point in carrier", f"{p_path}.carrier")
        carrier = frozenset(carrier_ids)
        sub = PointSet(tuple(p for p in ambient.ids if p in carrier))
        levels = _scales(rp["scales"], sub, f"{p_path}.scales")
        pieces.append(Piece(rp["name"], carrier, validate_space(sub, levels)))
    upper = None
    if "upper" in body:
        raw_upper = body["upper"]
        if not isinstance(raw_upper, list):
            _fail("expected a list of triples", f"{path}.upper")
        upper = {}
        for i, triple in enumerate(raw_upper):
            t_path = f"{path}.upper[{i}]"
            if not isinstance(triple, list) or len(triple) != 3:
                _fail("expected a [r, s, t] triple", t_path)
            r, s, t = (_int(x, t_path) for x in triple)
            for x in (r, s, t):
                if not 0 <= x < len(pieces):
                    _fail(f"piece index {x} out of range", t_path)
            upper[(r, s)] = t
    meta = _str_list(body.get("meta", []), f"{path}.meta")
    return validate_system(ambient, pieces, upper, meta)


def system_to_doc(system: FilteredSystem) -> Document:
    body = {
        "ambient": list(system.ambient.ids),
        "pieces": [
            {
                "name": pc.name,
                "carrier": list(system.ambient.sort(pc.carrier)),
                "scales": _encode_scales(pc.space.levels),
            }
            for pc in system.pieces
        ],
        "upper": [list(t) for t in system.upper],
    }
    if system.meta:
        body["meta"] = list(system.meta)
    return Document("system", VERSION, body)


# family


def doc_to_family(body, path="body") -> Family:
    _check_keys(body, ("points", "members"), (), path)
    pts = _points(body["points"], f"{path}.points")
    return Family(pts, _members(body["members"], pts, f"{path}.members"))


def family_to_doc(fam: Family) -> Document:
    body = {"points": list(fam.space.ids), "members": _encode_members(fam)}
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
        if v not in codomain:
            _fail(f"unknown codomain point {v!r}", f"{path}.table")
    missing = next((p for p in domain.ids if p not in table), None)
    if missing is not None:
        _fail(f"no image for point {missing!r}", f"{path}.table")
    return GroundedMap(domain, codomain, tuple(table[p] for p in domain.ids))


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
    if not isinstance(raw, list) or len(raw) != len(pts):
        _fail("expected one distance row per point", f"{path}.dist")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(pts):
            _fail("row length must match the point count", f"{path}.dist[{i}]")
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
            i = _int(value["level"], f"{path}.level")
            depth = target.pieces[s].space.depth
            if not 1 <= i <= depth:
                _fail(f"level {i} out of range 1..{depth}", f"{path}.level")
            return extended_level(target, s, i)
        _check_keys(value, ("level",), (), path)
        if not isinstance(target, ScaledSpace):
            _fail("a bare level reference needs a single-space target", path)
        i = _int(value["level"], f"{path}.level")
        if not 1 <= i <= target.depth:
            _fail(f"level {i} out of range 1..{target.depth}", f"{path}.level")
        return target.level(i)
    if isinstance(value, list):
        pts = target_points(target)
        return Family(pts, _members(value, pts, path))
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


def encode_bound(bound) -> Any:
    if bound is None or isinstance(bound, int):
        return bound
    return {"piece": bound.piece, "level": bound.level}


# witnesses


def doc_to_asdim_witness(body, target: Target, path="body") -> AsdimWitness:
    _check_keys(body, ("scale", "coarsening"), ("bound",), path)
    pts = target_points(target)
    return AsdimWitness(
        resolve_scale(body["scale"], target, f"{path}.scale"),
        Family(pts, _members(body["coarsening"], pts, f"{path}.coarsening")),
        resolve_bound(body.get("bound"), f"{path}.bound"),
    )


def asdim_witness_to_doc(w: AsdimWitness) -> Document:
    body = {
        "scale": _encode_members(w.scale),
        "coarsening": _encode_members(w.coarsening),
        "bound": encode_bound(w.bound),
    }
    return Document("witness:asdim", VERSION, body)


def doc_to_apc_witness(body, target: Target, path="body"):
    _check_keys(body, ("selections", "bounds"), ("chain",), path)
    pts = target_points(target)
    raw = body["selections"]
    if not isinstance(raw, list) or not raw:
        _fail("expected a non-empty list of selections", f"{path}.selections")
    selections = tuple(
        Family(pts, _members(sel, pts, f"{path}.selections[{i}]"))
        for i, sel in enumerate(raw)
    )
    raw_bounds = body["bounds"]
    if not isinstance(raw_bounds, list) or len(raw_bounds) != len(selections):
        _fail("expected one bound per selection", f"{path}.bounds")
    bounds = tuple(
        resolve_bound(b, f"{path}.bounds[{i}]") for i, b in enumerate(raw_bounds)
    )
    chain = None
    if "chain" in body:
        raw_chain = body["chain"]
        if not isinstance(raw_chain, list) or not raw_chain:
            _fail("expected a non-empty list of scales", f"{path}.chain")
        chain = tuple(
            resolve_scale(v, target, f"{path}.chain[{i}]")
            for i, v in enumerate(raw_chain)
        )
    return ApcWitness(selections, bounds), chain


def apc_witness_to_doc(w: ApcWitness, chain=None) -> Document:
    body = {
        "selections": [_encode_members(sel) for sel in w.selections],
        "bounds": [encode_bound(b) for b in w.bounds],
    }
    if chain is not None:
        body["chain"] = [_encode_members(u) for u in chain]
    return Document("witness:apc", VERSION, body)


def doc_to_exactness_witness(body, target: Target, path="body") -> ExactnessWitness:
    _check_keys(body, ("scale", "eps", "indices", "weights"), ("support_bound",), path)
    pts = target_points(target)
    indices = _str_list(body["indices"], f"{path}.indices")
    raw = body["weights"]
    if not isinstance(raw, dict):
        _fail("expected an object mapping points to weight objects", f"{path}.weights")
    for p in raw:
        if p not in pts:
            _fail(f"unknown point {p!r}", f"{path}.weights")
    pos = {name: k for k, name in enumerate(indices)}
    rows = []
    for p in pts.ids:
        row = [Fraction(0)] * len(indices)
        cell = raw.get(p, {})
        if not isinstance(cell, dict):
            _fail(f"weights at {p!r} must be an object", f"{path}.weights")
        for name, v in cell.items():
            if name not in pos:
                _fail(f"unknown index {name!r}", f"{path}.weights.{p}")
            row[pos[name]] = _fraction(v, f"{path}.weights.{p}.{name}")
        rows.append(tuple(row))
    pou = partition_of_unity(pts, indices, rows)
    return ExactnessWitness(
        resolve_scale(body["scale"], target, f"{path}.scale"),
        _positive_fraction(body["eps"], f"{path}.eps"),
        pou,
        resolve_bound(body.get("support_bound"), f"{path}.support_bound"),
    )


def _positive_fraction(v, path) -> Fraction:
    f = _fraction(v, path)
    if f <= 0:
        _fail("expected a positive rational", path)
    return f


def exactness_witness_to_doc(w: ExactnessWitness) -> Document:
    weights = {}
    for p, row in zip(w.pou.space.ids, w.pou.rows):
        cell = {
            name: _encode_fraction(v)
            for name, v in zip(w.pou.indices, row)
            if v != 0
        }
        if cell:
            weights[p] = cell
    body = {
        "scale": _encode_members(w.scale),
        "eps": _encode_fraction(w.eps),
        "indices": list(w.pou.indices),
        "weights": weights,
        "support_bound": encode_bound(w.support_bound),
    }
    return Document("witness:exactness", VERSION, body)


def doc_to_pinch_witness(body, target: Target, path="body") -> PinchWitness:
    _check_keys(
        body, ("scale", "sep", "c", "eps", "dim", "coords"), ("sep_bound",), path
    )
    pts = target_points(target)
    dim = _int(body["dim"], f"{path}.dim")
    raw = body["coords"]
    if not isinstance(raw, dict):
        _fail("expected an object mapping points to coordinate rows", f"{path}.coords")
    rows = []
    for p in pts.ids:
        if p not in raw:
            _fail(f"no coordinates for point {p!r}", f"{path}.coords")
        row = raw[p]
        if not isinstance(row, list) or len(row) != dim:
            _fail(
                f"coordinates of {p!r} must be a list of length {dim}",
                f"{path}.coords",
            )
        rows.append(tuple(_fraction(v, f"{path}.coords.{p}") for v in row))
    for p in raw:
        if p not in pts:
            _fail(f"unknown point {p!r}", f"{path}.coords")
    return PinchWitness(
        pts,
        dim,
        tuple(rows),
        resolve_scale(body["scale"], target, f"{path}.scale"),
        Family(pts, _members(body["sep"], pts, f"{path}.sep")),
        _positive_fraction(body["c"], f"{path}.c"),
        _positive_fraction(body["eps"], f"{path}.eps"),
        resolve_bound(body.get("sep_bound"), f"{path}.sep_bound"),
    )


def pinch_witness_to_doc(w: PinchWitness) -> Document:
    body = {
        "scale": _encode_members(w.scale),
        "sep": _encode_members(w.sep),
        "c": _encode_fraction(w.c),
        "eps": _encode_fraction(w.eps),
        "dim": w.dim,
        "coords": {
            p: [_encode_fraction(v) for v in row]
            for p, row in zip(w.space.ids, w.coords)
        },
        "sep_bound": encode_bound(w.sep_bound),
    }
    return Document("witness:pinch", VERSION, body)


def doc_to_amenability_witness(body, target: Target, path="body") -> AmenabilityWitness:
    _check_keys(body, ("scale", "companion", "eps"), ("bound",), path)
    pts = target_points(target)
    return AmenabilityWitness(
        resolve_scale(body["scale"], target, f"{path}.scale"),
        Family(pts, _members(body["companion"], pts, f"{path}.companion")),
        _positive_fraction(body["eps"], f"{path}.eps"),
        resolve_bound(body.get("bound"), f"{path}.bound"),
    )


def amenability_witness_to_doc(w: AmenabilityWitness) -> Document:
    body = {
        "scale": _encode_members(w.scale),
        "companion": _encode_members(w.v),
        "eps": _encode_fraction(w.eps),
        "bound": encode_bound(w.v_bound),
    }
    return Document("witness:amenability", VERSION, body)


def doc_to_property_a_witness(body, target: Target, path="body") -> PropertyAFamily:
    _check_keys(
        body,
        ("scale", "support", "eps", "n_cap", "sets"),
        ("support_bound",),
        path,
    )
    pts = target_points(target)
    raw = body["sets"]
    if not isinstance(raw, dict):
        _fail("expected an object mapping points to tag lists", f"{path}.sets")
    for p in raw:
        if p not in pts:
            _fail(f"unknown point {p!r}", f"{path}.sets")
    sets = []
    for p in pts.ids:
        if p not in raw:
            _fail(f"no tag set for point {p!r}", f"{path}.sets")
        tags = raw[p]
        if not isinstance(tags, list):
            _fail(f"tags at {p!r} must be a list", f"{path}.sets")
        parsed = set()
        for t in tags:
            if (
                not isinstance(t, list)
                or len(t) != 2
                or not isinstance(t[0], str)
            ):
                _fail(f"tags at {p!r} must be [point, index] pairs", f"{path}.sets")
            parsed.add((t[0], _int(t[1], f"{path}.sets.{p}")))
        sets.append(frozenset(parsed))
    return PropertyAFamily(
        pts,
        _int(body["n_cap"], f"{path}.n_cap"),
        tuple(sets),
        resolve_scale(body["scale"], target, f"{path}.scale"),
        Family(pts, _members(body["support"], pts, f"{path}.support")),
        _positive_fraction(body["eps"], f"{path}.eps"),
        resolve_bound(body.get("support_bound"), f"{path}.support_bound"),
    )


def property_a_witness_to_doc(w: PropertyAFamily) -> Document:
    body = {
        "scale": _encode_members(w.scale),
        "support": _encode_members(w.support),
        "eps": _encode_fraction(w.eps),
        "n_cap": w.n_cap,
        "sets": {
            p: [[q, k] for q, k in sorted(w.tags(p))] for p in w.space.ids
        },
        "support_bound": encode_bound(w.support_bound),
    }
    return Document("witness:property_a", VERSION, body)


def doc_to_generators(body, path="body") -> GeneratorSet:
    _check_keys(body, ("points", "families"), (), path)
    pts = _points(body["points"], f"{path}.points")
    raw = body["families"]
    if not isinstance(raw, list) or not raw:
        _fail("expected a non-empty list of families", f"{path}.families")
    families = tuple(
        Family(pts, _members(fam, pts, f"{path}.families[{i}]"))
        for i, fam in enumerate(raw)
    )
    return generator_set(pts, families)


def generators_to_doc(g: GeneratorSet) -> Document:
    body = {
        "points": list(g.space.ids),
        "families": [_encode_members(fam) for fam in g.families],
    }
    return Document("witness:generators", VERSION, body)


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


_BODY_VALIDATORS = {
    "space": doc_to_space,
    "system": doc_to_system,
    "family": doc_to_family,
    "map": doc_to_map,
    "metric": doc_to_metric,
    "witness:generators": doc_to_generators,
    "report": _validate_report_body,
}


def parse_document(text: str, validate_body: bool = True) -> Document:
    """Strict parse; body semantics are checked for self-contained kinds.

    Witness bodies other than generator sets need a verification target to
    resolve level references, so only their envelope is checked here; the
    doc_to_* converters finish the job once the target is known. Structural
    problems raise ParseError; a well-formed body that fails its semantic
    checks raises ValidationError or DomainError from the relevant builder.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ParseError("document nests too deeply to parse") from None
    _check_keys(raw, ("kind", "version", "body"), (), "document")
    kind = raw["kind"]
    if kind not in KINDS:
        _fail(f"unknown kind {kind!r}", "document.kind")
    if raw["version"] != VERSION:
        _fail(f"unsupported version {raw['version']!r}", "document.version")
    doc = Document(kind, raw["version"], raw["body"])
    if validate_body and kind in _BODY_VALIDATORS:
        _BODY_VALIDATORS[kind](doc.body)
    return doc


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == INF:
        return "Infinity"
    if x == -INF:
        return "-Infinity"
    return float.__repr__(x)


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
            _write(value[0], inner, out)
            for v in value[1:]:
                out.append(sep)
                _write(v, inner, out)
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
