"""Command line front end.

Exit codes follow the verdict: 0 verified, 1 refuted, 2 undecided at this
truncation, 64 for usage mistakes, 65 for unreadable or invalid input
documents. Reports print as text by default; --format structured emits a
single report document whose provenance (input digests, tool version) is
stable across reruns on identical inputs.

A command's argv is parsed in one argparse pass: when it starts with a
command's exact name, that command's own parser reads the rest, as the top
parser would have it do; anything else goes to the top parser. Either way
leftover arguments are refused by the top parser.

Every read of an input document, validate's included, reads its file, and
provenance records the SHA-256 of exactly the bytes read. The process keeps
the bytes and digest of the 64 most recently read paths, so their bytes stay
in memory: a re-read whose bytes equal that path's last read reuses its
digest, and any other bytes are hashed afresh. Identical bytes are parsed and
decoded once per process: a later read, such as the next command of a caller
that runs many, reuses the decoded value.

An output document is emitted once. The -o file holds that text, and a
structured report nests the same text as its artifacts entry.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import or_
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__
from . import documents as docs
from .colimit import colimit_bounded, colimit_star
from .corpus import (
    RandomCaps,
    check_island_caps,
    gen_c0,
    gen_disjoint_union,
    gen_random_system,
    gen_unit_interval,
)
from .errors import CoarseError, DomainError, ParseError, TruncationError, ValidationError
from .families import Family, PointSet, reroot
from .invariants import (
    amenability_lift,
    amenability_verify,
    apc_probe,
    apc_verify,
    asdim_lift,
    asdim_restrict,
    asdim_search,
    asdim_verify,
    exactness_lift,
    exactness_verify,
    metrizability_generator_check,
    metrizability_merge,
    pinch_lift,
    pinch_verify,
    property_a_lift,
    property_a_verify,
)
from .maps import (
    bornologous_check,
    close_report,
    path_metric,
    slowly_oscillating_search,
    slowly_oscillating_verify,
    system_bornologous_check,
    system_slowly_oscillating_verify,
)
from .reports import Clause, Report, SearchOutcome, Verdict, from_clauses, offense_clause
from .spaces import ScaledSpace

EX_VERIFIED = 0
EX_REFUTED = 1
EX_UNDECIDED = 2
EX_USAGE = 64
EX_DATA = 65

_EXIT = {
    Verdict.VERIFIED: EX_VERIFIED,
    Verdict.REFUTED: EX_REFUTED,
    Verdict.UNDECIDED: EX_UNDECIDED,
}


class _Parser(argparse.ArgumentParser):
    commands: dict  # command name -> its subparser, on the top parser only

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _check_kind(path: str, kind: str, kinds: Sequence[str]) -> None:
    if kind not in kinds:
        raise ParseError(f"{path}: expected a {' or '.join(kinds)} document, got {kind!r}")


def _parse(path: str, data: bytes, kinds: Sequence[str]) -> docs.Document:
    """Parse the bytes of one input document of the given kinds."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    doc = docs.parse_document(text)
    _check_kind(path, doc.kind, kinds)
    return doc


# Decoded inputs, least recently used first: (digest, the interpreter's
# integer-digit limit, ids of the decode target) -> (kind, value, target, the
# body's field names). An entry keeps its target alive, so an id in a live key
# names that one object. Only decodes that succeed are stored.
_DECODED: OrderedDict = OrderedDict()
DECODED_ENTRIES = 64

# Input paths, least recently read first: path -> (bytes, digest) of its last
# read, for at most DECODED_ENTRIES paths. Comparing bytes costs far less than
# hashing them, so a re-read of the same bytes reuses their digest.
_DIGESTED: OrderedDict = OrderedDict()


def _digested(args, path: str) -> bytes:
    """The bytes of one input document, whose digest is recorded in
    args.digests for the report's provenance before anything is written.

    The digest is always that of the bytes just read: it is taken afresh
    unless they equal the bytes this path held when last read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    last = _DIGESTED.pop(path, None)
    if last is None or last[0] != data:
        last = (data, "sha256:" + hashlib.sha256(data).hexdigest())
    _DIGESTED[path] = last
    if len(_DIGESTED) > DECODED_ENTRIES:
        _DIGESTED.popitem(last=False)
    args.digests[path] = last[1]
    return data


def _entry(args, path: str, kinds: Sequence[str], *target) -> tuple:
    """The memo entry of one input document of the given kinds, decoded
    over target.

    A witness body other than a generator set decodes over target. Bytes
    already decoded in this process, over the same target, are not parsed
    or decoded again: the entry made then is returned, once its kind is
    checked against kinds. Every read still reads the file and records the
    digest of the bytes it read.
    """
    data = _digested(args, path)
    key = (args.digests[path], sys.get_int_max_str_digits(), *map(id, target))
    entry = _DECODED.get(key)
    if entry is None:
        doc = _parse(path, data, kinds)
        value = docs.DECODERS[doc.kind](doc.body, *target)
        entry = (doc.kind, value, target, frozenset(doc.body))
        _DECODED[key] = entry
        if len(_DECODED) > DECODED_ENTRIES:
            _DECODED.popitem(last=False)
    else:
        _check_kind(path, entry[0], kinds)
        _DECODED.move_to_end(key)
    return entry


def _read(args, path: str, kinds: Sequence[str], *target):
    """Load one input document of the given kinds and decode its body over
    target, once per process for the same bytes (see _entry)."""
    return _entry(args, path, kinds, *target)[1]


def _load_family(args, path: str, pts: PointSet) -> Family:
    return reroot(_read(args, path, ("family",)), pts)


def _load_witness_set(args, path: str, pts: PointSet) -> frozenset:
    """The union of the members of a family document, over pts."""
    return frozenset(pts.points_of(reduce(or_, _load_family(args, path, pts).masks, 0)))


class _WriteFailure(Exception):
    """An output file or directory that could not be written."""


@contextmanager
def _writing():
    """Word an OSError raised inside as a failed write, not a failed read."""
    try:
        yield
    except OSError as exc:
        raise _WriteFailure(exc) from None


def _render(args, report: Report, artifact=None) -> int:
    """Print the report, persist the artifact if -o was given, return the exit code.

    Provenance lists the digest of every document the command read. The
    artifact is emitted once: the -o file and the structured report's
    artifacts entry are written from the same text.
    """
    out = getattr(args, "output", None)
    structured = getattr(args, "format", "text") == "structured"
    text = None
    if artifact is not None and (out or structured):
        text = docs.emit_document(artifact[1])
        if out:
            with _writing(), open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    provenance = {
        "inputs": args.digests,
        "tool": f"coarsekit {__version__}",
        "seed": None,
    }
    if structured:
        body = dict(docs.report_to_doc(report, provenance).body)
        if text is not None:
            body["artifacts"] = {artifact[0]: docs.Emitted(text[:-1])}
        sys.stdout.write(docs.emit_document(docs.Document("report", docs.VERSION, body)))
    else:
        print(f"verdict: {report.verdict.value}")
        for c in report.clauses:
            mark = "ok" if c.ok else ("??" if c.truncation else "FAIL")
            line = f"  [{mark}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            print(line)
        if artifact is not None and out:
            print(f"wrote {out}")
    return _EXIT[report.verdict]


def _truncation_report(name: str, exc: TruncationError) -> Report:
    return from_clauses([SearchOutcome(detail=str(exc)).clause(name)])


def _render_search(args, outcome: SearchOutcome, name: str, artifact: str, encode: Callable) -> int:
    """A search's clause under name when it found no witness, else its report
    on the witness, with the document encode(witness) as the artifact."""
    if outcome.witness is None:
        return _render(args, from_clauses([outcome.clause(name)]))
    return _render(args, outcome.report, artifact=(artifact, encode(outcome.witness)))


# commands


def cmd_validate(args) -> int:
    """Validate a space or system document, read as every command reads it.

    Every fact reported here is checked by the constructors that decoding
    builds through, and the memo holds only decodes that succeeded, keyed by
    the bytes' digest and the integer-digit limit. So a memo hit means these
    exact bytes already passed every check in this process, and is verified
    without a parse or decode. A decode failure is a refuted report, and no
    entry is stored for it. The system detail names whether the body gave
    an upper table, as the entry's field names record.
    """
    try:
        kind, decoded, _, fields = _entry(args, args.document, ("space", "system"))
    except (ValidationError, DomainError) as exc:
        return _render(args, from_clauses([offense_clause("document validates", str(exc))]))
    if kind == "space":
        clauses = [Clause("space validates", True, "chain is monotone and covering")]
    else:
        detail = (
            "upper bounds given in the document"
            if "upper" in fields
            else "upper bounds synthesized by containment search"
        )
        clauses = [
            Clause("system validates", True, detail),
            Clause("pieces", True, ", ".join(p.name for p in decoded.pieces)),
        ]
    return _render(args, from_clauses(clauses))


def cmd_bounded(args) -> int:
    system = _read(args, args.system, ("system",))
    fam = _load_family(args, args.family, system.ambient)
    cert = colimit_bounded(system, fam)
    if cert is None:
        absent = SearchOutcome(detail="no piece bounds the family within this truncation")
        clause = absent.clause("bounded in some piece")
    else:
        name = system.pieces[cert.piece].name
        clause = Clause("bounded in some piece", True, f"piece {name!r} at level {cert.level}")
    return _render(args, from_clauses([clause]))


def cmd_star(args) -> int:
    system = _read(args, args.system, ("system",))
    f = _load_family(args, args.first, system.ambient)
    g = _load_family(args, args.second, system.ambient)
    try:
        star, cert = colimit_star(system, f, g)
    except TruncationError as exc:
        return _render(args, _truncation_report("star stays bounded", exc))
    name = system.pieces[cert.piece].name
    report = from_clauses(
        [
            Clause("star assembled", True, f"{len(star)} members"),
            Clause("star stays bounded", True, f"piece {name!r} at level {cert.level}"),
        ]
    )
    return _render(args, report, artifact=("star", docs.family_to_doc(star)))


def _require(args, parser, names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            parser.error(f"--{name} is required here")


@dataclass(frozen=True)
class WitnessInvariant:
    """How check, check --search and lift handle one invariant's witnesses.

    Each slot is a lambda that looks the library function up by name when it
    is called, so code that rebinds module attributes (tracers, test doubles)
    sees every call. Witness documents are read and written by kind through
    ``documents``.
    """

    kind: str  # the witness document kind
    verify: Callable  # (target, witness, args) -> Report
    lift: Optional[Callable]  # (system, piece index, witness, args) -> witness
    needs: tuple[str, ...]  # flags that check and lift require
    lift_inputs: tuple[str, ...]  # flags naming further documents lift reads
    search: Optional[Callable] = None  # (space, args) -> reports.SearchOutcome


INVARIANTS = {
    "asdim": WitnessInvariant(
        kind="witness:asdim",
        verify=lambda t, w, a: asdim_verify(t, a.n, w),
        lift=lambda s, i, w, a: asdim_lift(s, i, a.n, w),
        needs=("n",),
        lift_inputs=(),
        search=lambda t, a: asdim_search(t, a.n, a.level),
    ),
    "apc": WitnessInvariant(
        kind="witness:apc",
        verify=lambda t, w, a: apc_verify(t, w),
        lift=None,
        needs=(),
        lift_inputs=(),
    ),
    "exactness": WitnessInvariant(
        kind="witness:exactness",
        verify=lambda t, w, a: exactness_verify(t, w),
        lift=lambda s, i, w, a: exactness_lift(s, i, w),
        needs=(),
        lift_inputs=(),
    ),
    "pinch": WitnessInvariant(
        kind="witness:pinch",
        verify=lambda t, w, a: pinch_verify(t, w),
        lift=lambda s, i, w, a: pinch_lift(s, i, w),
        needs=(),
        lift_inputs=(),
    ),
    "amenability": WitnessInvariant(
        kind="witness:amenability",
        verify=lambda t, w, a: amenability_verify(t, w),
        lift=lambda s, i, w, a: amenability_lift(
            s, i, w, _load_family(a, a.input, s.ambient)
        ),
        needs=(),
        lift_inputs=("input",),
    ),
    "property-a": WitnessInvariant(
        kind="witness:property_a",
        verify=lambda t, w, a: property_a_verify(t, w),
        lift=lambda s, i, w, a: property_a_lift(s, i, w),
        needs=(),
        lift_inputs=(),
    ),
}


def cmd_check(args) -> int:
    inv = INVARIANTS.get(args.invariant)
    if args.search and (inv is None or inv.search is None):
        args.parser.error(f"--search is not available for {args.invariant}")
    if args.search and args.witness is not None:
        args.parser.error("--search and --witness cannot be given together")
    if args.invariant == "generators":
        gens = _read(args, args.target, ("witness:generators",))
        return _render(args, metrizability_generator_check(gens))
    target = _read(args, args.target, ("space", "system"))
    _require(args, args.parser, inv.needs)
    if args.search:
        if not isinstance(target, ScaledSpace):
            raise DomainError("witness search needs a single-space target")
        _require(args, args.parser, ["level"])
        encode = lambda w: docs.witness_to_doc(inv.kind, w)
        return _render_search(args, inv.search(target, args), "witness search", "witness", encode)
    _require(args, args.parser, ["witness"])
    w = _read(args, args.witness, (inv.kind,), target)
    return _render(args, inv.verify(target, w, args))


def cmd_lift(args) -> int:
    system = _read(args, args.system, ("system",))
    if args.invariant == "generators":
        _require(args, args.parser, ["sets"])
        piece_sets = [_read(args, path, ("witness:generators",)) for path in args.sets]
        try:
            merged, report = metrizability_merge(system, piece_sets)
        except TruncationError as exc:
            return _render(args, _truncation_report("pairs coarsened after routing", exc))
        artifact = ("generators", docs.witness_to_doc("witness:generators", merged))
        return _render(args, report, artifact=artifact)
    _require(args, args.parser, ["piece", "witness"])
    idx = system.piece_index(args.piece)
    inv = INVARIANTS[args.invariant]
    _require(args, args.parser, inv.needs + inv.lift_inputs)
    w = _read(args, args.witness, (inv.kind,), system.pieces[idx].space)
    lifted = inv.lift(system, idx, w, args)
    report = inv.verify(system, lifted, args)
    return _render(args, report, artifact=("witness", docs.witness_to_doc(inv.kind, lifted)))


def cmd_restrict(args) -> int:
    system = _read(args, args.system, ("system",))
    idx = system.piece_index(args.piece)
    w = _read(args, args.witness, ("witness:asdim",), system)
    cut = asdim_restrict(system, idx, args.n, w)
    report = asdim_verify(system.pieces[idx].space, args.n, cut)
    return _render(args, report, artifact=("witness", docs.witness_to_doc("witness:asdim", cut)))


def cmd_map_check(args) -> int:
    mode = args.mode
    paths = args.documents
    parser = args.parser
    if mode == "bornologous":
        if len(paths) != 3:
            parser.error("bornologous needs SRC DST MAP")
        src = _read(args, paths[0], ("space", "system"))
        dst = _read(args, paths[1], ("space",))
        f = _read(args, paths[2], ("map",))
        if isinstance(src, ScaledSpace):
            report = bornologous_check(f, src, dst)
        else:
            report = system_bornologous_check(f, src, dst)
        return _render(args, report)
    if mode == "close":
        if len(paths) != 3:
            parser.error("close needs DST MAP MAP")
        dst = _read(args, paths[0], ("space",))
        f = _read(args, paths[1], ("map",))
        g = _read(args, paths[2], ("map",))
        return _render(args, close_report(f, g, dst))
    if len(paths) != 3:
        parser.error("so needs SRC METRIC MAP")
    if args.search and args.witness_set is not None:
        parser.error("--search and --witness-set cannot be given together")
    src = _read(args, paths[0], ("space", "system"))
    target = _read(args, paths[1], ("metric",))
    f = _read(args, paths[2], ("map",))
    _require(args, parser, ["eps"])
    if isinstance(src, ScaledSpace):
        _require(args, parser, ["level"])
        if args.search:
            outcome = slowly_oscillating_search(f, target, src, args.level, args.eps)
            pts = src.points
            encode = lambda b: docs.family_to_doc(Family.from_masks(pts, (pts.mask(b),)))
            return _render_search(args, outcome, "witness set search", "witness-set", encode)
        _require(args, parser, ["witness_set"])
        b = _load_witness_set(args, args.witness_set, src.points)
        report = slowly_oscillating_verify(f, target, src, args.level, args.eps, b)
        return _render(args, report)
    if args.search:
        raise DomainError("witness search needs a single-space source")
    _require(args, parser, ["scale", "witness_set"])
    scale = _load_family(args, args.scale, src.ambient)
    b = _load_witness_set(args, args.witness_set, src.ambient)
    report = system_slowly_oscillating_verify(f, target, src, scale, args.eps, b)
    return _render(args, report)


def _fraction(text: str) -> Fraction:
    """Fraction(text) for the text of a document rational only
    (documents.RATIONAL), so that no exponent form builds a huge integer."""
    if not docs.RATIONAL.fullmatch(text):
        raise ValueError(text)
    return Fraction(text)


def _rational(text: str) -> Fraction:
    try:
        return _fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _at_least(least: int):
    """An argparse type for integers no smaller than least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _parse_radii(text: Optional[str]):
    if text is None:
        return None
    try:
        return tuple(_fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"malformed radii list {text!r}") from None


def cmd_corpus(args) -> int:
    out = Path(args.out_dir)
    written = []

    def save(name: str, doc: docs.Document):
        path = out / name
        with _writing():
            out.mkdir(parents=True, exist_ok=True)  # a refused command leaves no directory
            path.write_text(docs.emit_document(doc), encoding="utf-8")
        written.append(path)

    kind = args.generator
    if kind == "c0":
        if args.s_max is None or args.box is None:
            args.parser.error("c0 needs --s-max and --box")
        system = gen_c0(args.s_max, args.box, _parse_radii(args.radii))
        save("system.json", docs.system_to_doc(system))
    elif kind == "disjoint-union":
        if not args.islands:
            args.parser.error("disjoint-union needs --islands")
        try:
            sizes = [int(part) for part in args.islands.split(",")]
        except ValueError:
            args.parser.error(f"malformed island sizes {args.islands!r}")
        check_island_caps(sizes)
        islands = [
            path_metric(PointSet(tuple(f"q{i}" for i in range(size))))
            for size in sizes
        ]
        system = gen_disjoint_union(islands, _parse_radii(args.radii))
        save("system.json", docs.system_to_doc(system))
    elif kind == "unit-interval":
        if args.n_max is None:
            args.parser.error("unit-interval needs --n-max")
        inst = gen_unit_interval(args.n_max)
        save("system.json", docs.system_to_doc(inst.system))
        save("reciprocal-map.json", docs.map_to_doc(inst.f))
        save("constant-map.json", docs.map_to_doc(inst.g))
        save("target-metric.json", docs.metric_to_doc(inst.target))
        for i, chain in enumerate(inst.piece_chains, start=1):
            save(f"piece-chain-{i}.json", docs.space_to_doc(chain))
        save("colimit-chain.json", docs.space_to_doc(inst.colimit_chain))
    else:
        if args.seed is None:
            args.parser.error("random needs --seed")
        caps = RandomCaps(points=args.points, pieces=args.pieces, depth=args.depth)
        system = gen_random_system(args.seed, caps)
        save("system.json", docs.system_to_doc(system))
    for path in written:
        print(f"wrote {path}")
    return EX_VERIFIED


def cmd_probe(args) -> int:
    system = _read(args, args.system, ("system",))
    outcome = apc_probe(system, prefix_len=args.prefix, budget=args.budget)
    w = outcome.colimit_witness
    artifact = None if w is None else ("witness", docs.witness_to_doc("witness:apc", w))
    return _render(args, outcome.report, artifact=artifact)


# parser assembly


@cache
def build_parser() -> _Parser:
    """The command line parser, built once per process and reused by main.

    Parsing leaves the parser unchanged: every call gets a fresh namespace
    with the declared defaults, and usage errors, help and --version write to
    the sys.stdout and sys.stderr in effect when they are raised.
    """
    parser = _Parser(prog="coarsekit", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"coarsekit {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report rendering (default: text)",
    )
    common.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the produced document (witness, family, ...) here",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    parser.commands = sub.choices

    sp = sub.add_parser("validate", parents=[common], help="validate a space or system document")
    sp.add_argument("document")
    sp.set_defaults(func=cmd_validate, parser=sp)

    sp = sub.add_parser("bounded", parents=[common], help="find a boundedness certificate")
    sp.add_argument("system")
    sp.add_argument("family")
    sp.set_defaults(func=cmd_bounded, parser=sp)

    sp = sub.add_parser("star", parents=[common], help="assemble a star with its certificate")
    sp.add_argument("system")
    sp.add_argument("first")
    sp.add_argument("second")
    sp.set_defaults(func=cmd_star, parser=sp)

    sp = sub.add_parser("check", parents=[common], help="verify an invariant witness")
    sp.add_argument("invariant", choices=(*INVARIANTS, "generators"))
    sp.add_argument("target", help="space, system, or generator document")
    sp.add_argument("--witness", metavar="FILE")
    sp.add_argument("--n", type=int, help="dimension bound (asdim)")
    sp.add_argument("--search", action="store_true", help="search instead of verifying (asdim)")
    sp.add_argument("--level", type=int, help="input scale level for the search")
    sp.set_defaults(func=cmd_check, parser=sp)

    liftable = (*(name for name, inv in INVARIANTS.items() if inv.lift), "generators")
    sp = sub.add_parser("lift", parents=[common], help="push a piece witness to the colimit")
    sp.add_argument("invariant", choices=liftable)
    sp.add_argument("system")
    sp.add_argument("--piece", metavar="NAME|INDEX")
    sp.add_argument("--witness", metavar="FILE")
    sp.add_argument("--n", type=int, help="dimension bound (asdim)")
    sp.add_argument("--input", metavar="FILE", help="ambient input family (amenability)")
    sp.add_argument("--sets", nargs="+", metavar="FILE", help="per-piece generator sets")
    sp.set_defaults(func=cmd_lift, parser=sp)

    sp = sub.add_parser("restrict", parents=[common], help="cut a colimit witness down to a piece")
    sp.add_argument("system")
    sp.add_argument("--piece", required=True, metavar="NAME|INDEX")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--witness", required=True, metavar="FILE")
    sp.set_defaults(func=cmd_restrict, parser=sp)

    sp = sub.add_parser("map-check", parents=[common], help="check a map property")
    sp.add_argument("mode", choices=("bornologous", "close", "so"))
    sp.add_argument("documents", nargs="+", help="input documents, order depends on the mode")
    sp.add_argument("--eps", type=_rational, help="oscillation threshold (so)")
    sp.add_argument("--level", type=int, help="source scale level (so, single space)")
    sp.add_argument("--scale", metavar="FILE", help="ambient scale family (so, system)")
    sp.add_argument("--witness-set", metavar="FILE", help="family whose union is the witness set")
    sp.add_argument("--search", action="store_true", help="search for a witness set (so)")
    sp.set_defaults(func=cmd_map_check, parser=sp)

    sp = sub.add_parser("corpus", help="generate reference instances")
    sp.add_argument("generator", choices=("c0", "disjoint-union", "unit-interval", "random"))
    sp.add_argument("--out-dir", default=".", metavar="DIR")
    sp.add_argument("--s-max", type=int)
    sp.add_argument("--box", type=int)
    sp.add_argument("--radii", metavar="R1,R2,...")
    sp.add_argument("--islands", metavar="N1,N2,...", help="path island sizes")
    sp.add_argument("--n-max", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--points", type=int, default=12)
    sp.add_argument("--pieces", type=int, default=4)
    sp.add_argument("--depth", type=int, default=3)
    sp.set_defaults(func=cmd_corpus, parser=sp)

    sp = sub.add_parser("probe", parents=[common], help="run a two-sided witness probe")
    sp.add_argument("what", choices=("apc",))
    sp.add_argument("system")
    sp.add_argument("--prefix", type=_at_least(1), help="chain prefix length")
    sp.add_argument("--budget", type=_at_least(0), default=16, help="search budget")
    sp.set_defaults(func=cmd_probe, parser=sp)

    return parser


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """build_parser().parse_args(argv), in one argparse pass.

    Given a command's exact name first, the top parser would only record it
    and hand the rest to that command's parser, so the command's parser is
    called here directly. Anything else (no argv, --version, -h, a name it
    does not know or abbreviates, an option before the command) goes to the
    top parser. Leftover arguments are refused by the top parser, with its
    usage, as parse_args would.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit status.

    Decoded inputs outlive the call: the process keeps the last
    DECODED_ENTRIES of them, each with its decode target, for later calls.
    So do the bytes and digest of the last DECODED_ENTRIES paths read; a
    later read of the same bytes at a path reuses the digest, and the
    digest is always that of the bytes the call read.
    """
    args = _parse_args(argv)
    # input path -> digest, filled by _digested; made per call, since a default
    # on the reused parser would be one dict shared by every call
    args.digests = {}
    try:
        return args.func(args)
    except TruncationError as exc:
        print(f"coarsekit: undecided at truncation: {exc}", file=sys.stderr)
        return EX_UNDECIDED
    except CoarseError as exc:
        print(f"coarsekit: input error: {exc}", file=sys.stderr)
        return EX_DATA
    except _WriteFailure as exc:
        print(f"coarsekit: cannot write output: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"coarsekit: cannot read input: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
