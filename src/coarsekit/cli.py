"""Command line front end.

Exit codes follow the verdict: 0 verified, 1 refuted, 2 undecided at this
truncation, 64 for usage mistakes, 65 for unreadable or invalid input
documents. Reports print as text by default; --format structured emits a
single report document whose provenance (input digests, tool version) is
stable across reruns on identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
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
from .reports import Clause, Report, SearchOutcome, Verdict, from_clauses
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
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _load(args, path: str, kinds: Sequence[str]) -> docs.Document:
    """Read, digest and parse one input document.

    The digest is taken of the bytes that are parsed, before anything is
    written, and recorded in args.digests for the report's provenance.
    """
    data = Path(path).read_bytes()
    args.digests[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    doc = docs.parse_document(text, validate_body=False)
    if doc.kind not in kinds:
        raise ParseError(
            f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind!r}"
        )
    return doc


def _read(args, path: str, kinds: Sequence[str], *target):
    """Load one input document of the given kinds and decode its body.

    A witness body other than a generator set decodes over target.
    """
    doc = _load(args, path, kinds)
    return docs.DECODERS[doc.kind](doc.body, *target)


def _load_family(args, path: str, pts: PointSet) -> Family:
    return reroot(_read(args, path, ("family",)), pts)


def _load_witness_set(args, path: str, pts: PointSet) -> frozenset:
    """The union of the members of a family document, over pts."""
    return frozenset(pts.points_of(reduce(or_, _load_family(args, path, pts).masks, 0)))


def _render(args, report: Report, artifact=None) -> int:
    """Print the report, persist the artifact if -o was given, return the exit code.

    Provenance lists the digest of every document the command read.
    """
    out = getattr(args, "output", None)
    if artifact is not None and out:
        Path(out).write_text(docs.emit_document(artifact[1]), encoding="utf-8")
    provenance = {
        "inputs": args.digests,
        "tool": f"coarsekit {__version__}",
        "seed": None,
    }
    if getattr(args, "format", "text") == "structured":
        body = dict(docs.report_to_doc(report, provenance).body)
        if artifact is not None:
            name, adoc = artifact
            body["artifacts"] = {
                name: {"kind": adoc.kind, "version": adoc.version, "body": adoc.body}
            }
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
    return from_clauses([Clause(name, False, str(exc), truncation=True)])


# commands


def cmd_validate(args) -> int:
    doc = _load(args, args.document, ("space", "system"))
    try:
        decoded = docs.DECODERS[doc.kind](doc.body)
    except (ValidationError, DomainError) as exc:
        return _render(args, from_clauses([Clause("document validates", False, str(exc))]))
    if doc.kind == "space":
        clauses = [Clause("space validates", True, "chain is monotone and covering")]
    else:
        detail = (
            "upper bounds given in the document"
            if "upper" in doc.body
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
        search=lambda t, a: asdim_search(t, a.n, a.level, mode=a.mode),
    ),
    "apc": WitnessInvariant(
        kind="witness:apc",
        verify=lambda t, w, a: apc_verify(t, *w),
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
    if args.invariant == "generators":
        gens = _read(args, args.target, ("witness:generators",))
        return _render(args, metrizability_generator_check(gens))
    target = _read(args, args.target, ("space", "system"))
    _require(args, args.parser, inv.needs)
    if args.search:
        if not isinstance(target, ScaledSpace):
            raise DomainError("witness search needs a single-space target")
        _require(args, args.parser, ["level"])
        outcome = inv.search(target, args)
        if outcome.witness is None:
            return _render(args, from_clauses([outcome.clause("witness search")]))
        artifact = ("witness", docs.witness_to_doc(inv.kind, outcome.witness))
        return _render(args, outcome.report, artifact=artifact)
    _require(args, args.parser, ["witness"])
    w = _read(args, args.witness, (inv.kind,), target)
    return _render(args, inv.verify(target, w, args))


def cmd_lift(args) -> int:
    system = _read(args, args.system, ("system",))
    if args.invariant == "generators":
        _require(args, args.parser, ["sets"])
        if len(args.sets) != len(system.pieces):
            raise DomainError(
                f"{len(system.pieces)} generator sets are required, one per piece"
            )
        piece_sets = [_read(args, path, ("witness:generators",)) for path in args.sets]
        try:
            merged, report = metrizability_merge(system, piece_sets)
        except TruncationError as exc:
            return _render(args, _truncation_report("pairs coarsened after routing", exc))
        return _render(args, report, artifact=("generators", docs.generators_to_doc(merged)))
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
    return _render(args, report, artifact=("witness", docs.asdim_witness_to_doc(cut)))


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
    src = _read(args, paths[0], ("space", "system"))
    target = _read(args, paths[1], ("metric",))
    f = _read(args, paths[2], ("map",))
    if args.eps is None:
        parser.error("--eps is required here")
    if isinstance(src, ScaledSpace):
        _require(args, parser, ["level"])
        if args.search:
            outcome = slowly_oscillating_search(f, target, src, args.level, args.eps)
            if outcome.witness is None:
                return _render(args, from_clauses([outcome.clause("witness set search")]))
            bfam = Family.from_masks(src.points, (src.points.mask(outcome.witness),))
            return _render(args, outcome.report, artifact=("witness-set", docs.family_to_doc(bfam)))
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


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
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
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"malformed radii list {text!r}") from None


def cmd_corpus(args) -> int:
    out = Path(args.out_dir)
    written = []

    def save(name: str, doc: docs.Document):
        out.mkdir(parents=True, exist_ok=True)  # a refused command leaves no directory
        path = out / name
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
    artifact = None if w is None else ("witness", docs.apc_witness_to_doc(w, outcome.colimit_chain))
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
    sp.add_argument("--mode", choices=("auto", "exhaustive", "greedy"), default="auto")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # input path -> digest, filled by _load; made per call, since a default
    # on the reused parser would be one dict shared by every call
    args.digests = {}
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"coarsekit: input error: {exc}", file=sys.stderr)
        return EX_DATA
    except TruncationError as exc:
        print(f"coarsekit: undecided at truncation: {exc}", file=sys.stderr)
        return EX_UNDECIDED
    except CoarseError as exc:
        print(f"coarsekit: input error: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"coarsekit: cannot read input: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
