"""Time loading corpus documents: parse, then decode as a space or a system;
and time emitting them again.

    python3 scripts/load_timing.py [--repeat N] [--case NAME ...]

Run from the root of a source checkout. Each case builds corpus instances
in-process and emits their documents: the system document, and a space
document for every space the instance carries (the piece chains and the
colimit chain of a unit interval, each piece's chain otherwise). For each
case and document kind the script prints the document count, their total
size, and the best of N wall times of SHA-256 over the documents as bytes
(what the CLI records as an input's digest), of ``parse_document`` (envelope
only), of ``doc_to_system`` or ``doc_to_space``, and of ``emit_document`` on
``system_to_doc`` or ``space_to_doc``, each over all of them, in milliseconds.
Each system line also gives the star depth summed over every piece of every
system, in levels, and the best of N wall times of certifying all of those
star depths, each round on freshly decoded systems, decoding left out.

Every decoded object is emitted again. The last line gives one sha256 over
the re-emitted documents, in case order, and how many differ from the bytes
they were decoded from; any difference makes the exit code 1. Two checkouts
that print the same digest decoded and re-emitted every document alike.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RANDOM_SEEDS = range(200)


def _cases() -> dict:
    """Case name -> function building its instances' (system, spaces) pairs."""
    from coarsekit import corpus

    def unit_interval(n):
        inst = corpus.gen_unit_interval(n)
        return [(inst.system, [*inst.piece_chains, inst.colimit_chain])]

    def c0(s_max, box):
        system = corpus.gen_c0(s_max, box)
        return [(system, [p.space for p in system.pieces])]

    def random_systems():
        systems = [corpus.gen_random_system(seed) for seed in RANDOM_SEEDS]
        return [(s, [p.space for p in s.pieces]) for s in systems]

    cases = {f"unit-interval-{n}": (lambda n=n: unit_interval(n)) for n in (8, 16, 32, 64)}
    for s_max, box in ((2, 3), (3, 2), (3, 3)):
        cases[f"c0-{s_max}x{box}"] = lambda s=s_max, b=box: c0(s, b)
    cases[f"random-{RANDOM_SEEDS[0]}-{RANDOM_SEEDS[-1]}"] = random_systems
    return cases


def _best(fn, items, repeat: int) -> float:
    """Best of ``repeat`` wall times of fn over all items, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for item in items:
            fn(item)
        best = min(best, time.perf_counter() - start)
    return best


def _star_timing(decode, bodies, repeat: int) -> tuple[int, float]:
    """The star depth summed over every piece of the decoded systems, and the
    best of ``repeat`` wall times of certifying them all, in seconds. Each
    round decodes the systems afresh, untimed, since a space keeps its depth."""
    best = float("inf")
    for _ in range(repeat):
        spaces = [piece.space for body in bodies for piece in decode(body).pieces]
        start = time.perf_counter()
        depth = sum(sp.star_depth for sp in spaces)
        best = min(best, time.perf_counter() - start)
    return depth, best


def load_timing(names, repeat: int) -> tuple[list[str], str, int, int]:
    """One line per case and kind, the digest over the re-emitted documents,
    their count and how many differ from their source bytes."""
    from coarsekit import documents as docs

    kinds = (
        ("system", docs.system_to_doc, docs.doc_to_system),
        ("space", docs.space_to_doc, docs.doc_to_space),
    )
    cases = _cases()
    lines, digest, count, differ = [], hashlib.sha256(), 0, 0
    for name in names:
        built = cases[name]()
        for kind, to_doc, decode in kinds:
            objs = [system for system, _ in built] if kind == "system" else [
                sp for _, spaces in built for sp in spaces
            ]
            texts = [docs.emit_document(to_doc(obj)) for obj in objs]
            bodies = [docs.parse_document(t).body for t in texts]
            hash_s = _best(hashlib.sha256, [t.encode() for t in texts], repeat)
            parse_s = _best(docs.parse_document, texts, repeat)
            decode_s = _best(decode, bodies, repeat)
            emit_s = _best(lambda obj: docs.emit_document(to_doc(obj)), objs, repeat)
            for text, body in zip(texts, bodies):
                again = docs.emit_document(to_doc(decode(body)))
                digest.update(again.encode())
                count += 1
                differ += again != text
            size = sum(map(len, texts))
            line = (
                f"{name} {kind}: {len(texts)} documents, {size} bytes, "
                f"digest {hash_s * 1e3:.3f} ms, "
                f"parse {parse_s * 1e3:.3f} ms, decode {decode_s * 1e3:.3f} ms, "
                f"emit {emit_s * 1e3:.3f} ms"
            )
            if kind == "system":
                depth, star_s = _star_timing(decode, bodies, repeat)
                line += f", star depth {depth} levels, {star_s * 1e3:.3f} ms"
            lines.append(line)
    return lines, digest.hexdigest(), count, differ


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = list(_cases())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed rounds; the best counts")
    ap.add_argument("--case", action="append", choices=names, help="run only these cases")
    opts = ap.parse_args()
    if opts.repeat < 1:
        ap.error("--repeat must be at least 1")
    lines, digest, count, differ = load_timing(opts.case or names, opts.repeat)
    print("\n".join(lines))
    print(f"re-emitted {count} documents, {differ} differ from their source, sha256 {digest}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
