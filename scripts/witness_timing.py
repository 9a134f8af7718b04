"""Time lifting piece witnesses to the colimit, verifying the lifted
witnesses, writing them and reading them back.

    python3 scripts/witness_timing.py [--repeat N]

Run from the root of a source checkout. The pinch and exactness piece
witnesses are built with ``pinch_witness`` and ``exactness_witness`` from
``bench/ops.py`` (imported, never changed), on piece grid1 of
``gen_c0(2, 3)`` and piece grid2 of ``gen_c0(3, 2)``, and decoded over the
piece's space. For each case and invariant the script prints the point count,
the lifted witness's width (pinch dimension or partition index count), and
the best of N wall times, in milliseconds, of:

- lift: ``pinch_lift`` or ``exactness_lift``, which verifies the piece
  witness first;
- verify: the verifier on the lifted witness over the system;
- emit: ``witness_to_doc`` and ``emit_document`` on the lifted witness;
- decode: ``decode_witness`` on the parsed lifted document over the system,
  each round on a body parsed afresh, untimed, with no memo in between.

The command-line memo serves repeated reads of one file, so a benchmark that
re-reads its inputs shows decode only on the first read; this script shows
it on every round.

Every decoded witness is emitted again and must give the bytes it was read
from; any difference makes the exit code 1. The last line gives one sha256
over the emitted lifted documents, in case order. Two checkouts that print
the same digest lifted and wrote every witness alike.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = ((2, 3, "grid1"), (3, 2, "grid2"))
EXACTNESS_EPS = "5/2"


def _best(fn, repeat: int, prepare=lambda: None) -> float:
    """Best of ``repeat`` wall times of fn(prepare()), in seconds; prepare
    runs untimed."""
    best = float("inf")
    for _ in range(repeat):
        arg = prepare()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def witness_timing(repeat: int) -> tuple[list[str], str, int]:
    """One line per case and invariant, the digest over the emitted lifted
    documents, and how many decoded witnesses re-emit other bytes."""
    import ops
    from coarsekit import corpus, documents as docs
    from coarsekit.invariants import exactness_lift, exactness_verify, pinch_lift, pinch_verify

    lines, digest, differ = [], hashlib.sha256(), 0
    for s_max, box, name in CASES:
        system = corpus.gen_c0(s_max, box)
        idx = system.piece_index(name)
        piece = system.pieces[idx]
        raw = docs.system_to_doc(system).body["pieces"][idx]
        points, level1 = raw["carrier"], raw["scales"][0]
        coords = {p: tuple(int(v) for v in p.split(",")) for p in points}
        bodies = {
            "pinch": ops.pinch_witness(points, level1, coords),
            "exactness": ops.exactness_witness(points, level1, EXACTNESS_EPS),
        }
        for inv, lift, verify, width in (
            ("pinch", pinch_lift, pinch_verify, lambda w: w.dim),
            ("exactness", exactness_lift, exactness_verify, lambda w: len(w.pou.indices)),
        ):
            kind = f"witness:{inv}"
            w = docs.decode_witness(kind, bodies[inv]["body"], piece.space)
            lifted = lift(system, idx, w)
            if not verify(system, lifted):
                raise SystemExit(f"witness_timing: the lifted {inv} witness does not verify")
            text = docs.emit_document(docs.witness_to_doc(kind, lifted))
            digest.update(text.encode())
            fresh = lambda: docs.parse_document(text).body
            again = docs.decode_witness(kind, fresh(), system)
            differ += docs.emit_document(docs.witness_to_doc(kind, again)) != text
            lift_s = _best(lambda _: lift(system, idx, w), repeat)
            verify_s = _best(lambda _: verify(system, lifted), repeat)
            emit_s = _best(
                lambda _: docs.emit_document(docs.witness_to_doc(kind, lifted)), repeat
            )
            decode_s = _best(lambda body: docs.decode_witness(kind, body, system), repeat, fresh)
            lines.append(
                f"c0-{s_max}x{box} {name} {inv}: {len(system.ambient)} points, "
                f"width {width(lifted)}, lift {lift_s * 1e3:.3f} ms, "
                f"verify {verify_s * 1e3:.3f} ms, emit {emit_s * 1e3:.3f} ms, "
                f"decode {decode_s * 1e3:.3f} ms"
            )
    return lines, digest.hexdigest(), differ


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed rounds; the best counts")
    opts = ap.parse_args()
    if opts.repeat < 1:
        ap.error("--repeat must be at least 1")
    lines, digest, differ = witness_timing(opts.repeat)
    print("\n".join(lines))
    print(f"lifted {2 * len(CASES)} witnesses, {differ} re-emit other bytes, sha256 {digest}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
