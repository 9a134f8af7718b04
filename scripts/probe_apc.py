"""Two-sided APC probe over seeded random systems and island unions.

For each instance the probe searches every piece and the colimit chain for
star-disjoint selection witnesses. The summary counts how often both sides
find one, how often either side comes back empty, and re-verifies every
found witness; absence is always reported as undecided, never as a negative.

Usage: python3 scripts/probe_apc.py [--seeds N] [--prefix K] [--budget B]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coarsekit import Verdict
from coarsekit.corpus import gen_disjoint_union, gen_random_system
from coarsekit.families import points
from coarsekit.invariants import apc_probe, apc_verify
from coarsekit.maps import path_metric


def island_instances():
    for combo in ((2, 2), (2, 3), (3, 3), (2, 2, 2)):
        islands = [
            path_metric(points([f"i{k}p{j}" for j in range(size)]))
            for k, size in enumerate(combo)
        ]
        label = "islands " + "+".join(str(size) for size in combo)
        yield label, gen_disjoint_union(islands)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=50, help="random systems to probe")
    parser.add_argument("--prefix", type=int, default=None, help="chain prefix length")
    parser.add_argument("--budget", type=int, default=16, help="search budget")
    args = parser.parse_args()

    instances = [(f"seed {i}", gen_random_system(i)) for i in range(args.seeds)]
    instances += list(island_instances())

    both = piece_only = neither = negatives = reverify_failures = 0
    for label, fs in instances:
        outcome = apc_probe(fs, prefix_len=args.prefix, budget=args.budget)
        if outcome.report.verdict is Verdict.REFUTED:
            negatives += 1

        piece_found = sum(1 for w in outcome.piece_witnesses if w is not None)
        for pc, w in zip(fs.pieces, outcome.piece_witnesses):
            if w is not None:
                report = apc_verify(pc.space, w)
                if report.verdict is not Verdict.VERIFIED:
                    reverify_failures += 1
        colimit_found = outcome.colimit_witness is not None
        if colimit_found:
            report = apc_verify(fs, outcome.colimit_witness)
            if report.verdict is not Verdict.VERIFIED:
                reverify_failures += 1

        if colimit_found and piece_found == len(fs.pieces):
            both += 1
        elif piece_found:
            piece_only += 1
        else:
            neither += 1
        print(
            f"{label:>12}: pieces {piece_found}/{len(fs.pieces)}, "
            f"colimit {'found' if colimit_found else 'open'}, "
            f"verdict {outcome.report.verdict.value}"
        )

    print()
    print(f"instances probed        {len(instances)}")
    print(f"witnesses on both sides {both}")
    print(f"piece side only         {piece_only}")
    print(f"open on every side      {neither}")
    print(f"claimed negatives       {negatives}")
    print(f"re-verification fails   {reverify_failures}")
    return 1 if negatives or reverify_failures else 0


if __name__ == "__main__":
    sys.exit(main())
