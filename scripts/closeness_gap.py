"""Why closeness over every piece does not give closeness over the colimit.

The harmonic instance maps each reciprocal value 1/m to the integer m while
a second map sends everything to 1. Over each prefix piece the two maps are
close at some chain level, but over the whole system every colimit chain
level has a violating point, and the first violation at a level whose widest
member has diameter M always lands on the point 1/(M+2).

Usage: python3 scripts/closeness_gap.py [--n-max N]
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coarsekit.corpus import gen_unit_interval
from coarsekit.maps import close_check, close_violation, restrict_map


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8, help="harmonic truncation depth")
    args = parser.parse_args()

    inst = gen_unit_interval(args.n_max)
    print(f"domain: {', '.join(inst.system.ambient.ids)}")
    print()

    print("per piece, the maps become close once the chain is deep enough:")
    for n, chain in enumerate(inst.piece_chains, start=1):
        pts = inst.system.pieces[n - 1].space.points
        level = close_check(
            restrict_map(inst.f, pts), restrict_map(inst.g, pts), chain
        )
        print(f"  piece X{n:<2} close at level {level} of its chain")
    print()

    print("over the colimit chain no level works:")
    mismatches = 0
    for i in range(1, inst.colimit_chain.depth + 1):
        level = inst.colimit_chain.level(i)
        widest = max(
            max(abs(int(p) - int(q)) for p in m for q in m) for m in level.members
        )
        violating = close_violation(inst.f, inst.g, level)
        predicted = str(Fraction(1, widest + 2))
        tag = "as predicted" if violating == predicted else "UNEXPECTED"
        if violating != predicted:
            mismatches += 1
        print(
            f"  level {i}: widest member diameter {widest}, "
            f"violated at {violating} = 1/(M+2) {tag}"
        )
    overall = close_check(inst.f, inst.g, inst.colimit_chain)
    print()
    print(f"colimit close_check: {overall!r}")
    return 1 if mismatches or overall is not None else 0


if __name__ == "__main__":
    sys.exit(main())
