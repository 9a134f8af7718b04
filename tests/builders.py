"""Builders shared by the test modules: families from point lists, integer
lines with ball levels, and a three-piece system over a five-point line."""

from __future__ import annotations

from coarsekit.colimit import Piece, validate_system
from coarsekit.families import family, points
from coarsekit.spaces import restrict, validate_space


def fam(space, *members):
    return family(space, [frozenset(m) for m in members])


def line_space(ids):
    """Integer-labelled line with ball levels at radii 1, 2, 4, ..."""
    pts = points(ids)
    vals = [int(p) for p in ids]
    levels = []
    r = 1
    diam = max(vals) - min(vals) if len(vals) > 1 else 1
    while True:
        members = [
            frozenset(q for q, w in zip(ids, vals) if abs(w - v) <= r) for v in vals
        ]
        levels.append(family(pts, members))
        if r >= diam:
            break
        r *= 2
    return validate_space(pts, levels)


def overlap_system():
    """Three pieces of a five-point line: left, right, everything."""
    ambient = points([str(i) for i in range(5)])
    full = line_space(ambient.ids)
    return validate_system(
        ambient,
        [
            Piece("left", restrict(full, {"0", "1", "2"})),
            Piece("right", restrict(full, {"2", "3", "4"})),
            Piece("all", full),
        ],
    )
