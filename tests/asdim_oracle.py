"""Brute-force oracle for the asdim search, on integer bitmasks.

Kept apart from ``oracles.py`` and sharing no code with the library: the
search space is written out from its definition. A coarsening is built by
assigning each non-singleton member of the scale to a group and taking each
group's union; it counts when every union lies inside a member of the top
level and no point lies in more than n + 1 unions.
"""

from __future__ import annotations


def assignments(k: int):
    """Every assignment of k items to groups, up to renaming the groups, in
    lexicographic order: item i goes to group labels[i], and a new group
    takes the next label."""
    if k == 0:
        yield []
        return
    for labels in assignments(k - 1):
        for g in range(max(labels, default=-1) + 2):
            yield labels + [g]


def first_coarsening(scale: list[int], tops: list[int], n: int, width: int):
    """The group unions of the first assignment, in the order of
    ``assignments``, of the scale's non-singleton members whose unions fit
    the top level with multiplicity at most n + 1; None when there is none."""
    items = [m for m in scale if bin(m).count("1") > 1]
    for labels in assignments(len(items)):
        groups = [0] * (max(labels, default=-1) + 1)
        for m, g in zip(items, labels):
            groups[g] |= m
        if not all(any(g | t == t for t in tops) for g in groups):
            continue
        if all(sum(g >> i & 1 for g in groups) <= n + 1 for i in range(width)):
            return groups
    return None
