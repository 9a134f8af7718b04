"""Independent brute-force reimplementations used as oracles.

Subsets are integer bitmasks over an indexed point list, so nothing here
shares code or representation with the library: each function is a direct
transcription of its definition.
"""

from __future__ import annotations


def to_mask(ids, member) -> int:
    m = 0
    for p in member:
        m |= 1 << ids.index(p)
    return m


def from_mask(ids, mask: int) -> frozenset:
    return frozenset(p for i, p in enumerate(ids) if mask >> i & 1)


def ordered_from_mask(ids, mask: int) -> tuple:
    """The points of the mask, in the order of ids."""
    return tuple(p for i, p in enumerate(ids) if mask >> i & 1)


def star_mask(v: int, fam: list[int]) -> int:
    out = v
    for m in fam:
        if m & v:
            out |= m
    return out


def refines_masks(u: list[int], v: list[int]) -> bool:
    return all(any(m & ~w == 0 for w in v) for m in u)


def essentially_refines_masks(u: list[int], v: list[int]) -> bool:
    for m in u:
        if bin(m).count("1") <= 1:
            continue
        if not any(m & ~w == 0 for w in v):
            return False
    return True


def multiplicity_masks(v: list[int], width: int) -> int:
    best = 0
    for i in range(width):
        best = max(best, sum(1 for m in v if m >> i & 1))
    return best


def components_masks(u: list[int]) -> list[int]:
    """Unions of overlap-connected members, by repeated merging."""
    blocks = [m for m in u if m]
    changed = True
    while changed:
        changed = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if blocks[i] & blocks[j]:
                    blocks[i] |= blocks[j]
                    del blocks[j]
                    changed = True
                    break
            if changed:
                break
    return sorted(blocks, key=lambda b: (b & -b).bit_length())


def horizon_masks(a: int, u: list[int]) -> list[int]:
    return [m for m in u if a & m]


def horizon_index_set(a: int, u: list[int]) -> set[int]:
    return {i for i, m in enumerate(u) if a & m}


def star_depth_masks(levels: list[list[int]]) -> int:
    """Largest d such that for all levels i, j <= d the member-wise star of
    level i against level j essentially refines some level. Every d is
    checked on its own, with all of its pairs."""
    return max(
        d
        for d in range(len(levels) + 1)
        if all(
            any(
                essentially_refines_masks([star_mask(m, levels[j]) for m in levels[i]], lv)
                for lv in levels
            )
            for i in range(d)
            for j in range(d)
        )
    )


def all_level_masks(ids, levels) -> list[int]:
    """Every member of every level, each given as its points, as a mask over
    ids. The levels may come from several chains, such as every piece of a
    system with ids the ambient points."""
    return [to_mask(ids, m) for lv in levels for m in lv]


def weakly_bounded_masks(pool: list[int], b: int) -> bool:
    """b meets each overlap block of the pooled members inside one pooled
    member."""
    return refines_masks([b & block for block in components_masks(pool)], pool)


def largest_member_masks(pool: list[int]) -> int:
    return max(bin(m).count("1") for m in pool)
