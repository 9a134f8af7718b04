"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with -s to see the pass/fail lines; every test prints its line before
asserting, so a failing criterion still reports its numbers.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from coarsekit import CoarseError, TruncationError, Verdict
from coarsekit.colimit import (
    Piece,
    check_boundedness,
    colimit_bounded,
    colimit_star,
    extended_level,
    validate_system,
)
from coarsekit.corpus import (
    gen_c0,
    gen_disjoint_union,
    gen_random_system,
    gen_unit_interval,
)
from coarsekit.families import (
    Family,
    chain_components,
    family,
    horizon,
    horizon_indices,
    multiplicity,
    points,
    refines,
    reroot,
    star_set,
)
from coarsekit.invariants import (
    AmenabilityWitness,
    ExactnessWitness,
    PinchWitness,
    PropertyAFamily,
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
    generator_set,
    horizon_ratio,
    metrizability_generator_check,
    metrizability_merge,
    pair_ratio,
    partition_of_unity,
    pinch_lift,
    pinch_verify,
    property_a_lift,
    property_a_verify,
    sq_dist,
)
from coarsekit.maps import (
    GroundedMap,
    bornologous_check,
    close_check,
    close_violation,
    path_metric,
    restrict_map,
    system_bornologous_check,
)
from coarsekit.spaces import restrict, validate_space

import oracles


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=None)
def random_corpus() -> tuple:
    return tuple(gen_random_system(seed) for seed in range(200))


@lru_cache(maxsize=None)
def island_instances() -> tuple:
    combos = ((2, 2), (2, 3), (3, 3), (1, 4), (2, 2, 2))
    out = []
    for combo in combos:
        islands = [
            path_metric(points([f"i{k}p{j}" for j in range(size)]))
            for k, size in enumerate(combo)
        ]
        out.append(gen_disjoint_union(islands))
    return tuple(out)


def test_criterion_01_colimit_star_stays_bounded():
    start = time.monotonic()
    pairs = failures = beyond_budget = 0
    for fs in random_corpus():
        fams = [
            extended_level(fs, s, i)
            for s, pc in enumerate(fs.pieces)
            for i in range(1, pc.space.depth + 1)
        ]
        fams = [f for f in fams if colimit_bounded(fs, f) is not None]
        for a, b in itertools.combinations_with_replacement(fams, 2):
            try:
                star, cert = colimit_star(fs, a, b)
            except TruncationError:
                beyond_budget += 1
                continue
            pairs += 1
            if colimit_bounded(fs, star) is None:
                failures += 1
            elif not check_boundedness(fs, star, cert):
                failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60 and len(random_corpus()) >= 200
    _line(
        1,
        ok,
        f"{len(random_corpus())} systems, {pairs} bounded star pairs, "
        f"{beyond_budget} beyond star budget, {failures} failures, {elapsed:.1f}s",
    )


def ball_space(n, radii):
    ids = tuple(str(i) for i in range(n))
    pts = points(ids)
    levels = [Family(pts, tuple(frozenset({p}) for p in ids))]
    for r in radii:
        levels.append(
            Family(
                pts,
                tuple(
                    frozenset(q for q in ids if abs(int(q) - int(p)) <= r)
                    for p in ids
                ),
            )
        )
    return validate_space(pts, levels)


def test_criterion_02_bornologous_restriction_equivalence():
    dst = ball_space(4, (1, 2))
    rng = random.Random(20260816)
    decided = undecided = disagreements = 0
    for fs in random_corpus():
        for _ in range(2):
            images = tuple(rng.choice(dst.points.ids) for _ in fs.ambient.ids)
            f = GroundedMap(fs.ambient, dst.points, images)
            whole = system_bornologous_check(f, fs, dst)
            piece_reports = [
                bornologous_check(restrict_map(f, pc.space.points), pc.space, dst)
                for pc in fs.pieces
            ]
            verdicts = [whole.verdict] + [r.verdict for r in piece_reports]
            if Verdict.UNDECIDED in verdicts:
                undecided += 1
                continue
            decided += 1
            conj = all(r.verdict is Verdict.VERIFIED for r in piece_reports)
            if (whole.verdict is Verdict.VERIFIED) != conj:
                disagreements += 1
    ok = disagreements == 0 and decided > 0
    _line(
        2,
        ok,
        f"{decided} decided cases, {undecided} undecided, "
        f"{disagreements} disagreements",
    )


def test_criterion_03_asdim_lift_restrict_round_trip():
    trials = failures = 0
    for fs in random_corpus():
        for s, pc in enumerate(fs.pieces):
            for n in (0, 1):
                found = asdim_search(pc.space, n, pc.space.depth)
                if found.witness is None:
                    continue
                trials += 1
                lifted = asdim_lift(fs, s, n, found.witness)
                if asdim_verify(fs, n, lifted).verdict is not Verdict.VERIFIED:
                    failures += 1
                    continue
                cut = asdim_restrict(fs, s, n, lifted)
                if asdim_verify(pc.space, n, cut).verdict is not Verdict.VERIFIED:
                    failures += 1
        if trials >= 400:
            break
    ok = failures == 0 and trials >= 200
    _line(3, ok, f"{trials} lift/restrict round trips, {failures} failures")


def indicator_witness(pc):
    ids = pc.space.points.ids
    pou = partition_of_unity(
        pc.space.points,
        list(ids),
        [
            tuple(Fraction(1 if j == i else 0) for j in range(len(ids)))
            for i in range(len(ids))
        ],
    )
    return ExactnessWitness(pc.space.level(1), Fraction(3), pou, 1)


def test_criterion_04_exactness_lift_exact_sums():
    trials = failures = 0
    for fs in random_corpus()[:100]:
        for s, pc in enumerate(fs.pieces):
            w = indicator_witness(pc)
            if exactness_verify(pc.space, w).verdict is not Verdict.VERIFIED:
                failures += 1
                continue
            trials += 1
            lifted = exactness_lift(fs, s, w)
            if any(sum(row) != Fraction(1) for row in lifted.pou.rows):
                failures += 1
            elif lifted.eps != w.eps:
                failures += 1
            elif exactness_verify(fs, lifted).verdict is not Verdict.VERIFIED:
                failures += 1
    ok = failures == 0 and trials >= 200
    _line(4, ok, f"{trials} lifted partitions, {failures} failures")


def island_pinch_witness(pc):
    """Embed each island at its own integer, separated by island blocks."""
    ids = pc.space.points.ids
    blocks: dict = {}
    for p in ids:
        blocks.setdefault(p.split(":", 1)[0], []).append(p)
    return PinchWitness(
        1,
        tuple((Fraction(int(p.split(":", 1)[0])),) for p in ids),
        pc.space.level(1),
        Family(pc.space.points, tuple(frozenset(b) for b in blocks.values())),
        Fraction(1),
        Fraction(1),
        None,
    )


def test_criterion_05_pinch_lift_geometry():
    failures = outside_pairs = mixed_pairs = 0
    for fs in island_instances():
        for s, pc in enumerate(fs.pieces):
            w = island_pinch_witness(pc)
            if pinch_verify(pc.space, w).verdict is not Verdict.VERIFIED:
                failures += 1
                continue
            lifted = pinch_lift(fs, s, w)
            if pinch_verify(fs, lifted).verdict is not Verdict.VERIFIED:
                failures += 1
            if lifted.c != 1:
                failures += 1
            outside = [p for p in fs.ambient.ids if p not in pc.space.points]
            inside = [p for p in fs.ambient.ids if p in pc.space.points]

            def row(p):
                return lifted.vec(p)

            for a, b in itertools.combinations(outside, 2):
                outside_pairs += 1
                if sq_dist(row(a), row(b)) != 2:
                    failures += 1
            for a in outside:
                for b in inside:
                    mixed_pairs += 1
                    if sq_dist(row(a), row(b)) < 1:
                        failures += 1
    ok = failures == 0 and outside_pairs > 0 and mixed_pairs > 0
    _line(
        5,
        ok,
        f"{outside_pairs} outside pairs at squared distance 2, {mixed_pairs} mixed pairs, "
        f"{failures} failures",
    )


def test_criterion_06_amenability_lift_outside_ratio_one():
    trials = failures = outside_checked = 0
    for fs in random_corpus()[:100]:
        for s, pc in enumerate(fs.pieces):
            w = AmenabilityWitness(
                pc.space.level(1), pc.space.level(1), Fraction(2), None
            )
            if amenability_verify(pc.space, w).verdict is not Verdict.VERIFIED:
                continue
            outside_singletons = tuple(
                frozenset({p}) for p in fs.ambient.ids if p not in pc.space.points
            )
            u = Family(
                fs.ambient,
                reroot(w.scale, fs.ambient).members + outside_singletons,
            )
            trials += 1
            try:
                lifted = amenability_lift(fs, s, w, u)
            except CoarseError:
                # covers the horizon decomposition disjointness assertion
                failures += 1
                continue
            if amenability_verify(fs, lifted).verdict is not Verdict.VERIFIED:
                failures += 1
            if lifted.eps != w.eps:
                failures += 1
            for p in fs.ambient.ids:
                if p in pc.space.points:
                    continue
                outside_checked += 1
                if horizon_ratio(lifted.scale, lifted.v, p) != Fraction(1):
                    failures += 1
    ok = failures == 0 and trials >= 200 and outside_checked > 0
    _line(
        6,
        ok,
        f"{trials} lifts, {outside_checked} outside ratios pinned to 1, "
        f"{failures} failures",
    )


def test_criterion_07_property_a_lift_outside_ratio_zero():
    trials = failures = outside_checked = 0
    for fs in random_corpus()[:100]:
        for s, pc in enumerate(fs.pieces):
            ids = pc.space.points.ids
            singles = Family(
                pc.space.points, tuple(frozenset({p}) for p in ids)
            )
            w = PropertyAFamily(
                1,
                tuple(frozenset({(p, 1)}) for p in ids),
                singles,
                singles,
                Fraction(1, 2),
                1,
            )
            if property_a_verify(pc.space, w).verdict is not Verdict.VERIFIED:
                failures += 1
                continue
            trials += 1
            lifted = property_a_lift(fs, s, w)
            if property_a_verify(fs, lifted).verdict is not Verdict.VERIFIED:
                failures += 1
            if lifted.eps != w.eps:
                failures += 1
            for p in fs.ambient.ids:
                if p in pc.space.points:
                    continue
                outside_checked += 1
                if lifted.tags(p) != frozenset({(p, 1)}):
                    failures += 1
                if pair_ratio(lifted, p, p) != Fraction(0):
                    failures += 1
    ok = failures == 0 and trials >= 200 and outside_checked > 0
    _line(
        7,
        ok,
        f"{trials} lifts, {outside_checked} outside self-ratios pinned to 0, "
        f"{failures} failures",
    )


def shallow_merge_fixtures():
    """Instances whose generator lists cannot close within the given chains."""
    ambient = points(["0", "1", "2", "3", "4"])
    a = frozenset({"0", "1", "2"})
    b = frozenset({"3", "4"})
    top = validate_space(
        ambient,
        [
            family(ambient, [{"0"}, {"1"}, {"2"}, {"3"}, {"4"}]),
            family(ambient, [{"0", "1"}, {"1", "2"}, {"3", "4"}]),
            family(ambient, [{"0", "1", "2"}, {"3", "4"}]),
        ],
    )
    fs = validate_system(
        ambient,
        [
            Piece("a", restrict(top, a)),
            Piece("b", restrict(top, b)),
            Piece("all", top),
        ],
    )
    pa = points(["0", "1", "2"])
    pb = points(["3", "4"])
    open_own = [
        generator_set(pa, [family(pa, [{"0", "1"}, {"1", "2"}])]),
        generator_set(pb, [family(pb, [{"3", "4"}])]),
        generator_set(ambient, [family(ambient, [{"0", "1", "2"}, {"3", "4"}])]),
    ]
    closed_but_fine = [
        generator_set(pa, [family(pa, [{"0", "1", "2"}])]),
        generator_set(pb, [family(pb, [{"3", "4"}])]),
        # closed on its own, too fine for the cross-piece pair routed up
        generator_set(ambient, [family(ambient, [{"0", "1"}, {"2"}, {"3"}, {"4"}])]),
    ]
    return fs, (open_own, closed_but_fine)


def test_criterion_08_metrizability_merge_verdicts():
    deep = shallow = false_verdicts = 0
    deep_systems = list(island_instances()) + [gen_c0(1, 2), gen_c0(2, 1)]
    for fs in deep_systems:
        sets = [
            generator_set(pc.space.points, pc.space.levels) for pc in fs.pieces
        ]
        try:
            merged, report = metrizability_merge(fs, sets)
        except TruncationError:
            false_verdicts += 1
            continue
        deep += 1
        if report.verdict is not Verdict.VERIFIED:
            false_verdicts += 1
        elif metrizability_generator_check(merged).verdict is not Verdict.VERIFIED:
            false_verdicts += 1

    fs, shallow_set_lists = shallow_merge_fixtures()
    for sets in shallow_set_lists:
        try:
            merged, report = metrizability_merge(fs, sets)
        except TruncationError:
            shallow += 1
            continue
        # reaching here with an unclosed merge would be a false positive
        if metrizability_generator_check(merged).verdict is not Verdict.VERIFIED:
            false_verdicts += 1
        else:
            shallow += 1
    ok = false_verdicts == 0 and deep >= 5 and shallow == 2
    _line(
        8,
        ok,
        f"{deep} deep merges verified, {shallow} shallow instances honest, "
        f"{false_verdicts} false verdicts",
    )


def test_criterion_09_closeness_counterexample():
    start = time.monotonic()
    failures = levels_checked = 0
    inst = gen_unit_interval(8)
    for n, chain in enumerate(inst.piece_chains, start=1):
        pts = inst.system.pieces[n - 1].space.points
        if close_check(
            restrict_map(inst.f, pts), restrict_map(inst.g, pts), chain
        ) is None:
            failures += 1
    if close_check(inst.f, inst.g, inst.colimit_chain) is not None:
        failures += 1
    for i in range(1, inst.colimit_chain.depth + 1):
        level = inst.colimit_chain.level(i)
        widest = max(
            max(abs(int(p) - int(q)) for p in m for q in m)
            for m in level.members
        )
        levels_checked += 1
        violating = close_violation(inst.f, inst.g, level)
        if violating != str(Fraction(1, widest + 2)):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and levels_checked >= 2 and elapsed < 5
    _line(
        9,
        ok,
        f"n_max=8, {levels_checked} colimit levels violated at 1/(M+2), "
        f"{failures} failures, {elapsed:.2f}s",
    )


P6 = points([str(i) for i in range(6)])
IDS6 = P6.ids


def _mask_family(masks) -> Family:
    return Family(P6, tuple(oracles.from_mask(IDS6, m) for m in masks))


def _rand_masks(rng, max_members=4):
    return [rng.randrange(64) for _ in range(rng.randint(0, max_members))]


def test_criterion_10_oracle_equivalence():
    disagreements = exhaustive = sampled = 0
    for v in range(64):
        for m in range(64):
            exhaustive += 1
            got = star_set(oracles.from_mask(IDS6, v), _mask_family([m]))
            want = oracles.from_mask(IDS6, oracles.star_mask(v, [m]))
            if got != want:
                disagreements += 1
    rng = random.Random(6)
    for _ in range(2000):
        masks = _rand_masks(rng)
        fam = _mask_family(masks)
        seed = rng.randrange(64)

        sampled += 1
        got = star_set(oracles.from_mask(IDS6, seed), fam)
        if got != oracles.from_mask(IDS6, oracles.star_mask(seed, masks)):
            disagreements += 1

        sampled += 1
        other = _rand_masks(rng)
        if refines(fam, _mask_family(other)) != oracles.refines_masks(masks, other):
            disagreements += 1

        sampled += 1
        if multiplicity(fam) != oracles.multiplicity_masks(masks, 6):
            disagreements += 1

        sampled += 1
        got_h = [set(m) for m in horizon(oracles.from_mask(IDS6, seed), fam).members]
        want_h = [
            set(oracles.from_mask(IDS6, m))
            for m in oracles.horizon_masks(seed, masks)
        ]
        if got_h != want_h:
            disagreements += 1

        sampled += 1
        got_c = [set(c) for c in chain_components(fam)]
        want_c = [
            set(oracles.from_mask(IDS6, b))
            for b in oracles.components_masks(masks)
        ]
        if got_c != want_c:
            disagreements += 1
    ok = disagreements == 0 and exhaustive == 4096 and sampled >= 10_000
    _line(
        10,
        ok,
        f"{exhaustive} exhaustive star cases, {sampled} sampled across five "
        f"operations, {disagreements} disagreements",
    )


def test_criterion_11_horizon_monotonicity():
    rng = random.Random(11)
    cases = failures = 0
    for _ in range(1000):
        masks = _rand_masks(rng, max_members=5)
        fam = _mask_family(masks)
        a_mask = rng.randrange(64)
        b_mask = a_mask | rng.randrange(64)
        a = oracles.from_mask(IDS6, a_mask)
        b = oracles.from_mask(IDS6, b_mask)

        cases += 1
        if not set(horizon_indices(a, fam)) <= set(horizon_indices(b, fam)):
            failures += 1

        grown = _mask_family([m | rng.randrange(64) for m in masks])
        cases += 1
        if not set(horizon_indices(a, fam)) <= set(horizon_indices(a, grown)):
            failures += 1

        coarser = _mask_family(
            [m | rng.randrange(64) for m in masks]
            + _rand_masks(rng, max_members=2)
        )
        cases += 1
        if not refines(horizon(a, fam), horizon(b, coarser)):
            failures += 1
    ok = failures == 0 and cases == 3000
    _line(11, ok, f"{cases} monotonicity cases over three clauses, {failures} failures")


def test_criterion_12_apc_probe_consistency():
    systems = inconsistencies = found = 0
    for fs in random_corpus()[:50]:
        systems += 1
        outcome = apc_probe(fs)
        if outcome.report.verdict is Verdict.REFUTED:
            inconsistencies += 1
        for pc, w in zip(fs.pieces, outcome.piece_witnesses):
            if w is None:
                continue
            found += 1
            if apc_verify(pc.space, w).verdict is not Verdict.VERIFIED:
                inconsistencies += 1
        if outcome.colimit_witness is not None:
            found += 1
            verdict = apc_verify(fs, outcome.colimit_witness).verdict
            if verdict is not Verdict.VERIFIED:
                inconsistencies += 1
    ok = inconsistencies == 0 and systems >= 50
    _line(
        12,
        ok,
        f"{systems} systems probed, {found} found witnesses re-verified, "
        f"{inconsistencies} inconsistencies",
    )
