"""Filtered systems: validation, boundedness certificates, colimit stars."""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from coarsekit import (
    DomainError,
    TruncationError,
    ValidationError,
)
from coarsekit import colimit, spaces
from coarsekit.colimit import (
    ColimitBoundedness,
    FilteredSystem,
    Piece,
    check_boundedness,
    colimit_bounded,
    colimit_star,
    extend_to_ambient,
    extended_level,
    strip,
    system_weakly_bounded,
    validate_system,
)
from coarsekit.corpus import gen_c0, gen_disjoint_union, gen_random_system, gen_unit_interval
from coarsekit.documents import doc_to_system, emit_document, system_to_doc
from coarsekit.families import Family, family, points, refines, reroot, star_family
from coarsekit.maps import path_metric
from coarsekit.spaces import (
    ScaledSpace,
    coarse_components,
    coincidence_failure,
    restrict,
    validate_space,
    weakly_bounded,
)

import oracles
from builders import fam, line_space, overlap_system
from test_chain_masks import (
    Chain,
    chain_fault,
    coincidence_oracle,
    deep_piece_systems,
    outcome,
    pairwise_first_failure,
    system_body,
    validate_built,
)


def test_validate_system_synthesizes_upper_bounds():
    fs = overlap_system()
    assert fs.piece_index("right") == 1
    with pytest.raises(DomainError):
        fs.piece_index("bogus")
    assert fs.upper_piece(0, 1) == 2
    assert fs.upper_piece(1, 0) == 2
    assert fs.upper_piece(0, 0) == 0
    assert fs.upper_piece(2, 2) == 2


def test_validate_system_rejects_duplicate_names():
    ambient = points(["0"])
    sp = validate_space(ambient, [fam(ambient, {"0"})])
    piece = Piece("p", sp)
    with pytest.raises(ValidationError, match="distinct"):
        validate_system(ambient, [piece, piece])


def test_validate_system_rejects_carrier_gaps():
    ambient = points(["0", "1"])
    sub = points(["0"])
    sp = validate_space(sub, [fam(sub, {"0"})])
    with pytest.raises(ValidationError, match="'1'"):
        validate_system(ambient, [Piece("p", sp)])


def test_validate_system_carrier_errors_name_the_first_fault():
    ambient = points(["0", "1", "2"])
    sub = points(["1"])
    sp = validate_space(sub, [fam(sub, {"1"})])
    with pytest.raises(ValidationError, match=r"^carriers do not cover: point '0' is in no"):
        validate_system(ambient, [Piece("p", sp)])
    # a point outside the ambient set, then points out of ambient order
    for ids in (["1", "9"], ["2", "1"]):
        sp = validate_space(points(ids), [fam(points(ids), *({q} for q in ids))])
        with pytest.raises(
            DomainError, match=r"^piece 'p' points are not ambient points in ambient order$"
        ):
            validate_system(ambient, [Piece("p", sp)])


def test_validate_system_rejects_undirected_pieces():
    ambient = points(["0", "1"])
    a = points(["0"])
    b = points(["1"])
    pieces = [
        Piece("a", validate_space(a, [fam(a, {"0"})])),
        Piece("b", validate_space(b, [fam(b, {"1"})])),
    ]
    with pytest.raises(ValidationError, match="directedness"):
        validate_system(ambient, pieces)


def test_validate_system_rejects_a_bad_explicit_upper_bound():
    ambient = points([str(i) for i in range(5)])
    full = line_space(ambient.ids)
    left = frozenset({"0", "1", "2"})
    pieces = [
        Piece("left", restrict(full, left)),
        Piece("all", full),
    ]
    with pytest.raises(ValidationError, match="does not contain the union"):
        validate_system(ambient, pieces, upper={(0, 1): 0})


def test_validate_system_refuses_a_pair_named_in_both_orders():
    """Both claims are refused together, even when one of them is true."""
    fs = overlap_system()
    with pytest.raises(
        ValidationError, match=r"^upper bound of pieces left and right given twice$"
    ):
        validate_system(fs.ambient, fs.pieces, upper={(0, 1): 2, (1, 0): 0})
    assert validate_system(fs.ambient, fs.pieces, upper={(1, 0): 2}) == fs


@pytest.mark.parametrize(
    "upper, message",
    [
        ({(0, 1): 9}, "upper bound of pieces left and right is 9, not a piece index"),
        ({(0, 1): -1}, "upper bound of pieces left and right is -1, not a piece index"),
        ({(0, 1): True}, "upper bound of pieces left and right is True, not a piece index"),
        (
            {(0, 7): 0, (5, 5): 9},
            r"upper bound given for \(0, 7\), which is not a pair of pieces",
        ),
    ],
)
def test_validate_system_refuses_upper_entries_that_name_no_piece(upper, message):
    fs = overlap_system()
    with pytest.raises(ValidationError, match=f"^{message}$"):
        validate_system(fs.ambient, fs.pieces, upper=upper)


@pytest.mark.parametrize(
    "fs",
    [
        gen_c0(2, 1),
        gen_disjoint_union([path_metric(points(["a", "b"])), path_metric(points(["c"]))]),
        gen_unit_interval(8).system,
        *(gen_random_system(seed) for seed in range(5)),
    ],
    ids=["c0", "disjoint-union", "unit-interval", *(f"random-{k}" for k in range(5))],
)
def test_a_system_rebuilt_from_its_parts_is_equal_and_emits_the_same_bytes(fs):
    rebuilt = validate_system(fs.ambient, fs.pieces, fs.upper, fs.meta)
    assert rebuilt == fs
    assert rebuilt.upper == fs.upper
    assert emit_document(system_to_doc(rebuilt)) == emit_document(system_to_doc(fs))


def test_a_directly_built_system_checks_itself():
    """A system whose only piece misses a point is refused when built, not
    answered from later as if its top piece covered."""
    ambient = points("abc")
    ab = points("ab")
    piece = Piece("P", validate_space(ab, [fam(ab, {"a"}, {"b"})]))
    with pytest.raises(
        ValidationError, match=r"^carriers do not cover: point 'c' is in no piece$"
    ):
        FilteredSystem(ambient, (piece,), {(0, 0): 0})


def test_a_system_built_directly_equals_the_validated_one():
    fs = overlap_system()
    direct = FilteredSystem(fs.ambient, list(fs.pieces), {})
    assert direct == validate_system(fs.ambient, fs.pieces) == fs
    assert direct.upper == fs.upper
    assert isinstance(direct.pieces, tuple) and direct.meta == ()


def test_a_replaced_system_checks_itself():
    fs = overlap_system()
    with pytest.raises(ValidationError, match="not a pair of pieces"):
        replace(fs, pieces=fs.pieces[:1])
    with pytest.raises(ValidationError, match="does not contain the union"):
        replace(fs, upper={**fs.upper, (0, 1): 0})
    assert replace(fs, meta=["x"]).meta == ("x",)


def test_validate_system_rejects_non_coinciding_restrictions():
    ambient = points(["0", "1"])
    fine = validate_space(ambient, [fam(ambient, {"0"}, {"1"})])
    coarse = validate_space(
        ambient,
        [fam(ambient, {"0"}, {"1"}), fam(ambient, {"0", "1"})],
    )
    pieces = [Piece("a", fine), Piece("b", coarse)]
    with pytest.raises(ValidationError, match="coincide"):
        validate_system(ambient, pieces)


def test_strip_drops_only_outside_singletons():
    pts = points(["a", "b", "c"])
    f = family(
        pts,
        [frozenset({"a", "b"}), frozenset({"c"}), frozenset({"a"}), frozenset()],
    )
    out = strip(f, frozenset({"a", "b"}))
    assert out.members == (frozenset({"a", "b"}), frozenset({"a"}), frozenset())


def test_colimit_bounded_picks_the_first_admitting_piece():
    fs = overlap_system()
    inside_left = fam(fs.ambient, {"0", "1"})
    cert = colimit_bounded(fs, inside_left)
    assert cert == ColimitBoundedness(piece=0, level=1)
    assert check_boundedness(fs, inside_left, cert)

    outside_singleton = fam(fs.ambient, {"3", "4"}, {"0"})
    cert2 = colimit_bounded(fs, outside_singleton)
    assert cert2 is not None and cert2.piece == 1
    assert check_boundedness(fs, outside_singleton, cert2)

    straddling = fam(fs.ambient, {"0", "4"})
    cert3 = colimit_bounded(fs, straddling)
    assert cert3 is not None and cert3.piece == 2
    assert check_boundedness(fs, straddling, cert3)


def test_colimit_bounded_reports_absence_within_truncation():
    ambient = points(["0", "1", "2"])
    fs = validate_system(
        ambient,
        [
            Piece(
                "all",
                validate_space(ambient, [fam(ambient, {"0"}, {"1"}, {"2"})]),
            )
        ],
    )
    # the only chain stops at singletons, too shallow for a two-point member
    assert colimit_bounded(fs, fam(ambient, {"0", "2"})) is None


def test_check_boundedness_rejects_bogus_certificates():
    fs = overlap_system()
    f = fam(fs.ambient, {"0", "1"})
    assert not check_boundedness(fs, f, ColimitBoundedness(piece=9, level=1))
    assert not check_boundedness(fs, f, ColimitBoundedness(piece=0, level=99))
    assert not check_boundedness(fs, fam(fs.ambient, {"3", "4"}), ColimitBoundedness(0, 1))
    # no radius-1 ball on the line stretches across four steps
    assert not check_boundedness(fs, fam(fs.ambient, {"0", "4"}), ColimitBoundedness(2, 1))
    assert check_boundedness(fs, fam(fs.ambient, {"0", "4"}), ColimitBoundedness(2, 3))


def test_colimit_star_certifies_the_ambient_star():
    fs = overlap_system()
    f = fam(fs.ambient, {"0", "1"})
    g = fam(fs.ambient, {"1", "2"}, {"2", "3"})
    starred, cert = colimit_star(fs, f, g)
    assert starred.members == star_family(f, g).members
    assert check_boundedness(fs, starred, cert)


def test_colimit_star_requires_bounded_inputs():
    fs = overlap_system()
    good = fam(fs.ambient, {"0", "1"})
    bad = Family(fs.ambient, (frozenset({"0", "1"}), frozenset({"0", "4"})))
    # {0,4} and {0,1} only fit together in the ambient piece; they are bounded
    # there, so the star goes through
    _, cert = colimit_star(fs, bad, good)
    assert cert.piece == 2

    ambient = points(["0", "1", "2"])
    shallow = validate_system(
        ambient,
        [
            Piece(
                "only",
                validate_space(ambient, [fam(ambient, {"0"}, {"1"}, {"2"})]),
            )
        ],
    )
    with pytest.raises(TruncationError):
        colimit_star(shallow, fam(ambient, {"0", "1"}), fam(ambient, {"1"}))


def test_colimit_star_respects_the_star_budget():
    ambient = points([str(i) for i in range(5)])
    # singletons then radius-1 balls: stars of level 2 against itself need
    # radius 2, which this chain never reaches
    pts = ambient
    levels = [
        fam(pts, *[{p} for p in pts.ids]),
        family(
            pts,
            [
                frozenset(
                    q for q in pts.ids if abs(int(q) - int(p)) <= 1
                )
                for p in pts.ids
            ],
        ),
    ]
    sp = validate_space(pts, levels)
    assert sp.star_depth == 1
    fs = validate_system(ambient, [Piece("only", sp)])
    f = fam(ambient, {"1", "2"})
    with pytest.raises(TruncationError, match="star budget"):
        colimit_star(fs, f, f)


def test_star_depth_is_certified_once_and_only_by_the_star(monkeypatch):
    certified = []
    restricted = []
    compute, restrict_ = spaces._compute_star_depth, spaces.restrict
    monkeypatch.setattr(
        spaces, "_compute_star_depth", lambda levels: certified.append(levels) or compute(levels)
    )
    monkeypatch.setattr(
        spaces, "restrict", lambda sp, carrier: restricted.append(carrier) or restrict_(sp, carrier)
    )
    body = system_to_doc(gen_c0(2, 2)).body
    fs = doc_to_system(body)
    assert restricted == [] and certified == []

    f = fam(fs.ambient, {"0,0", "1,0"})
    g = fam(fs.ambient, {"1,0", "1,1"})
    starred, cert = colimit_star(fs, f, g)
    assert check_boundedness(fs, starred, cert)
    assert certified == [fs.pieces[cert.piece].space.levels]
    colimit_star(fs, f, g)
    assert len(certified) == 1


def test_extended_piece_levels_are_colimit_bounded():
    fs = overlap_system()
    for s, piece in enumerate(fs.pieces):
        for lvl in range(1, piece.space.depth + 1):
            ext = extended_level(fs, s, lvl)
            assert check_boundedness(fs, ext, ColimitBoundedness(s, lvl))
            assert colimit_bounded(fs, ext) is not None


def test_extend_to_ambient_adjoins_all_singletons():
    fs = overlap_system()
    ext = extend_to_ambient(fs, fs.pieces[0].space.level(2))
    tail = ext.members[-len(fs.ambient) :]
    assert tail == tuple(frozenset({p}) for p in fs.ambient.ids)


def test_system_components_and_weak_boundedness():
    ambient = points(["0", "1", "2", "3"])
    a = frozenset({"0", "1"})
    b = frozenset({"2", "3"})
    sp_a = restrict(line_space(ambient.ids), a)
    sp_b = restrict(line_space(ambient.ids), b)
    top = validate_space(
        ambient,
        [
            fam(ambient, {"0"}, {"1"}, {"2"}, {"3"}),
            fam(ambient, {"0", "1"}, {"2", "3"}),
        ],
    )
    fs = validate_system(
        ambient,
        [
            Piece("a", sp_a),
            Piece("b", sp_b),
            Piece("all", top),
        ],
    )
    assert coarse_components(fs.pieces[fs.top_piece()].space) == (a, b)
    assert system_weakly_bounded(fs, frozenset({"0", "2"}))
    assert system_weakly_bounded(fs, frozenset())

    merged = overlap_system()
    assert coarse_components(merged.pieces[merged.top_piece()].space) == (
        frozenset(merged.ambient.ids),
    )


def test_piece_weak_boundedness_does_not_transport():
    # the larger piece chains "0" to "2" through a point the small piece never sees
    ambient = points(["0", "1", "2"])
    carrier = frozenset({"0", "2"})
    small = points(["0", "2"])
    sp_s = validate_space(small, [fam(small, {"0"}, {"2"})])
    sp_t = validate_space(
        ambient,
        [
            fam(ambient, {"0"}, {"1"}, {"2"}),
            fam(ambient, {"0", "1"}, {"1", "2"}),
        ],
    )
    fs = validate_system(
        ambient,
        [Piece("s", sp_s), Piece("t", sp_t)],
    )
    assert weakly_bounded(sp_s, carrier)
    assert coarse_components(fs.pieces[fs.top_piece()].space) == (frozenset(ambient.ids),)
    assert not system_weakly_bounded(fs, carrier)


# properties


@st.composite
def bounded_family_pairs(draw):
    fs = overlap_system()
    ids = fs.ambient.ids
    member = st.frozensets(st.sampled_from(ids), max_size=3)
    g = draw(st.lists(member, min_size=1, max_size=4).map(lambda ms: family(fs.ambient, ms)))
    # shrink members to build an essential refinement of g
    shrunk = []
    for m in g.members:
        keep = draw(st.integers(min_value=0, max_value=max(len(m) - 1, 0)))
        shrunk.append(frozenset(sorted(m)[: keep + 1]) if m else m)
    return fs, family(fs.ambient, shrunk), g


@given(bounded_family_pairs())
def test_boundedness_descends_along_refinement(data):
    fs, f, g = data
    assert refines(f, g)
    cg = colimit_bounded(fs, g)
    if cg is not None:
        cf = colimit_bounded(fs, f)
        assert cf is not None


@given(st.integers(min_value=0, max_value=19))
@settings(max_examples=20)
def test_random_system_certificates_survive_oracle_audit(seed):
    fs = gen_random_system(seed)
    for s, piece in enumerate(fs.pieces):
        for lvl in range(1, piece.space.depth + 1):
            ext = extended_level(fs, s, lvl)
            cert = colimit_bounded(fs, ext)
            assert cert is not None
            target = fs.pieces[cert.piece]
            inner = reroot(strip(ext, target.space.points), target.space.points)
            ids = target.space.points.ids
            got = oracles.essentially_refines_masks(
                [oracles.to_mask(ids, m) for m in inner.members],
                [
                    oracles.to_mask(ids, m)
                    for m in target.space.level(cert.level).members
                ],
            )
            assert got


@st.composite
def piece_systems(draw):
    """Two or three pieces over at most 8 points, one of them carrying all.

    Each piece cuts a pick of base levels, in growing order and with
    repeats, to its carrier, and adds every singleton of the carrier, so its
    chain covers and is monotone; a piece may gain one extra member on one
    level and every level after it.
    """
    ids = tuple(str(i) for i in range(draw(st.integers(2, 8))))
    ambient = points(ids)
    base = draw(base_chain(ids))
    n = draw(st.integers(2, 3))
    top = draw(st.integers(0, n - 1))
    pieces = []
    for k in range(n):
        if k == top:
            carrier = frozenset(ids)
        else:
            carrier = draw(st.frozensets(st.sampled_from(ids), min_size=2))
        pts = points(p for p in ids if p in carrier)
        levels = cut_picks(draw, base, carrier)
        if draw(st.booleans()):
            extra = draw(st.frozensets(st.sampled_from(pts.ids), min_size=min(2, len(pts))))
            for lv in levels[draw(st.integers(0, len(levels) - 1)):]:
                lv.append(extra)
        pieces.append(Piece(f"P{k}", chain_space(pts, levels)))
    return ambient, pieces


def base_chain(ids):
    """One to three drawn levels, accumulated: base level k holds the members
    of every drawn level up to k, so each base level refines the next."""
    drawn = st.lists(
        st.lists(st.frozensets(st.sampled_from(ids), min_size=2, max_size=3), max_size=3),
        min_size=1,
        max_size=3,
    )
    return drawn.map(lambda levels: list(accumulate(levels)))


def cut_picks(draw, base, carrier):
    """One to three base levels, picked in growing order with repeats, cut to
    the carrier with empty cuts dropped."""
    picks = sorted(draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=3)))
    return [[m & carrier for m in base[j] if m & carrier] for j in picks]


def chain_space(pts, levels):
    """The levels with every singleton of pts added, as a space built
    directly."""
    singletons = [frozenset({p}) for p in pts.ids]
    return ScaledSpace(pts, tuple(Family(pts, tuple(lv + singletons)) for lv in levels))


@given(piece_systems())
@settings(max_examples=300)
def test_coincidence_matches_the_oracle(data):
    """coincidence_failure on two chains restricted to their overlap names
    the oracle's first failing side and level."""
    ambient, pieces = data
    ids = ambient.ids
    for r in range(len(pieces)):
        for s in range(r + 1, len(pieces)):
            a, b = pieces[r], pieces[s]
            inter = frozenset(a.space.points) & frozenset(b.space.points)
            if not inter:
                continue
            want = coincidence_oracle(ids, a.space, b.space, oracles.to_mask(ids, inter))
            got = coincidence_failure(restrict(a.space, inter), restrict(b.space, inter))
            assert got == want


def test_loading_a_system_compares_each_piece_with_the_top_piece_once(monkeypatch):
    system = gen_unit_interval(16).system
    body = system_to_doc(system).body
    calls = []
    real = colimit.coincidence_masks

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(colimit, "coincidence_masks", spy)
    assert doc_to_system(body) == system
    # one per piece but the top one, where every overlapping pair would be 120
    assert len(calls) == len(system.pieces) - 1 == 15


def _first_pair_misses_the_top():
    """P0 and P1 fail on their overlap {b, c}, and so do P1 and the top P2;
    P0 and P2 coincide. The pairwise scan names P0 and P1."""
    ambient = points("abcd")
    parts = [
        ("P0", "abc", [["a", "b", "c"], ["ab", "c"]]),
        ("P1", "bcd", [["bcd"]]),
        ("P2", "abcd", [["ab", "cd"]]),
    ]
    pieces = []
    for name, carrier, levels in parts:
        pts = points(carrier)
        space = ScaledSpace(pts, tuple(fam(pts, *lv) for lv in levels))
        pieces.append(Piece(name, space))
    return ambient, pieces


def test_the_first_failing_pair_may_miss_the_top_piece():
    ambient, pieces = _first_pair_misses_the_top()
    with pytest.raises(ValidationError) as exc:
        doc_to_system(system_body(ambient, pieces))
    assert str(exc.value) == (
        "restrictions of pieces P0 and P1 do not coincide: level 1 of P1 restricted "
        "to the intersection essentially refines no level of the other"
    )


@st.composite
def planted_failures(draw):
    """Three or four pieces over 3 to 8 points with a failing pair planted
    between P0 and P1, neither of them the top piece.

    The top piece carries all points and sits at index 2 or later, so
    (P0, P1) is the first pair a pairwise scan reaches. Both carriers hold
    two points x and y; one level of P0, and every level after it, gains
    the member {x, y}, and no member of P1 holds both, so that level fits no
    level of P1 on the overlap. Levels are otherwise drawn as in
    piece_systems, so every chain covers and is monotone.
    """
    ids = tuple(str(i) for i in range(draw(st.integers(3, 8))))
    x, y = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
    base = draw(base_chain(ids))
    n = draw(st.integers(3, 4))
    top = draw(st.integers(2, n - 1))
    pieces = []
    for k in range(n):
        if k == top:
            carrier = frozenset(ids)
        else:
            carrier = draw(st.frozensets(st.sampled_from(ids), min_size=2))
            carrier |= {x, y} if k < 2 else set()
        pts = points(p for p in ids if p in carrier)
        levels = cut_picks(draw, base, carrier)
        if k == 0:
            for lv in levels[draw(st.integers(0, len(levels) - 1)):]:
                lv.append(frozenset({x, y}))
        elif k == 1:
            # each member holding x and y splits in two; every level still
            # lists the members of the level before, so the chain stays monotone
            levels = [[h for m in lv for h in split(m, x, y)] for lv in levels]
        pieces.append(Piece(f"P{k}", chain_space(pts, levels)))
    return points(ids), pieces


def split(m, x, y):
    return (m - {y}, m - {x}) if {x, y} <= m else (m,)


@given(planted_failures())
@settings(max_examples=150)
def test_a_failing_pair_off_the_top_piece_is_named_as_a_pairwise_scan_names_it(data):
    """The system check finds the failure against the top piece, and then
    names the same first failing pair and level as a plain pairwise scan:
    the planted pair, which misses the top piece."""
    ambient, pieces = data
    want = pairwise_first_failure(ambient, pieces)
    assert want.startswith("restrictions of pieces P0 and P1 ")
    with pytest.raises(ValidationError) as exc:
        validate_system(ambient, pieces)
    assert str(exc.value) == want


def one_piece_system(*levels):
    """A system over {a, b, c} with one piece, whose levels are lists of
    members written as strings; the space is left a Chain, unchecked."""
    ambient = points("abc")
    return ambient, [Piece("P", Chain(ambient, tuple(fam(ambient, *lv) for lv in levels)))]


UNCOVERED = one_piece_system(["ab"], ["a", "b", "c"])
NOT_MONOTONE = one_piece_system(["a", "b", "c"], ["ab", "c"], ["a", "bc"])


@pytest.mark.parametrize(
    "system, message",
    [
        (UNCOVERED, "level 1 does not cover: point 'c' is in no member"),
        (NOT_MONOTONE, "chain not monotone: level 2 does not refine level 3"),
        (one_piece_system(), "a scaled space needs at least one level"),
    ],
    ids=["uncovered", "not-monotone", "empty"],
)
def test_validate_system_checks_each_piece_chain(system, message):
    with pytest.raises(ValidationError) as exc:
        validate_built(*system)
    assert str(exc.value) == message


@given(st.one_of(piece_systems(), planted_failures(), deep_piece_systems()))
@example(_first_pair_misses_the_top())
@example(UNCOVERED)
@example(NOT_MONOTONE)
@settings(max_examples=400)
def test_decoder_checks_coincidence_as_validate_system_does(data):
    """validate_system and the decoder give the oracle's outcome: the first
    chain fault, else the first pair that a pairwise scan finds failing,
    with its first failing level. A system they accept round-trips through
    its document to an equal system."""
    ambient, pieces = data
    want = next(filter(None, map(chain_fault, pieces)), None)
    want = want or pairwise_first_failure(ambient, pieces)
    assert outcome(validate_built, ambient, pieces) == want
    assert outcome(doc_to_system, system_body(ambient, pieces)) == want
    if want is None:
        system = validate_built(ambient, pieces)
        assert doc_to_system(system_to_doc(system).body) == system


@given(st.one_of(piece_systems(), planted_failures(), deep_piece_systems()))
@example(_first_pair_misses_the_top())
@settings(max_examples=100)
def test_a_directly_built_system_gives_the_oracle_outcome(data):
    """FilteredSystem itself, with no upper table, refuses what the oracle
    refuses, with its message, and accepts the rest."""
    ambient, pieces = data
    want = next(filter(None, map(chain_fault, pieces)), None)
    want = want or pairwise_first_failure(ambient, pieces)

    def direct(ambient, pieces):
        built = [Piece(p.name, ScaledSpace(p.space.points, p.space.levels)) for p in pieces]
        return FilteredSystem(ambient, tuple(built), {})

    assert outcome(direct, ambient, pieces) == want
