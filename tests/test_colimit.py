"""Filtered systems: validation, boundedness certificates, colimit stars."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coarsekit import (
    DomainError,
    TruncationError,
    ValidationError,
)
from coarsekit import colimit, spaces
from coarsekit.colimit import (
    ColimitBoundedness,
    Piece,
    check_boundedness,
    colimit_bounded,
    colimit_star,
    extend_to_ambient,
    extended_level,
    strip,
    system_coarse_components,
    system_weakly_bounded,
    validate_system,
)
from coarsekit.corpus import gen_c0, gen_random_system, gen_unit_interval
from coarsekit.documents import doc_to_system, system_to_doc
from coarsekit.families import Family, family, points, refines, reroot, star_family
from coarsekit.spaces import (
    ScaledSpace,
    check_chain,
    coincidence_failure,
    restrict,
    validate_space,
    weakly_bounded,
)

import oracles


def fam(space, *members):
    return family(space, [frozenset(m) for m in members])


def line_space(ids):
    """Integer-labelled line with ball levels at radii 1, 2, 4, ..."""
    pts = points(ids)
    vals = [int(p) for p in ids]
    levels = []
    r = 1
    diam = max(vals) - min(vals)
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
    left = frozenset({"0", "1", "2"})
    right = frozenset({"2", "3", "4"})
    pieces = [
        Piece("left", left, restrict(full, left)),
        Piece("right", right, restrict(full, right)),
        Piece("all", frozenset(ambient.ids), full),
    ]
    return validate_system(ambient, pieces)


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
    piece = Piece("p", frozenset({"0"}), sp)
    with pytest.raises(ValidationError, match="distinct"):
        validate_system(ambient, [piece, piece])


def test_validate_system_rejects_carrier_gaps():
    ambient = points(["0", "1"])
    sub = points(["0"])
    sp = validate_space(sub, [fam(sub, {"0"})])
    with pytest.raises(ValidationError, match="'1'"):
        validate_system(ambient, [Piece("p", frozenset({"0"}), sp)])


def test_validate_system_carrier_errors_name_the_first_fault():
    ambient = points(["0", "1", "2"])
    sub = points(["1"])
    sp = validate_space(sub, [fam(sub, {"1"})])
    with pytest.raises(ValidationError, match=r"^carriers do not cover: point '0' is in no"):
        validate_system(ambient, [Piece("p", frozenset({"1"}), sp)])
    with pytest.raises(DomainError, match=r"^piece 'p' carrier leaves the ambient set$"):
        validate_system(ambient, [Piece("p", frozenset({"1", "9"}), sp)])


def test_validate_system_rejects_undirected_pieces():
    ambient = points(["0", "1"])
    a = points(["0"])
    b = points(["1"])
    pieces = [
        Piece("a", frozenset({"0"}), validate_space(a, [fam(a, {"0"})])),
        Piece("b", frozenset({"1"}), validate_space(b, [fam(b, {"1"})])),
    ]
    with pytest.raises(ValidationError, match="directedness"):
        validate_system(ambient, pieces)


def test_validate_system_rejects_a_bad_explicit_upper_bound():
    ambient = points([str(i) for i in range(5)])
    full = line_space(ambient.ids)
    left = frozenset({"0", "1", "2"})
    pieces = [
        Piece("left", left, restrict(full, left)),
        Piece("all", frozenset(ambient.ids), full),
    ]
    with pytest.raises(ValidationError, match="does not contain the union"):
        validate_system(ambient, pieces, upper={(0, 1): 0})


def test_validate_system_rejects_non_coinciding_restrictions():
    ambient = points(["0", "1"])
    carrier = frozenset({"0", "1"})
    fine = validate_space(ambient, [fam(ambient, {"0"}, {"1"})])
    coarse = validate_space(
        ambient,
        [fam(ambient, {"0"}, {"1"}), fam(ambient, {"0", "1"})],
    )
    pieces = [Piece("a", carrier, fine), Piece("b", carrier, coarse)]
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
                frozenset(ambient.ids),
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
                frozenset(ambient.ids),
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
    fs = validate_system(ambient, [Piece("only", frozenset(ambient.ids), sp)])
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
            Piece("a", a, sp_a),
            Piece("b", b, sp_b),
            Piece("all", frozenset(ambient.ids), top),
        ],
    )
    assert system_coarse_components(fs) == (a, b)
    assert system_weakly_bounded(fs, frozenset({"0", "2"}))
    assert system_weakly_bounded(fs, frozenset())

    merged = system_coarse_components(overlap_system())
    assert merged == (frozenset(overlap_system().ambient.ids),)


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
        [Piece("s", carrier, sp_s), Piece("t", frozenset(ambient.ids), sp_t)],
    )
    assert weakly_bounded(sp_s, carrier)
    assert system_coarse_components(fs) == (frozenset(ambient.ids),)
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
            inner = reroot(strip(ext, target.carrier), target.space.points)
            ids = target.space.points.ids
            got = oracles.essentially_refines_masks(
                [oracles.to_mask(ids, m) for m in inner.members],
                [
                    oracles.to_mask(ids, m)
                    for m in target.space.level(cert.level).members
                ],
                None,
            )
            assert got


def coincidence_oracle(ids, a, b, inter):
    """First (side, level) at which one chain, restricted to the inter mask
    with empties dropped, essentially refines no level of the other."""

    def cut(space):
        return [
            [r for m in lv.members if (r := oracles.to_mask(ids, m) & inter)]
            for lv in space.levels
        ]

    ca, cb = cut(a), cut(b)
    for side, xs, ys in (("first", ca, cb), ("second", cb, ca)):
        for i, lx in enumerate(xs, 1):
            if not any(oracles.essentially_refines_masks(lx, ly) for ly in ys):
                return side, i
    return None


@st.composite
def piece_systems(draw):
    """Two or three pieces over at most 8 points, one of them carrying all.

    Each piece cuts a pick of base levels, in any order and with repeats, to
    its carrier; a piece may gain one extra member. Spaces are built directly,
    so a chain need not be monotone, nor a level cover.
    """
    ids = tuple(str(i) for i in range(draw(st.integers(2, 8))))
    ambient = points(ids)
    base = draw(
        st.lists(
            st.lists(st.frozensets(st.sampled_from(ids), min_size=2, max_size=3), max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    n = draw(st.integers(2, 3))
    top = draw(st.integers(0, n - 1))
    pieces = []
    for k in range(n):
        if k == top:
            carrier = frozenset(ids)
        else:
            carrier = draw(st.frozensets(st.sampled_from(ids), min_size=2))
        pts = points(p for p in ids if p in carrier)
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=3))
        levels = [[m & carrier for m in base[j] if m & carrier] for j in picks]
        if draw(st.booleans()):
            extra = draw(st.frozensets(st.sampled_from(pts.ids), min_size=min(2, len(pts))))
            levels[draw(st.integers(0, len(levels) - 1))].append(extra)
        # without the singletons a level need not cover its carrier
        singletons = [frozenset({p}) for p in pts.ids] if draw(st.booleans()) else []
        space = ScaledSpace(pts, tuple(Family(pts, tuple(lv + singletons)) for lv in levels))
        pieces.append(Piece(f"P{k}", carrier, space))
    return ambient, pieces


@given(piece_systems())
@settings(max_examples=300)
def test_coincidence_matches_the_oracle(data):
    ambient, pieces = data
    ids = ambient.ids
    expected = None
    for r in range(len(pieces)):
        for s in range(r + 1, len(pieces)):
            a, b = pieces[r], pieces[s]
            inter = a.carrier & b.carrier
            if not inter:
                continue
            want = coincidence_oracle(ids, a.space, b.space, oracles.to_mask(ids, inter))
            got = coincidence_failure(restrict(a.space, inter), restrict(b.space, inter))
            assert got == want
            if want is not None and expected is None:
                side, lvl = want
                owner = a.name if side == "first" else b.name
                expected = (
                    f"restrictions of pieces {a.name} and {b.name} do not coincide: "
                    f"level {lvl} of {owner} restricted to the intersection "
                    f"essentially refines no level of the other"
                )
    if expected is None:
        validate_system(ambient, pieces)
    else:
        with pytest.raises(ValidationError) as exc:
            validate_system(ambient, pieces)
        assert str(exc.value) == expected


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


def chain_ok(piece):
    """Does the piece's chain cover its points and refine level by level?"""
    pts = piece.space.points
    try:
        check_chain([lv.masks for lv in piece.space.levels], (1 << len(pts)) - 1, pts.ids)
    except ValidationError:
        return False
    return True


def system_body(ambient, pieces):
    return {
        "ambient": list(ambient.ids),
        "pieces": [
            {
                "name": p.name,
                "carrier": list(ambient.sort(p.carrier)),
                "scales": [
                    [list(p.space.points.points_of(m)) for m in lv.masks] for lv in p.space.levels
                ],
            }
            for p in pieces
        ],
    }


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
        pieces.append(Piece(name, frozenset(carrier), space))
    return ambient, pieces


@given(piece_systems())
@example(_first_pair_misses_the_top())
@settings(max_examples=150)
def test_decoder_checks_coincidence_as_validate_system_does(data):
    """The decoder compares with the top piece as validate_system does, and
    gives the same system or the same first failing pair and level."""
    ambient, pieces = data
    assume(all(map(chain_ok, pieces)))
    body = system_body(ambient, pieces)
    try:
        want = validate_system(ambient, pieces)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            doc_to_system(body)
        assert str(got.value) == str(exc)
    else:
        assert doc_to_system(body) == want


def test_the_first_failing_pair_may_miss_the_top_piece():
    ambient, pieces = _first_pair_misses_the_top()
    assert all(map(chain_ok, pieces))
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
    two points x and y; one level of P0 gains the member {x, y}, and no
    member of P1 holds both, so that level fits no level of P1 on the
    overlap. Levels are otherwise drawn as in piece_systems.
    """
    ids = tuple(str(i) for i in range(draw(st.integers(3, 8))))
    x, y = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
    base = draw(
        st.lists(
            st.lists(st.frozensets(st.sampled_from(ids), min_size=2, max_size=3), max_size=3),
            min_size=1,
            max_size=3,
        )
    )
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
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=3))
        levels = [[m & carrier for m in base[j] if m & carrier] for j in picks]
        if k == 0:
            levels[draw(st.integers(0, len(levels) - 1))].append(frozenset({x, y}))
        elif k == 1:
            levels = [[m - {y} if x in m else m for m in lv] for lv in levels]
        singletons = [frozenset({p}) for p in pts.ids] if draw(st.booleans()) else []
        space = ScaledSpace(pts, tuple(Family(pts, tuple(lv + singletons)) for lv in levels))
        pieces.append(Piece(f"P{k}", carrier, space))
    return points(ids), pieces


def pairwise_first_failure(ambient, pieces):
    """The error text for the first overlapping pair, in index order, whose
    chains fail the coincidence oracle on their overlap, or None."""
    ids = ambient.ids
    for r in range(len(pieces)):
        for s in range(r + 1, len(pieces)):
            a, b = pieces[r], pieces[s]
            inter = a.carrier & b.carrier
            want = inter and coincidence_oracle(ids, a.space, b.space, oracles.to_mask(ids, inter))
            if want:
                side, lvl = want
                owner = a.name if side == "first" else b.name
                return (
                    f"restrictions of pieces {a.name} and {b.name} do not coincide: "
                    f"level {lvl} of {owner} restricted to the intersection "
                    f"essentially refines no level of the other"
                )
    return None


@given(planted_failures())
@settings(max_examples=150)
def test_a_failing_pair_off_the_top_piece_is_named_as_a_pairwise_scan_names_it(data):
    """validate_pieces finds the failure against the top piece, and then
    names the same first failing pair and level as a plain pairwise scan:
    the planted pair, which misses the top piece."""
    ambient, pieces = data
    want = pairwise_first_failure(ambient, pieces)
    assert want.startswith("restrictions of pieces P0 and P1 ")
    with pytest.raises(ValidationError) as exc:
        validate_system(ambient, pieces)
    assert str(exc.value) == want
    if all(map(chain_ok, pieces)):
        with pytest.raises(ValidationError) as exc:
            doc_to_system(system_body(ambient, pieces))
        assert str(exc.value) == want
