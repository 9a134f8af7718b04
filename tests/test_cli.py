"""Command line plumbing: exit codes, artifacts, output formats."""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from coarsekit import DomainError, ParseError, __version__, cli, maps
from coarsekit import documents as docs
from coarsekit.cli import build_parser, main
from coarsekit.colimit import Piece, validate_system
from coarsekit.corpus import gen_c0, gen_disjoint_union, gen_unit_interval
from coarsekit.documents import (
    DECODERS,
    Document,
    doc_to_system,
    emit_document,
    family_to_doc,
    map_to_doc,
    metric_to_doc,
    parse_document,
    space_to_doc,
    system_to_doc,
    witness_to_doc,
)
from coarsekit.families import Family, points
from coarsekit.invariants import AmenabilityWitness, asdim_search, generator_set
from coarsekit.invariants import asdim as asdim_module
from coarsekit.maps import grounded_map, identity_map, path_metric
from coarsekit.reports import Clause, from_clauses
from coarsekit.spaces import restrict, validate_space


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


def single_piece(sp, name="all"):
    return validate_system(
        sp.points, [Piece(name, sp)]
    )


def save(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(emit_document(doc), encoding="utf-8")
    return str(path)


PARSE_ARGS = cli._parse_args


def _parsed(parse, argv):
    """The fields of parse(argv)'s namespace, or its exit code, with what it
    wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def parsed_both_ways(monkeypatch):
    """Every argv that a test here runs through main is parsed twice, by
    main's one-pass dispatch and by the top parser alone, and must give the
    same namespace, or the same exit code, stdout and stderr."""

    def parse(argv):
        got = _parsed(PARSE_ARGS, argv)
        assert got == _parsed(build_parser().parse_args, argv), argv
        result, out, err = got
        sys.stdout.write(out)
        sys.stderr.write(err)
        if isinstance(result, dict):
            return argparse.Namespace(**result)
        raise SystemExit(result)

    monkeypatch.setattr(cli, "_parse_args", parse)


@pytest.fixture
def deep_system(tmp_path):
    return save(tmp_path, "deep.json", system_to_doc(single_piece(ball_space(5, (1, 2, 4)))))


@pytest.fixture
def shallow_system(tmp_path):
    return save(tmp_path, "shallow.json", system_to_doc(single_piece(ball_space(5, (1,)))))


def test_validate_verified(tmp_path, deep_system, capsys):
    assert main(["validate", deep_system]) == 0
    out = capsys.readouterr().out
    assert "verdict: verified" in out
    assert "[ok] system validates" in out
    assert "all" in out


def test_validate_refuted_on_semantic_failure(tmp_path, capsys):
    body = {"points": ["a", "b"], "scales": [[["a"]]]}
    path = save(tmp_path, "bad.json", Document("space", "1", body))
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "verdict: refuted" in out
    assert "[FAIL] document validates" in out


def test_validate_refutes_a_space_with_no_levels(tmp_path, capsys):
    """An empty scale list reads; the space refuses it when built. A scale
    list that is not a list does not read."""
    path = save(tmp_path, "empty.json", Document("space", "1", {"points": ["a"], "scales": []}))
    assert main(["validate", path]) == 1
    assert "[FAIL] document validates: a scaled space needs at least one level" in (
        capsys.readouterr().out
    )
    path = save(tmp_path, "bare.json", Document("space", "1", {"points": ["a"], "scales": 3}))
    assert main(["validate", path]) == 65
    assert "body.scales: expected a list of scales" in capsys.readouterr().err


@pytest.mark.parametrize(
    "upper, detail",
    [
        ([[0, 1, 3]], "upper bound of pieces P0 and P1 is 3, not a piece index"),
        ([[0, 1, 0]], "directedness failure: upper(P0, P1) = P0 does not contain the union"),
    ],
)
def test_validate_refutes_upper_bounds_the_system_rejects(tmp_path, capsys, upper, detail):
    """An upper entry naming piece 3 of 3 fails the system's own check, and
    validate refutes it as it refutes a directedness failure."""
    body = {
        "ambient": ["a", "b", "c"],
        "pieces": [
            {"name": name, "carrier": list(ids), "scales": [[list(ids)]]}
            for name, ids in (("P0", "ab"), ("P1", "bc"), ("P2", "abc"))
        ],
        "upper": upper,
    }
    path = save(tmp_path, "system.json", Document("system", "1", body))
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] document validates" in out
    assert detail in out


def test_data_errors_exit_65(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["validate", missing]) == 65

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{no", encoding="utf-8")
    assert main(["validate", str(garbled)]) == 65

    fam = Family(points(["a"]), (frozenset({"a"}),))
    wrong_kind = save(tmp_path, "family.json", family_to_doc(fam))
    assert main(["validate", wrong_kind]) == 65
    err = capsys.readouterr().err
    assert "expected a space or system document" in err


def test_usage_errors_exit_64(deep_system):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["check", "asdim", deep_system, "--search"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "c0"])
    assert exc.value.code == 64


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"coarsekit {__version__}" in capsys.readouterr().out


def test_structured_reports_are_byte_stable(deep_system, capsys):
    argv = ["validate", deep_system, "--format", "structured"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second

    doc = parse_document(first)
    assert doc.kind == "report"
    DECODERS[doc.kind](doc.body)
    assert doc.body["verdict"] == "verified"
    prov = doc.body["provenance"]
    assert prov["tool"] == f"coarsekit {__version__}"
    assert prov["inputs"][deep_system].startswith("sha256:")


def test_bounded_certificate_and_truncation(tmp_path, deep_system, capsys):
    inside = save(
        tmp_path,
        "inside.json",
        family_to_doc(Family(points([str(i) for i in range(5)]), (frozenset({"0", "1"}),))),
    )
    assert main(["bounded", deep_system, inside]) == 0
    assert "piece 'all' at level" in capsys.readouterr().out

    fs = gen_disjoint_union(
        [path_metric(points(["a", "b"])), path_metric(points(["c", "d"]))]
    )
    system = save(tmp_path, "islands.json", system_to_doc(fs))
    straddle = save(
        tmp_path,
        "straddle.json",
        family_to_doc(Family(fs.ambient, (frozenset({"0:a", "1:c"}),))),
    )
    assert main(["bounded", system, straddle]) == 2
    out = capsys.readouterr().out
    assert "verdict: undecided-at-truncation" in out
    assert "[??]" in out


def test_star_writes_artifact(tmp_path, deep_system, capsys):
    pts = points([str(i) for i in range(5)])
    first = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1"}),))))
    second = save(tmp_path, "g.json", family_to_doc(Family(pts, (frozenset({"2"}),))))
    out_path = tmp_path / "star.json"
    code = main(["star", deep_system, first, second, "-o", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "star assembled" in out
    assert f"wrote {out_path}" in out
    star_doc = parse_document(out_path.read_text(encoding="utf-8"))
    assert star_doc.kind == "family"
    DECODERS[star_doc.kind](star_doc.body)


def test_a_failed_write_is_worded_as_a_write(tmp_path, deep_system, capsys):
    pts = points([str(i) for i in range(5)])
    first = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1"}),))))
    plain = tmp_path / "plain"
    plain.write_text("", encoding="utf-8")
    capsys.readouterr()
    argvs = (
        ["star", deep_system, first, first, "-o", str(plain / "star.json")],
        ["corpus", "random", "--seed", "1", "--out-dir", str(plain / "d")],
    )
    for argv in argvs:
        assert main(argv) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("coarsekit: cannot write output: [Errno ")
        assert len(err.splitlines()) == 1
    assert main(["validate", str(plain / "in.json")]) == 65
    assert capsys.readouterr().err.startswith("coarsekit: cannot read input: [Errno ")


def test_provenance_digests_the_bytes_read_before_the_output_is_written(tmp_path, capsys):
    out = tmp_path / "c0"
    assert main(["corpus", "c0", "--s-max", "2", "--box", "1", "--out-dir", str(out)]) == 0
    system = str(out / "system.json")
    ambient = doc_to_system(parse_document(Path(system).read_text(encoding="utf-8")).body).ambient
    ids = ambient.ids
    members = (frozenset(ids[:2]), frozenset(ids[1:3]))
    f = save(tmp_path, "f.json", family_to_doc(Family(ambient, members)))
    before = hashlib.sha256(Path(f).read_bytes()).hexdigest()
    capsys.readouterr()
    assert main(["star", system, f, f, "--format", "structured", "-o", f]) == 0
    report = parse_document(capsys.readouterr().out)
    DECODERS[report.kind](report.body)
    assert hashlib.sha256(Path(f).read_bytes()).hexdigest() != before  # the star overwrote f
    assert report.body["provenance"]["inputs"][f] == "sha256:" + before
    after = "sha256:" + hashlib.sha256(Path(f).read_bytes()).hexdigest()
    assert main(["bounded", system, f, "--format", "structured"]) == 0
    assert parse_document(capsys.readouterr().out).body["provenance"]["inputs"][f] == after


def read(path, kinds, *target):
    """cli._read as one command makes it, with its own digest record."""
    return cli._read(argparse.Namespace(digests={}), path, kinds, *target)


def test_a_second_read_of_the_same_bytes_is_served_decoded(tmp_path, deep_system, memo, capsys):
    system = read(deep_system, ("system",))
    copy = tmp_path / "copy.json"
    copy.write_bytes(Path(deep_system).read_bytes())
    args = argparse.Namespace(digests={})
    assert cli._read(args, str(copy), ("system",)) is system
    assert args.digests == {str(copy): "sha256:" + hashlib.sha256(copy.read_bytes()).hexdigest()}

    memo.clear()
    pts = points([str(i) for i in range(5)])
    f = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1"}),))))
    out_path = tmp_path / "star.json"
    answers = []
    for _ in range(2):  # cold, then every input from the memo
        assert main(["star", deep_system, f, f, "--format", "structured", "-o", str(out_path)]) == 0
        answers.append((capsys.readouterr(), out_path.read_bytes()))
    assert len(memo) == 2
    assert answers[0] == answers[1]


def test_a_rewritten_file_is_decoded_afresh(tmp_path, memo):
    pts = points(["a", "b"])
    path = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"a"}),))))
    assert read(path, ("family",)).members == (frozenset({"a"}),)
    save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"a", "b"}),))))
    assert read(path, ("family",)).members == (frozenset({"a", "b"}),)


@pytest.fixture
def hashed(monkeypatch):
    """The bytes cli passes to SHA-256, in call order."""
    seen = []
    sha256 = hashlib.sha256

    def counted(data):
        seen.append(data)
        return sha256(data)

    monkeypatch.setattr(cli, "hashlib", SimpleNamespace(sha256=counted))
    return seen


def test_a_re_read_of_the_same_bytes_reuses_their_digest(deep_system, hashed, capsys):
    argv = ["validate", deep_system, "--format", "structured"]
    inputs = []
    for _ in range(2):
        assert main(argv) == 0
        inputs.append(parse_document(capsys.readouterr().out).body["provenance"]["inputs"])
    data = Path(deep_system).read_bytes()
    assert hashed == [data]
    assert inputs[0] == inputs[1] == {deep_system: "sha256:" + hashlib.sha256(data).hexdigest()}


def test_a_same_length_rewrite_is_hashed_and_decoded_afresh(
    tmp_path, deep_system, memo, hashed, capsys
):
    pts = points([str(i) for i in range(5)])
    f = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1"}),))))
    first = Path(f).read_bytes()
    assert main(["bounded", deep_system, f]) == 0
    save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"2"}),))))
    second = Path(f).read_bytes()
    assert len(second) == len(first) and second != first
    capsys.readouterr()
    assert main(["bounded", deep_system, f, "--format", "structured"]) == 0
    digest = "sha256:" + hashlib.sha256(second).hexdigest()
    assert parse_document(capsys.readouterr().out).body["provenance"]["inputs"][f] == digest
    assert hashed == [Path(deep_system).read_bytes(), first, second]
    (entry,) = (entry for key, entry in memo.items() if key[0] == digest)
    assert entry[1].members == (frozenset({"2"}),)


def test_the_digest_record_drops_the_least_recently_read_path(tmp_path):
    paths = []
    for i in range(cli.DECODED_ENTRIES + 1):
        path = tmp_path / f"{i}.json"
        path.write_bytes(b"%d" % i)
        paths.append(str(path))
    args = argparse.Namespace(digests={})
    for path in paths[:-1]:
        cli._digested(args, path)
    assert list(cli._DIGESTED) == paths[:-1]
    cli._digested(args, paths[0])  # now the most recently read
    cli._digested(args, paths[-1])
    assert list(cli._DIGESTED) == [*paths[2:-1], paths[0], paths[-1]]


def test_an_invalid_document_fails_alike_on_every_read(tmp_path, deep_system, memo, capsys):
    bad = save(tmp_path, "bad.json", Document("family", "1", {"points": ["0"], "members": [["9"]]}))
    answers = []
    for _ in range(2):
        assert main(["bounded", deep_system, bad]) == 65
        answers.append(capsys.readouterr())
    assert answers[0] == answers[1]
    assert answers[0].err.startswith("coarsekit: input error: ")
    assert len(memo) == 1  # the system alone


def test_a_kind_mismatch_reads_alike_from_the_memo(tmp_path, deep_system, memo, capsys):
    pts = points([str(i) for i in range(5)])
    f = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1"}),))))
    argv = ["check", "asdim", f, "--n", "1", "--witness", f]
    assert main(["bounded", deep_system, f]) == 0
    capsys.readouterr()
    assert main(argv) == 65  # the family is in the memo
    served = capsys.readouterr()
    memo.clear()
    assert main(argv) == 65
    assert capsys.readouterr() == served
    assert served.err == (
        f"coarsekit: input error: {f}: expected a space or system document, got 'family'\n"
    )


def test_a_witness_over_another_target_is_decoded_again(tmp_path, memo):
    first, second = ball_space(3, (1, 2)), ball_space(3, (1, 2))
    w = AmenabilityWitness(first.level(1), first.level(1), Fraction(2), None)
    path = save(tmp_path, "amen.json", witness_to_doc("witness:amenability", w))
    kinds = ("witness:amenability",)
    over_first = read(path, kinds, first)
    assert read(path, kinds, first) is over_first
    over_second = read(path, kinds, second)
    assert over_second is not over_first
    assert over_second.scale.space is second.points
    assert len(memo) == 2


def test_a_lowered_digit_limit_refuses_a_document_again(tmp_path, memo):
    big = "1" + "0" * 5000
    path = tmp_path / "big.json"
    body = f'{{"points": ["a", "b"], "dist": [[0, {big}], [{big}, 0]]}}'
    path.write_text(f'{{"kind": "metric", "version": "1", "body": {body}}}\n', encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(6000)
        assert read(str(path), ("metric",)).rows[0][1] == int(big)
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ParseError, match="an integer has more than 4300 digits"):
            read(str(path), ("metric",))
    finally:
        sys.set_int_max_str_digits(limit)


def _validate_inputs(tmp_path, shape):
    """A document for validate, and an argv that decodes it first through
    another command."""
    if shape == "space":
        _, space = pair_space_doc(tmp_path)
        return space, ["check", "asdim", space, "--n", "1", "--search", "--level", "1"]
    body = system_to_doc(single_piece(ball_space(5, (1, 2)))).body
    if shape == "no-upper":
        del body["upper"]
    elif shape == "empty-upper":
        body["upper"] = []
    system = save(tmp_path, f"{shape}.json", Document("system", "1", body))
    pts = points([str(i) for i in range(5)])
    fam = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1", "2"}),))))
    return system, ["bounded", system, fam]


@pytest.mark.parametrize(
    "shape, detail",
    [
        ("upper", "upper bounds given in the document"),
        ("empty-upper", "upper bounds given in the document"),
        ("no-upper", "upper bounds synthesized by containment search"),
        ("space", "chain is monotone and covering"),
    ],
    ids=["upper", "empty-upper", "no-upper", "space"],
)
def test_validate_answers_alike_cold_and_from_the_memo(tmp_path, memo, capsys, shape, detail):
    """The detail says whether the body gave an upper table, including an
    empty one, whichever command decoded the bytes first."""
    path, other = _validate_inputs(tmp_path, shape)
    digest = "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()
    validate = ["validate", path, "--format", "structured"]
    assert main(validate) == 0
    cold = capsys.readouterr()
    assert detail in cold.out
    assert cold.err == ""
    for first in (validate, other):
        memo.clear()
        main(first)
        capsys.readouterr()
        held = set(memo)
        assert main(validate) == 0
        assert set(memo) == held and next(reversed(memo))[0] == digest  # served from the memo
        assert capsys.readouterr() == cold


def test_a_batch_decodes_its_system_once(tmp_path, deep_system, memo, monkeypatch, capsys):
    decoded = []
    decode = DECODERS["system"]

    def counted(*args):
        decoded.append(args)
        return decode(*args)

    monkeypatch.setitem(docs.DECODERS, "system", counted)
    pts = points([str(i) for i in range(5)])
    f = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1", "2"}),))))
    assert main(["validate", deep_system]) == 0
    assert main(["bounded", deep_system, f]) == 0
    assert main(["star", deep_system, f, f]) == 0
    assert len(decoded) == 1

    body = system_to_doc(single_piece(ball_space(3, (1,)))).body
    body["upper"] = [[0, 0, 1]]
    bad = save(tmp_path, "bad.json", Document("system", "1", body))
    memo.clear()
    capsys.readouterr()
    answers = []
    for _ in range(2):
        assert main(["validate", bad, "--format", "structured"]) == 1
        answers.append(capsys.readouterr())
    assert answers[0] == answers[1]
    assert "not a piece index" in answers[0].out
    assert len(memo) == 0


def test_a_one_shot_validate_prints_what_the_memo_serves(deep_system, memo):
    argv = ["validate", deep_system, "--format", "structured"]
    assert _in_process(argv) == _in_process(argv)  # cold, then from the memo
    assert len(memo) == 1
    assert _fresh_process(argv) == _in_process(argv)


@pytest.mark.parametrize(
    "raw, message",
    [(b"\xff{}", "not UTF-8 text"), (b"[" * 100000, "nests too deeply")],
    ids=["undecodable", "over-deep"],
)
def test_unreadable_documents_exit_65(tmp_path, capsys, raw, message):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    assert main(["validate", str(path)]) == 65
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1


def test_star_truncation_exits_2(tmp_path, shallow_system, capsys):
    pts = points([str(i) for i in range(5)])
    first = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1", "2"}),))))
    second = save(tmp_path, "g.json", family_to_doc(Family(pts, (frozenset({"2", "3"}),))))
    assert main(["star", shallow_system, first, second]) == 2
    assert "[??] star stays bounded" in capsys.readouterr().out


def test_star_past_the_star_depth_names_the_budget(tmp_path, shallow_system, capsys):
    # radius-1 balls starred against themselves reach radius 3, so the
    # chain's star depth is 1, and the first input is bounded only at level 2
    pts = points([str(i) for i in range(5)])
    first = save(tmp_path, "f.json", family_to_doc(Family(pts, (frozenset({"1", "2"}),))))
    second = save(tmp_path, "g.json", family_to_doc(Family(pts, (frozenset({"0"}),))))
    assert main(["star", shallow_system, first, second]) == 2
    assert capsys.readouterr().out == (
        "verdict: undecided-at-truncation\n"
        "  [??] star stays bounded: star budget exhausted in piece 'all': "
        "inputs bounded at levels 2 and 1 but star depth is 1\n"
    )


def pair_space_doc(tmp_path):
    pts = points(["a", "b", "c"])
    sp = validate_space(
        pts,
        [
            Family(pts, tuple(frozenset({p}) for p in pts.ids)),
            Family(pts, (frozenset({"a", "b"}), frozenset({"b", "c"}))),
        ],
    )
    return sp, save(tmp_path, "pairs.json", space_to_doc(sp))


def test_check_asdim_search_finds_or_refutes(tmp_path, capsys):
    _, space_path = pair_space_doc(tmp_path)
    out_path = tmp_path / "witness.json"
    code = main(
        [
            "check", "asdim", space_path,
            "--n", "1", "--search", "--level", "2", "-o", str(out_path),
        ]
    )
    assert code == 0
    wdoc = parse_document(out_path.read_text(encoding="utf-8"))
    assert wdoc.kind == "witness:asdim"
    capsys.readouterr()

    code = main(
        [
            "check", "asdim", space_path,
            "--n", "0", "--search", "--level", "2",
        ]
    )
    assert code == 1
    refuted = "no coarsening of multiplicity at most 1 is bounded at level 2"
    assert refuted in capsys.readouterr().out

    with pytest.raises(SystemExit) as exc:
        main(
            [
                "check", "asdim", space_path,
                "--n", "1", "--search", "--level", "2", "--mode", "greedy",
            ]
        )
    assert exc.value.code == 64
    capsys.readouterr()


def test_check_asdim_search_rejected_by_the_verifier_is_undecided(tmp_path, capsys, monkeypatch):
    _, space_path = pair_space_doc(tmp_path)
    rejected = from_clauses([Clause("coarsening", False, "rejected")])
    monkeypatch.setattr(asdim_module, "asdim_verify", lambda *args: rejected)
    argv = ["check", "asdim", space_path, "--n", "1", "--search", "--level", "2"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert "refuted" not in out
    assert "failed re-verification" in out


def test_check_asdim_search_past_its_node_budget_is_undecided(tmp_path, capsys):
    """The 49-point grid piece with its chain cut to three levels: at n = 1
    the search runs past its node budget and stops, never refuting."""
    space = gen_c0(2, 3).pieces[-1].space
    cut = validate_space(space.points, [space.level(i) for i in range(1, 4)])
    argv = ["check", "asdim", save(tmp_path, "grid.json", space_to_doc(cut))]
    code = main([*argv, "--n", "1", "--search", "--level", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "budget of 100000 nodes" in out
    assert "refuted" not in out


def test_check_asdim_search_on_a_long_path_is_not_bounded_by_the_stack(tmp_path):
    """A 1500-point path whose first level is its 1499 adjacent pairs: the
    search places one pair per node, far past the interpreter's recursion
    limit, and verifies."""
    pts = points([str(i) for i in range(1500)])
    pairs = tuple(0b11 << i for i in range(1499))
    levels = [Family.from_masks(pts, pairs), Family.from_masks(pts, (2**1500 - 1,))]
    sp = validate_space(pts, levels)
    argv = ["check", "asdim", save(tmp_path, "path.json", space_to_doc(sp))]
    code, out, err = _fresh_process([*argv, "--search", "--n", "1", "--level", "1"])
    assert (code, err) == (0, "")
    assert "verdict: verified" in out
    assert "Traceback" not in out


def so_search_argv(tmp_path, images):
    """map-check so --search for the map with these images from a
    three-point line to two points at distance 1."""
    sp = ball_space(3, (1, 2))
    target = path_metric(points(["x", "y"]))
    f = grounded_map(sp.points, target.points, dict(zip(sp.points.ids, images)))
    return [
        "map-check", "so",
        save(tmp_path, "line3.json", space_to_doc(sp)),
        save(tmp_path, "target.json", metric_to_doc(target)),
        save(tmp_path, f"map-{images}.json", map_to_doc(f)),
        "--eps", "1/2", "--level", "1", "--search",
    ]


def found_search_argvs(tmp_path):
    """Searches that find a witness: check asdim --search, and map-check so
    --search with an empty and with a non-empty witness set."""
    _, space_path = pair_space_doc(tmp_path)
    asdim = ["check", "asdim", space_path, "--n", "1", "--search", "--level", "2"]
    return {
        "asdim": asdim,
        "so empty set": so_search_argv(tmp_path, "xxx"),
        "so union": so_search_argv(tmp_path, "xyx"),
    }


def test_no_search_reads_a_rejected_witness_as_refuted(tmp_path, capsys, monkeypatch):
    """The verifier a search checks its witness with decides the outcome:
    when it rejects every witness, every search stops undecided."""
    rejected = from_clauses([Clause("injected verifier", False, "rejects every witness")])
    monkeypatch.setattr(asdim_module, "asdim_verify", lambda *args: rejected)
    monkeypatch.setattr(maps, "slowly_oscillating_verify", lambda *args: rejected)
    for name, argv in found_search_argvs(tmp_path).items():
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 2, name
        assert "refuted" not in out and "[FAIL]" not in out, name


def test_a_searched_witness_is_verified_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def verify(*args):
            calls.append(name)
            return real(*args)

        for owner in (module, cli):
            monkeypatch.setattr(owner, name, verify)

    counted(asdim_module, "asdim_verify")
    counted(maps, "slowly_oscillating_verify")
    for name, argv in found_search_argvs(tmp_path).items():
        calls.clear()
        assert main(argv) == 0, name
        assert len(calls) == 1, name
    capsys.readouterr()


@pytest.mark.parametrize(
    "inv", ["exactness", "pinch", "amenability", "property-a", "apc", "generators"]
)
def test_search_without_a_search_slot_is_a_usage_error(tmp_path, deep_system, capsys, inv):
    """--search is refused where the invariant has no search, even next to a
    witness that verifies, instead of being ignored."""
    if inv == "apc":
        witness = str(tmp_path / "apc.json")
        assert main(["probe", "apc", deep_system, "-o", witness]) == 0
        check = ["check", "apc", deep_system, "--witness", witness]
    elif inv == "generators":
        pts = points(["a", "b", "c"])
        members = (frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"a", "b", "c"}))
        gens = generator_set(pts, (Family(pts, members),))
        gens_path = save(tmp_path, "gens.json", witness_to_doc("witness:generators", gens))
        check = ["check", "generators", gens_path]
    else:
        lift, check = lift_then_check_argv(tmp_path, inv, "M0")
        assert main(lift) == 0
    assert main(check) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*check, "--search"])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: --search is not available for {inv}\n")


def test_a_search_with_a_witness_file_is_a_usage_error(tmp_path, capsys):
    """A search reads no witness file, so naming one is refused, not ignored."""
    argvs = found_search_argvs(tmp_path)
    for argv, flag in ((argvs["asdim"], "--witness"), (argvs["so union"], "--witness-set")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, str(tmp_path / "nonexistent.json")])
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: --search and {flag} cannot be given together\n")


def test_check_amenability_witness(tmp_path, capsys):
    sp = ball_space(3, (1, 2))
    space_path = save(tmp_path, "line3.json", space_to_doc(sp))
    w = AmenabilityWitness(sp.level(1), sp.level(1), Fraction(2), None)
    witness_path = save(tmp_path, "amen.json", witness_to_doc("witness:amenability", w))
    assert main(["check", "amenability", space_path, "--witness", witness_path]) == 0
    assert "verdict: verified" in capsys.readouterr().out


def test_check_exactness_refutes_weights_that_do_not_sum_to_one(tmp_path, capsys):
    """Non-unit weights read and build a witness whose claim fails: refuted,
    exit 1, with the unit clause naming the point. A threshold that is not
    positive builds no witness: an input error, exit 65."""
    pts = points(["a", "b", "c"])
    sp = validate_space(
        pts, [Family(pts, tuple(frozenset(p) for p in "abc")), Family(pts, (frozenset("abc"),))]
    )
    space_path = save(tmp_path, "abc.json", space_to_doc(sp))
    body = {
        "scale": {"level": 1},
        "eps": 1,
        "indices": ["u", "v"],
        "weights": {"a": {"u": 1, "v": 1}, "b": {"u": 1}, "c": {"u": 1}},
    }
    heavy = save(tmp_path, "heavy.json", Document("witness:exactness", "1", body))
    argv = ["check", "exactness", space_path, "--witness", heavy, "--format", "structured"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)["body"]
    assert report["verdict"] == "refuted"
    [unit] = [c for c in report["clauses"] if not c["ok"]]
    assert unit["name"] == "weights form a unit partition at every point"
    assert unit["detail"] == "weights at point 'a' sum to 2, not 1"

    body["eps"] = 0
    flat = save(tmp_path, "flat.json", Document("witness:exactness", "1", body))
    assert main(["check", "exactness", space_path, "--witness", flat]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "variation threshold must be positive" in captured.err


def test_check_generators(tmp_path, capsys):
    pts = points(["a", "b", "c"])
    closed = generator_set(
        pts, (Family(pts, (frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"a", "b", "c"}))),)
    )
    path = save(tmp_path, "gens.json", witness_to_doc("witness:generators", closed))
    assert main(["check", "generators", path]) == 0

    opened = generator_set(
        pts, (Family(pts, (frozenset({"a", "b"}), frozenset({"b", "c"}))),)
    )
    path = save(tmp_path, "open.json", witness_to_doc("witness:generators", opened))
    assert main(["check", "generators", path]) == 1
    assert "verdict: refuted" in capsys.readouterr().out.splitlines()[-2]


def test_lift_and_restrict_asdim_round_trip(tmp_path, capsys):
    fs = gen_disjoint_union(
        [path_metric(points(["a", "b"])), path_metric(points(["c", "d"]))]
    )
    system = save(tmp_path, "sys.json", system_to_doc(fs))
    piece = fs.pieces[0]
    found = asdim_search(piece.space, 0, piece.space.depth)
    assert found.witness is not None
    witness_path = save(
        tmp_path, "piece-witness.json", witness_to_doc("witness:asdim", found.witness)
    )
    lifted_path = tmp_path / "lifted.json"
    code = main(
        [
            "lift", "asdim", system,
            "--piece", "M0", "--n", "0",
            "--witness", witness_path, "-o", str(lifted_path),
        ]
    )
    assert code == 0
    assert parse_document(lifted_path.read_text(encoding="utf-8")).kind == "witness:asdim"
    capsys.readouterr()

    cut_path = tmp_path / "cut.json"
    code = main(
        [
            "restrict", system,
            "--piece", "M0", "--n", "0",
            "--witness", str(lifted_path), "-o", str(cut_path),
        ]
    )
    assert code == 0
    assert parse_document(cut_path.read_text(encoding="utf-8")).kind == "witness:asdim"


# Witnesses for piece M0 of two_islands(): its points are 0:a and 0:b, and its
# single level holds {0:a, 0:b} twice.
PIECE_WITNESSES = {
    "asdim": {"scale": {"level": 1}, "coarsening": [["0:a", "0:b"]]},
    "exactness": {
        "scale": {"level": 1},
        "eps": 1,
        "indices": ["u"],
        "weights": {"0:a": {"u": 1}, "0:b": {"u": 1}},
    },
    "pinch": {
        "scale": {"level": 1},
        "sep": [["0:a", "0:b"]],
        "c": 1,
        "eps": 1,
        "dim": 1,
        "coords": {"0:a": [0], "0:b": [0]},
    },
    "amenability": {
        "scale": {"level": 1},
        "companion": [["0:a", "0:b"], ["0:a", "0:b"]],
        "eps": "1/2",
    },
    "property-a": {
        "scale": [["0:a"], ["0:b"]],
        "support": [["0:a"], ["0:b"]],
        "eps": "1/2",
        "n_cap": 1,
        "sets": {"0:a": [["0:a", 1]], "0:b": [["0:b", 1]]},
    },
}


def two_islands():
    return gen_disjoint_union(
        [path_metric(points(["a", "b"])), path_metric(points(["c", "d"]))]
    )


def lift_then_check_argv(tmp_path, inv, piece):
    """Arguments that lift the M0 witness of inv and then check the lift."""
    fs = two_islands()
    system = save(tmp_path, "sys.json", system_to_doc(fs))
    kind = "witness:" + inv.replace("-", "_")
    witness = save(tmp_path, f"{inv}.json", Document(kind, "1", PIECE_WITNESSES[inv]))
    lifted = str(tmp_path / f"{inv}-lifted.json")
    extra = []
    if inv == "asdim":
        extra = ["--n", "0"]
    lift = ["lift", inv, system, "--piece", piece, "--witness", witness, "-o", lifted, *extra]
    if inv == "amenability":
        members = (frozenset({"0:a", "0:b"}),) * 2 + (frozenset({"1:c"}), frozenset({"1:d"}))
        u = save(tmp_path, "input.json", family_to_doc(Family(fs.ambient, members)))
        lift += ["--input", u]
    return lift, ["check", inv, system, "--witness", lifted, *extra]


@pytest.mark.parametrize("piece", ["M0", "0"])
@pytest.mark.parametrize("inv", ["exactness", "pinch", "amenability", "property-a"])
def test_lift_then_check(tmp_path, capsys, inv, piece):
    lift, check = lift_then_check_argv(tmp_path, inv, piece)
    assert main(lift) == 0
    assert main(check) == 0
    assert capsys.readouterr().out.count("verdict: verified") == 2


def test_a_bound_naming_the_piece_past_the_last_refutes(tmp_path, capsys):
    """A lifted asdim witness whose bound certificate names piece N, for a
    system of N pieces, fails its bound clause instead of indexing past the
    pieces."""
    lift, check = lift_then_check_argv(tmp_path, "asdim", "M0")
    assert main(lift) == 0
    lifted = Path(lift[lift.index("-o") + 1])
    doc = parse_document(lifted.read_text(encoding="utf-8"))
    pieces = len(two_islands().pieces)
    assert doc.body["bound"] == {"piece": 0, "level": 1}
    body = {**doc.body, "bound": {"piece": pieces, "level": 1}}
    save(tmp_path, lifted.name, Document(doc.kind, doc.version, body))
    capsys.readouterr()
    assert main([*check, "--format", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)["body"]
    assert report["verdict"] == "refuted"
    [failed] = [c for c in report["clauses"] if not c["ok"]]
    assert failed["name"] == "coarsening bounded"
    assert failed["detail"] == "claimed boundedness certificate does not check"


def test_a_structured_lift_emits_its_artifact_once(tmp_path, capsys, monkeypatch):
    """The -o file and the report's artifacts entry are one emission: the
    artifact's body passes through the writer once."""
    lift, _ = lift_then_check_argv(tmp_path, "pinch", "M0")
    made, written = [], []

    def witness_to_doc(*args, real=docs.witness_to_doc):
        made.append(real(*args))
        return made[-1]

    def write(value, *rest, real=docs._write):
        written.append(value)
        real(value, *rest)

    monkeypatch.setattr(docs, "witness_to_doc", witness_to_doc)
    monkeypatch.setattr(docs, "_write", write)
    assert main([*lift, "--format", "structured"]) == 0
    [artifact] = made
    assert sum(value is artifact.body for value in written) == 1
    report = json.loads(capsys.readouterr().out)
    saved = Path(lift[lift.index("-o") + 1]).read_text(encoding="utf-8")
    assert report["body"]["artifacts"] == {"witness": json.loads(saved)}


@pytest.mark.parametrize(
    "name",
    ["1_0", " 1 ", "+1", "\u0661", "1" * 5000],
    ids=["underscore", "spaces", "plus", "arabic-indic", "5000-digits"],
)
def test_a_piece_index_is_ascii_digits_only(tmp_path, capsys, name):
    """Eleven pieces, so ``1_0`` read as an integer would select piece 10."""
    system = save(tmp_path, "sys.json", system_to_doc(gen_unit_interval(11).system))
    argv = ["lift", "exactness", system, "--piece", name, "--witness", str(tmp_path / "w.json")]
    assert main(argv) == 65
    assert capsys.readouterr().err == f"coarsekit: input error: no piece named {name!r}\n"


def test_a_piece_is_selected_by_its_ascii_index():
    fs = gen_unit_interval(11).system
    assert fs.piece_index("10") == fs.piece_index("010") == fs.piece_index("X11") == 10
    with pytest.raises(DomainError, match="^piece index 11 out of range$"):
        fs.piece_index("11")


def test_tracer_sees_every_verify_and_lift(tmp_path):
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("coarsekit_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        for inv in PIECE_WITNESSES:
            lift, check = lift_then_check_argv(tmp_path, inv, "M0")
            assert main(lift) == 0
            assert main(check) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    got = tracer.snapshot()
    assert tracing.INVARIANTS == tuple(inv.replace("-", "_") for inv in PIECE_WITNESSES)
    for inv in tracing.INVARIANTS:
        assert got[f"invariants.{inv}.verify_s"] > 0, inv
        assert got[f"invariants.{inv}.lift_s"] > 0, inv


def test_tracer_sees_every_search(tmp_path, deep_system):
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("coarsekit_bench_tracing_searches", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        argvs = found_search_argvs(tmp_path)
        assert main(argvs["asdim"]) == 0
        assert main(argvs["so union"]) == 0
        assert main(["probe", "apc", deep_system]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    got = tracer.snapshot()
    for metric in ("invariants.asdim.search_s", "invariants.apc.probe_s", "maps.check_s"):
        assert got[metric] > 0, metric


def test_tracer_sees_the_decoders_system_check(deep_system, capsys):
    """The decoder builds its system through validate_system, so the
    system's self-check is timed as colimit.validate_s, not as decoding."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("coarsekit_bench_tracing_systems", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        assert main(["validate", deep_system]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.snapshot()["colimit.validate_s"] > 0


def test_lift_generators(tmp_path, capsys):
    fs = gen_disjoint_union(
        [path_metric(points(["a", "b"])), path_metric(points(["c", "d"]))]
    )
    system = save(tmp_path, "sys.json", system_to_doc(fs))
    set_paths = []
    for i, pc in enumerate(fs.pieces):
        gs = generator_set(pc.space.points, (pc.space.level(pc.space.depth),))
        set_paths.append(save(tmp_path, f"gens{i}.json", witness_to_doc("witness:generators", gs)))
    merged_path = tmp_path / "merged.json"
    code = main(
        ["lift", "generators", system, "--sets", *set_paths, "-o", str(merged_path)]
    )
    assert code == 0
    merged = parse_document(merged_path.read_text(encoding="utf-8"))
    assert merged.kind == "witness:generators"
    DECODERS[merged.kind](merged.body)
    capsys.readouterr()

    code = main(["lift", "generators", system, "--sets", set_paths[0]])
    assert code == 65
    assert "one generator set per piece is required" in capsys.readouterr().err


def test_map_check_bornologous_and_close(tmp_path, capsys):
    sp = ball_space(3, (1, 2))
    space_path = save(tmp_path, "line3.json", space_to_doc(sp))
    ident = save(tmp_path, "id.json", map_to_doc(identity_map(sp.points)))
    assert main(["map-check", "bornologous", space_path, space_path, ident]) == 0

    shallow = save(tmp_path, "line5.json", space_to_doc(ball_space(5, (1,))))
    pts5 = points([str(i) for i in range(5)])
    ident5 = save(tmp_path, "id5.json", map_to_doc(identity_map(pts5)))
    const5 = save(
        tmp_path,
        "const5.json",
        map_to_doc(grounded_map(pts5, pts5, {p: "4" for p in pts5.ids})),
    )
    assert main(["map-check", "close", shallow, ident5, ident5]) == 0
    assert main(["map-check", "close", shallow, ident5, const5]) == 1
    assert "verdict: refuted" in capsys.readouterr().out


def test_map_check_refuses_an_image_outside_the_codomain(tmp_path, capsys):
    ids = ["0", "1", "2"]
    space_path = save(tmp_path, "line3.json", space_to_doc(ball_space(3, (1, 2))))
    body = {"domain": ids, "codomain": ids, "table": {"0": "0", "1": "1", "2": "9"}}
    bad = save(tmp_path, "bad.json", Document("map", "1", body))
    assert main(["map-check", "bornologous", space_path, space_path, bad]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "body.table: image '9' is not in the codomain" in captured.err


def test_map_check_close_refuses_maps_off_the_target_points(tmp_path, capsys):
    ab, abc = points("ab"), points("abc")
    singletons = Family(ab, (frozenset("a"), frozenset("b")))
    dst = save(tmp_path, "dst.json", space_to_doc(validate_space(ab, [singletons])))
    f = save(tmp_path, "f.json", map_to_doc(identity_map(abc)))
    c_to_a = grounded_map(abc, abc, {"a": "a", "b": "b", "c": "a"})
    g = save(tmp_path, "g.json", map_to_doc(c_to_a))
    assert main(["map-check", "close", dst, f, g]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "coarsekit: input error: codomain does not match the target space\n"


def test_map_check_so_search_and_system(tmp_path, capsys):
    sp = ball_space(3, (1, 2))
    space_path = save(tmp_path, "line3.json", space_to_doc(sp))
    target = path_metric(points(["x", "y"]))
    metric_path = save(tmp_path, "target.json", metric_to_doc(target))
    const = save(
        tmp_path,
        "const.json",
        map_to_doc(grounded_map(sp.points, target.points, {p: "x" for p in sp.points.ids})),
    )
    out_path = tmp_path / "witness-set.json"
    code = main(
        [
            "map-check", "so", space_path, metric_path, const,
            "--eps", "1/2", "--level", "1", "--search", "-o", str(out_path),
        ]
    )
    assert code == 0
    fam_doc = parse_document(out_path.read_text(encoding="utf-8"))
    assert fam_doc.kind == "family"
    DECODERS[fam_doc.kind](fam_doc.body)
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["map-check", "so", space_path, metric_path, const, "--level", "1"])
    assert exc.value.code == 64
    assert capsys.readouterr().err.endswith("error: --eps is required here\n")

    fs = single_piece(sp)
    system_path = save(tmp_path, "sys.json", system_to_doc(fs))
    scale_path = save(
        tmp_path, "scale.json", family_to_doc(sp.level(2))
    )
    empty_b = save(tmp_path, "b.json", family_to_doc(Family(sp.points, ())))
    code = main(
        [
            "map-check", "so", system_path, metric_path, const,
            "--eps", "1/2", "--scale", scale_path, "--witness-set", empty_b,
        ]
    )
    assert code == 0


@pytest.mark.parametrize("eps", ["abc", "1/0", "1.5", "1e10000000", " 1/2"])
def test_malformed_eps_is_a_usage_error(capsys, eps):
    with pytest.raises(SystemExit) as exc:
        main(["map-check", "so", "src.json", "metric.json", "map.json", "--eps", eps])
    assert exc.value.code == 64
    assert f"invalid Fraction value: {eps!r}" in capsys.readouterr().err


@pytest.mark.parametrize("radii", ["1,1e10000000", "1,1.5", "1,1/0"])
def test_radii_outside_the_document_rule_are_invalid_input(tmp_path, capsys, radii):
    """Each part of --radii, stripped, is a rational as documents write one,
    so an exponent form is refused at once instead of building its integer."""
    argv = ["corpus", "c0", "--s-max", "1", "--box", "1", "--radii", radii]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 65
    assert capsys.readouterr().err == f"coarsekit: input error: malformed radii list {radii!r}\n"
    assert main([*argv[:-1], " 1 , 2 ", "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--budget", "-1", "must be at least 0, got -1"),
        ("--prefix", "-2", "must be at least 1, got -2"),
        ("--prefix", "0", "must be at least 1, got 0"),
        ("--budget", "many", "invalid int value: 'many'"),
    ],
)
def test_invalid_probe_settings_are_usage_errors(deep_system, capsys, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["probe", "apc", deep_system, flag, value])
    assert exc.value.code == 64
    assert f"argument {flag}: {message}" in capsys.readouterr().err


def test_corpus_unit_interval_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["corpus", "unit-interval", "--n-max", "4", "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("wrote ") for line in lines)
    kinds = {
        "system.json": "system",
        "reciprocal-map.json": "map",
        "constant-map.json": "map",
        "target-metric.json": "metric",
        "colimit-chain.json": "space",
    }
    for name, kind in kinds.items():
        doc = parse_document((out / name).read_text(encoding="utf-8"))
        assert doc.kind == kind
        DECODERS[kind](doc.body)
    for i in range(1, 5):
        assert (out / f"piece-chain-{i}.json").exists()


def test_corpus_generation_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["corpus", "c0", "--s-max", "2", "--box", "1", "--out-dir", str(out)]) == 0
        assert main(["corpus", "random", "--seed", "9", "--out-dir", str(out / "r")]) == 0
    assert (a / "system.json").read_bytes() == (b / "system.json").read_bytes()
    assert (a / "r" / "system.json").read_bytes() == (b / "r" / "system.json").read_bytes()


def test_corpus_disjoint_union(tmp_path):
    out = tmp_path / "du"
    assert main(["corpus", "disjoint-union", "--islands", "2,3", "--out-dir", str(out)]) == 0
    doc = parse_document((out / "system.json").read_text(encoding="utf-8"))
    assert doc.kind == "system"
    DECODERS[doc.kind](doc.body)
    names = [p["name"] for p in doc.body["pieces"]]
    assert names == ["M0", "M1", "M0+M1"]


@pytest.mark.parametrize(
    "islands, message",
    [
        ("100000", "cap exceeded: 100000 points, at most 64 allowed"),
        ("100000,-99999", "point set must be non-empty"),
        ("1,1,1,1,1", "cap exceeded: 5 islands, at most 4 allowed"),
    ],
    ids=["one-large", "negative", "five"],
)
def test_oversized_islands_are_refused_before_any_is_built(
    tmp_path, capsys, monkeypatch, islands, message
):
    def refuse(pts):
        raise AssertionError(f"built an island of {len(pts)} points")

    monkeypatch.setattr(cli, "path_metric", refuse)
    argv = ["corpus", "disjoint-union", "--islands", islands, "--out-dir", str(tmp_path)]
    assert main(argv) == 65
    assert capsys.readouterr().err == f"coarsekit: input error: {message}\n"


@pytest.mark.parametrize(
    "s_max, count",
    [("6", "729"), ("10000", "3**10000")],
    ids=["printable", "too-long-to-print"],
)
def test_oversized_grid_exits_65_naming_its_size(tmp_path, capsys, s_max, count):
    argv = ["corpus", "c0", "--s-max", s_max, "--box", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 65
    message = f"cap exceeded: {count} grid points, at most 512 allowed"
    assert capsys.readouterr().err == f"coarsekit: input error: {message}\n"


def test_island_total_too_long_to_print_is_refused():
    # corpus disjoint-union passes its parsed sizes to check_island_caps;
    # called directly here so that no code path can start building islands.
    limit = sys.get_int_max_str_digits()
    size = 10**limit - 1  # the largest size int() reads from text
    with pytest.raises(DomainError, match=f"a reported number has more than {limit} digits"):
        cli.check_island_caps([size, size])


def test_integer_beyond_the_conversion_limit_is_a_parse_error(tmp_path, capsys):
    fam = family_to_doc(Family(points(["a"]), (frozenset({"a"}),)))
    text = emit_document(fam)[:-2] + ', "x": 1' + "0" * 5000 + "}\n"
    message = f"an integer has more than {sys.get_int_max_str_digits()} digits"
    with pytest.raises(ParseError, match=message):
        parse_document(text)
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 65
    assert capsys.readouterr().err == f"coarsekit: input error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_number_too_long_to_report_exits_65(tmp_path, capsys, fmt):
    space = save(tmp_path, "m0.json", space_to_doc(two_islands().pieces[0].space))
    body = dict(PIECE_WITNESSES["pinch"], coords={"0:a": [0], "0:b": ["1" + "0" * 2200]})
    witness = save(tmp_path, "w.json", Document("witness:pinch", "1", body))
    assert main(["check", "pinch", space, "--witness", witness, "--format", fmt]) == 65
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr() == (
        "", f"coarsekit: input error: a reported number has more than {limit} digits\n"
    )


def test_probe_apc(tmp_path, deep_system, capsys):
    out_path = tmp_path / "apc.json"
    assert main(["probe", "apc", deep_system, "-o", str(out_path)]) == 0
    assert parse_document(out_path.read_text(encoding="utf-8")).kind == "witness:apc"
    capsys.readouterr()

    assert main(["probe", "apc", deep_system, "--budget", "0"]) == 2
    assert "verdict: undecided-at-truncation" in capsys.readouterr().out


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coarsekit", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_answers_like_a_fresh_process(tmp_path, monkeypatch):
    """One interpreter runs every argv through the one parser; each answer
    must match that of the same argv in its own process."""
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the same width
    assert build_parser() is build_parser()
    _, space = pair_space_doc(tmp_path)
    islands = [path_metric(points(["a", "b"])), path_metric(points(["c", "d", "e"]))]
    system = save(tmp_path, "islands.json", system_to_doc(gen_disjoint_union(islands)))
    witness = str(tmp_path / "witness.json")
    asdim = ["check", "asdim", space, "--n", "1", "--format", "structured"]
    argvs = [
        ["probe", "apc", system, "--budget", "-1"],
        ["validate", space],
        [*asdim, "--search", "--level", "2", "-o", witness],
        [*asdim, "--witness", witness],
        ["check", "asdim", space, "--search"],
        ["probe", "apc", system, "--budget", "3", "--format", "structured"],
        ["probe", "apc", system, "--format", "structured"],
        ["--version"],
        ["check", "--help"],
    ]
    reused = [_in_process(argv) for argv in argvs]
    assert [code for code, _, _ in reused] == [64, 0, 0, 0, 64, 2, 0, 0, 0]
    for argv, answer in zip(argvs, reused):
        assert answer == _fresh_process(argv), argv


EDGE_ARGVS = [
    [],
    ["--version"],
    ["-h"],
    ["lif", "pinch", "s"],
    ["--format", "structured", "validate", "x"],
    ["validate", "a", "b"],
    ["star", "a", "b", "c", "--", "x"],
    ["check", "--version"],
    ["check", "-h"],
    ["probe", "apc", "s", "--budget", "-1"],
    ["lift", "pinch", "s", "--wit", "w"],
]


def test_edge_argvs_answer_as_through_the_top_parser(tmp_path, monkeypatch):
    """Usage errors, help, --version, an abbreviated command or option and
    leftover arguments: main answers alike with its one-pass dispatch and
    with the top parser alone. No file named here exists."""
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the same width
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_parse_args", PARSE_ARGS)
    direct = [_in_process(argv) for argv in EDGE_ARGVS]
    monkeypatch.setattr(cli, "_parse_args", build_parser().parse_args)
    assert direct == [_in_process(argv) for argv in EDGE_ARGVS]
    assert [code for code, _, _ in direct] == [64, 0, 0, 64, 64, 64, 64, 64, 0, 64, 65]
    assert direct[5][2].endswith("coarsekit: error: unrecognized arguments: b\n")


WORKLOAD_ARGVS = """
import json, sys
import grid, harmonic, randomcli
from harness import Documents

argvs = []
for workload in (grid, harmonic, randomcli):
    out = Documents()
    plan = workload.setup(out, workload.NAME, 7)
    out.write()
    argvs += [op.argv for op in workload.operations(plan)]
json.dump(argvs, sys.stdout)
"""


def test_every_benchmark_argv_parses_as_through_the_top_parser(tmp_path):
    """One seed-7 pass of each benchmark workload, its documents written
    under tmp_path, where the workloads' operations read some of them."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", WORKLOAD_ARGVS],
        cwd=tmp_path, capture_output=True, text=True, env=env, check=True,
    )
    argvs = json.loads(proc.stdout)
    assert len(argvs) == 35 + 93 + 2288
    parser = build_parser()
    for argv in argvs:
        assert vars(PARSE_ARGS(argv)) == vars(parser.parse_args(argv)), argv


def _three_piece_body(member):
    """A valid three-piece system when ``member`` is ``["a", "b"]``; the
    member is the second of piece A's one scale."""
    return {
        "ambient": ["a", "b", "c"],
        "pieces": [
            {"name": "A", "carrier": ["a", "b"], "scales": [[["a"], member]]},
            {"name": "B", "carrier": ["b", "c"], "scales": [[["b", "c"]]]},
            {"name": "C", "carrier": ["a", "b", "c"], "scales": [[["a", "b", "c"]]]},
        ],
    }


@pytest.mark.parametrize(
    "member, message",
    [
        (["b", "c", "zz"], "unknown point 'c'"),
        (["b", 1], "expected a list of strings"),
        (["b", ["a"]], "expected a list of strings"),
        ("ab", "expected a list of strings"),
    ],
    ids=["outside-carrier", "integer", "nested-list", "string"],
)
def test_untrusted_scale_members_exit_65(tmp_path, capsys, member, message):
    good = save(tmp_path, "good.json", Document("system", "1", _three_piece_body(["a", "b"])))
    assert main(["validate", good]) == 0
    bad = save(tmp_path, "bad.json", Document("system", "1", _three_piece_body(member)))
    capsys.readouterr()
    assert main(["validate", bad]) == 65
    assert capsys.readouterr().err == (
        f"coarsekit: input error: body.pieces[0].scales[0][1]: {message}\n"
    )


def test_family_outside_the_ambient_set_exits_65(tmp_path, capsys):
    system = save(tmp_path, "system.json", Document("system", "1", _three_piece_body(["a", "b"])))
    body = {"points": ["zz"], "members": [["zz"]]}
    fam = save(tmp_path, "f.json", Document("family", "1", body))
    assert main(["bounded", system, fam]) == 65
    assert capsys.readouterr().err == (
        "coarsekit: input error: member point 'zz' outside the point set\n"
    )


def test_c0_with_more_coordinates_than_a_box_1_grid_holds_exits_65(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["corpus", "c0", "--s-max", "300", "--box", "0", "--out-dir", str(out)]
    assert main(argv) == 65
    message = "cap exceeded: 300 coordinates, at most 5 allowed"
    assert capsys.readouterr().err == f"coarsekit: input error: {message}\n"
    assert not out.exists() or not any(out.iterdir())
    assert main([*argv[:3], "5", *argv[4:]]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["c0", "--s-max", "300", "--box", "0"],
        ["c0", "--s-max", "6", "--box", "1"],
        ["disjoint-union", "--islands", "65"],
    ],
    ids=["coordinates", "grid-points", "island-points"],
)
def test_refused_corpus_command_creates_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "nested" / "out"
    assert main(["corpus", *argv, "--out-dir", str(out)]) == 65
    assert "cap exceeded" in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


def _repeat_first_point(member):
    return member[:1] + member


def test_members_with_a_repeated_point_decode_as_their_set(tmp_path, capsys):
    """Every kind that carries member lists reads a repeated point once: the
    commands print the same reports and write the same artifacts as for the
    documents without the repeat."""
    sp = ball_space(4, (1, 3))
    ids = list(sp.points.ids)
    left = frozenset({"0", "1", "2"})
    pieces = [Piece("left", restrict(sp, left)), Piece("all", sp)]
    clean = {
        "space": space_to_doc(sp),
        "system": system_to_doc(validate_system(sp.points, pieces)),
        "family": Document("family", "1", {"points": ids, "members": [["0", "1"], ["2", "3"]]}),
        "witness": Document(
            "witness:asdim", "1", {"scale": {"level": 2}, "coarsening": [["0", "1", "2", "3"]]}
        ),
    }
    dup = {kind: json.loads(emit_document(doc)) for kind, doc in clean.items()}
    scales = dup["space"]["body"]["scales"]
    scales[1][0] = _repeat_first_point(scales[1][0])
    for piece in dup["system"]["body"]["pieces"]:
        piece["scales"][1][0] = _repeat_first_point(piece["scales"][1][0])
    dup["family"]["body"]["members"][0] = _repeat_first_point(["0", "1"])
    dup["witness"]["body"]["coarsening"][0] = _repeat_first_point(ids)

    path = {kind: str(tmp_path / f"{kind}.json") for kind in clean}
    g = save(tmp_path, "g.json", Document("family", "1", {"points": ids, "members": [["1", "2"]]}))
    body = {"scale": {"level": 2}, "coarsening": [["0", "1", "2"]]}
    wl = save(tmp_path, "wl.json", Document("witness:asdim", "1", body))
    out = str(tmp_path / "out.json")
    space, system, fam, wa = path["space"], path["system"], path["family"], path["witness"]
    commands = {
        "space": [
            ["validate", space],
            ["check", "asdim", space, "--search", "--n", "1", "--level", "2", "-o", out],
        ],
        "system": [
            ["validate", system],
            ["lift", "asdim", system, "--piece", "left", "--witness", wl, "--n", "1", "-o", out],
        ],
        "family": [
            ["bounded", system, fam],
            ["star", system, fam, g, "-o", out],
        ],
        "witness": [
            ["check", "asdim", space, "--witness", wa, "--n", "0"],
            ["lift", "asdim", system, "--piece", "all", "--witness", wa, "--n", "0", "-o", out],
        ],
    }

    def run(kind, text):
        for k, doc in clean.items():
            save(tmp_path, f"{k}.json", doc)
        Path(path[kind]).write_text(text, encoding="utf-8")
        seen = []
        for argv in commands[kind]:
            Path(out).unlink(missing_ok=True)
            rc = main(argv)
            written = Path(out).read_text(encoding="utf-8") if Path(out).exists() else None
            seen.append((rc, capsys.readouterr().out, written))
        return seen

    for kind, doc in clean.items():
        want = run(kind, emit_document(doc))
        assert [rc for rc, _, _ in want] == [0, 0], kind
        assert want[-1][2] is not None, kind
        assert run(kind, json.dumps(dup[kind])) == want, kind


def test_tracer_counts_star_refinement_and_space_validation(tmp_path):
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("coarsekit_bench_tracing_kernels", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        out = tmp_path / "c0"
        assert main(["corpus", "c0", "--s-max", "2", "--box", "1", "--out-dir", str(out)]) == 0
        system = str(out / "system.json")
        ids = json.loads((out / "system.json").read_text(encoding="utf-8"))["body"]["ambient"]
        body = {"points": ids, "members": [ids[:2], ids[1:3]]}
        fam = save(tmp_path, "f.json", Document("family", "1", body))
        assert main(["validate", system]) == 0
        assert main(["bounded", system, fam]) == 0
        assert main(["star", system, fam, fam]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    got = tracer.snapshot()
    assert got["families.star_calls"] > 0
    assert got["families.refine_calls"] > 0
    assert got["spaces.validate_calls"] > 0
