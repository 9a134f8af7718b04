"""Smoke tests of ``scripts/closeness_gap.py``, ``scripts/probe_apc.py``,
``scripts/witness_timing.py`` and ``scripts/corpus_digest.py`` on small
instances: each runs to exit 0 and prints its summary lines."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, args, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    rc = module.main()
    return rc, capsys.readouterr().out.splitlines()


def test_closeness_gap_finds_every_predicted_violation(monkeypatch, capsys):
    rc, lines = run_script("closeness_gap", ["--n-max", "4"], monkeypatch, capsys)
    assert rc == 0
    assert lines[0] == "domain: 1, 1/2, 1/3, 1/4, 1/5"
    pieces = [line for line in lines if line.startswith("  piece X")]
    assert [line.split()[-4] for line in pieces] == ["1", "1", "2", "2"]
    assert "  level 1: widest member diameter 2, violated at 1/4 = 1/(M+2) as predicted" in lines
    assert lines[-1] == "colimit close_check: None"


def test_probe_apc_reverifies_every_witness_and_claims_no_negative(monkeypatch, capsys):
    rc, lines = run_script("probe_apc", ["--seeds", "2"], monkeypatch, capsys)
    assert rc == 0
    assert lines[-6:] == [
        "instances probed        6",
        "witnesses on both sides 6",
        "piece side only         0",
        "open on every side      0",
        "claimed negatives       0",
        "re-verification fails   0",
    ]


# sha256 over the emitted lifted witnesses of both cases; how a matrix entry
# is held, as an int or a Fraction, changes none of their bytes.
LIFTED_DIGEST = "b2c568dfbaf719252afa17219ce41112ca9e74982e83436f37c138da309f4aef"


def test_witness_timing_lifts_and_re_emits_every_witness(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ on it
    rc, lines = run_script("witness_timing", ["--repeat", "1"], monkeypatch, capsys)
    assert rc == 0
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "c0-2x3 grid1 pinch",
        "c0-2x3 grid1 exactness",
        "c0-3x2 grid2 pinch",
        "c0-3x2 grid2 exactness",
    ]
    assert lines[0].startswith("c0-2x3 grid1 pinch: 49 points, width 44, lift ")
    assert lines[3].startswith("c0-3x2 grid2 exactness: 125 points, width 125, lift ")
    for line in lines[:-1]:
        assert re.search(r", verify \d+\.\d{3} ms, emit \d+\.\d{3} ms, decode \d+\.\d{3} ms$", line)
    assert lines[-1] == f"lifted 4 witnesses, 0 re-emit other bytes, sha256 {LIFTED_DIGEST}"


def test_corpus_digest_repeats_a_case_and_prints_its_best_time(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on it
    rc, once = run_script("corpus_digest", ["c0 --s-max 2 --box 1"], monkeypatch, capsys)
    assert rc == 0
    rc, lines = run_script(
        "corpus_digest", ["--repeat", "3", "c0 --s-max 2 --box 1", "random --seed 3"],
        monkeypatch, capsys,
    )
    assert rc == 0
    assert len(lines) == 2
    shape = r"^{}: 1 files, sha256 [0-9a-f]{{64}}, \d+\.\d{{3}} s$"
    assert re.match(shape.format("c0 --s-max 2 --box 1"), lines[0])
    assert re.match(shape.format("random --seed 3"), lines[1])
    # the digest of three calls is the digest of one
    assert lines[0].rsplit(", ", 1)[0] == once[0].rsplit(", ", 1)[0]
    assert "d20d05c76b59a7b8855686633b2083daee02106e0917556cbab3f8e0b451bf4f" in lines[1]


def test_corpus_digest_refuses_fewer_than_one_call(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as exc:
        run_script("corpus_digest", ["--repeat", "0", "random --seed 3"], monkeypatch, capsys)
    assert exc.value.code == 2
    assert "--repeat must be at least 1" in capsys.readouterr().err
