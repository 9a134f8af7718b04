"""Smoke tests of ``scripts/closeness_gap.py`` and ``scripts/probe_apc.py``
on small instances: each runs to exit 0 and prints its summary lines."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

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
