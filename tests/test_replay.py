"""Byte identity of the CLI's answers on one benchmark workload.

``scripts/replay_digest.py`` runs one pass of a workload's operations and
prints a sha256 over every argv, exit code, stdout, stderr and ``-o`` file.
A change that alters any answer byte on the harmonic-cli workload at seed 7
changes the digest recorded here.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARMONIC_SEED_7 = "42b63369c7b22f3b57f501dcf76fa26a83af0979bb76d335157127e2b96ec54b"


def test_harmonic_replay_digest_is_unchanged():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_digest.py"),
         "--workload", "harmonic-cli", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"harmonic-cli seed 7: 93 operations, sha256 {HARMONIC_SEED_7}\n"
