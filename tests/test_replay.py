"""Byte identity of the CLI's answers on the benchmark workloads.

``scripts/replay_digest.py`` runs one pass of a workload's operations and
prints a sha256 over every argv, exit code, stdout, stderr and ``-o`` file.
A change that alters any answer byte on a workload at seed 7 changes the
digest recorded here. random-cli is the only workload that emits every
document shape.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HARMONIC_SEED_7 = "42b63369c7b22f3b57f501dcf76fa26a83af0979bb76d335157127e2b96ec54b"
# workload: (operations in one pass, digest at seed 7)
OTHER_SEED_7 = {
    "random-cli": (2288, "831e192bd4982262b7b9858d8feb44a7ddd69b6186258509ee762b1804557f3d"),
    "grid-cli": (35, "e69b387d3ff3ef52f07513d4f8da1b9bd2944e574ed1e6635b69a4eb5bbaffe7"),
}


def replay_line(workload: str, passes: int = 1) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_digest.py"),
         "--workload", workload, "--seed", "7", "--passes", str(passes)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_harmonic_replay_digest_is_unchanged():
    assert replay_line("harmonic-cli") == (
        f"harmonic-cli seed 7: 93 operations, sha256 {HARMONIC_SEED_7}\n"
    )


@pytest.mark.parametrize("workload", list(OTHER_SEED_7))
def test_replay_digest_is_unchanged(workload):
    count, digest = OTHER_SEED_7[workload]
    assert replay_line(workload) == (
        f"{workload} seed 7: {count} operations, sha256 {digest}\n"
    )


def test_a_second_pass_in_one_process_answers_byte_for_byte_alike():
    """The second pass reads every input again, each of grid-cli's and most
    of harmonic-cli's already decoded in the first, so a command that
    changed a decoded value shows here."""
    want = {
        "grid-cli": f"grid-cli seed 7: 35 operations, sha256 {OTHER_SEED_7['grid-cli'][1]}\n",
        "harmonic-cli": f"harmonic-cli seed 7: 93 operations, sha256 {HARMONIC_SEED_7}\n",
    }
    for workload, line in want.items():
        assert replay_line(workload, passes=2) == line * 2, workload
