"""The README's library tour runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out == "ColimitBoundedness(piece=0, level=1)\n"
