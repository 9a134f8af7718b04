"""Smoke test of ``scripts/load_timing.py`` on its smallest case."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

from coarsekit.corpus import gen_unit_interval

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("load_timing", ROOT / "scripts" / "load_timing.py")
load_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(load_timing)


def test_unit_interval_8_loads_and_re_emits_byte_for_byte():
    lines, digest, count, differ = load_timing.load_timing(["unit-interval-8"], repeat=1)
    assert [line.split(":")[0] for line in lines] == [
        "unit-interval-8 system",
        "unit-interval-8 space",
    ]
    assert lines[1].startswith("unit-interval-8 space: 9 documents, ")
    for line in lines:
        fields = r" bytes, digest \d+\.\d{3} ms, parse \d+\.\d{3} ms, decode \d+\.\d{3} ms, "
        assert re.search(fields + r"emit \d+\.\d{3} ms(,|$)", line), line
    field = re.search(r", star depth (\d+) levels, \d+\.\d{3} ms$", lines[0])
    assert field, lines[0]
    pieces = gen_unit_interval(8).system.pieces
    assert int(field.group(1)) == sum(piece.space.star_depth for piece in pieces)
    assert "star depth" not in lines[1]
    assert (count, differ) == (10, 0)
    assert len(digest) == 64
