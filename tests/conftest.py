from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, settings

from coarsekit import cli

settings.register_profile(
    "coarsekit",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("coarsekit")


@pytest.fixture(autouse=True)
def memo(monkeypatch):
    """An empty memo of decoded inputs and an empty digest record for each
    test, so that no test is served a value or a digest an earlier test
    made. The memo is returned; the record is cli._DIGESTED."""
    fresh = OrderedDict()
    monkeypatch.setattr(cli, "_DECODED", fresh)
    monkeypatch.setattr(cli, "_DIGESTED", OrderedDict())
    return fresh
