"""Behaviour pins: the state hash, result-CSV row and decision trace of short
fixed runs.

The runs and their hashes live in ``pinned_runs.py``.
"""

import pytest
from pinned_runs import PINS, SCENARIOS, observe


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pinned_run_is_unchanged(name):
    assert observe(name) == PINS[name]
