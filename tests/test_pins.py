"""Behaviour pins: the state hash, result-CSV row and decision trace of short
fixed runs, and the medium's jitter draw.

The runs, their hashes and the jitter check live in ``pinned_runs.py``.
"""

import pytest
from pinned_runs import JITTER_SPANS, PINS, SCENARIOS, jitter_draws, observe


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pinned_run_is_unchanged(name):
    assert observe(name) == PINS[name]


@pytest.mark.parametrize("span", JITTER_SPANS)
def test_jitter_draw_equals_randrange_on_the_mac_stream(span):
    drawn, expected = jitter_draws(span)
    assert drawn == expected
