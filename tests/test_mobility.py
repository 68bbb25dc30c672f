import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manetsim.engine import us_from_s
from manetsim.mobility import (
    Area,
    MobilityHistory,
    distance,
    predict_position,
    step_waypoint,
)

AREA = Area(500.0, 500.0, 10.0)
SPEED = 13.889  # 50 km/h


def test_straight_line_kinematics():
    pos, waypoint = step_waypoint((0.0, 0.0, 0.0), (100.0, 0.0, 0.0), SPEED, 1.0,
                                  random.Random(0), AREA)
    assert pos == pytest.approx((13.889, 0.0, 0.0))
    assert waypoint == (100.0, 0.0, 0.0)


def test_arrival_redirect_conserves_path_length():
    rng = random.Random(7)
    pos, waypoint = step_waypoint((0.0, 0.0, 0.0), (5.0, 0.0, 0.0), SPEED, 1.0, rng, AREA)
    # 5 m to the old waypoint plus the residual 8.889 m toward the new one.
    assert waypoint != (5.0, 0.0, 0.0)
    residual = distance((5.0, 0.0, 0.0), pos)
    assert 5.0 + residual == pytest.approx(SPEED, rel=1e-9)


def test_positions_stay_in_bounds_over_many_steps():
    rng = random.Random(123)
    pos, waypoint = (250.0, 250.0, 5.0), (10.0, 480.0, 2.0)
    for _ in range(10**5):
        pos, waypoint = step_waypoint(pos, waypoint, SPEED, 0.25, rng, AREA)
        x, y, z = pos
        assert 0.0 <= x <= AREA.x
        assert 0.0 <= y <= AREA.y
        assert 0.0 <= z <= AREA.z


def test_total_path_length_equals_speed_times_time():
    rng = random.Random(5)
    pos, waypoint = (250.0, 250.0, 5.0), (400.0, 100.0, 3.0)
    travelled = 0.0
    steps = 4000  # 1000 s at 0.25 s per step
    for _ in range(steps):
        new_pos, new_waypoint = step_waypoint(pos, waypoint, SPEED, 0.25, rng, AREA)
        # Distance along the leg path, accounting for a possible redirect at
        # the old waypoint.
        if new_waypoint == waypoint:
            travelled += distance(pos, new_pos)
        else:
            travelled += distance(pos, waypoint)
            travelled += distance(waypoint, new_pos)
        pos, waypoint = new_pos, new_waypoint
    assert travelled == pytest.approx(SPEED * steps * 0.25, rel=1e-6)


def test_many_redirects_within_one_step_stay_in_bounds():
    # speed large enough to cross the area several times per step
    rng = random.Random(2)
    pos, waypoint = (250.0, 250.0, 5.0), (0.0, 0.0, 0.0)
    for _ in range(50):
        pos, waypoint = step_waypoint(pos, waypoint, 10_000.0, 0.25, rng, AREA)
        x, y, z = pos
        assert 0 <= x <= AREA.x and 0 <= y <= AREA.y and 0 <= z <= AREA.z


def test_step_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        step_waypoint((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), SPEED, 0.0, random.Random(0), AREA)


def test_history_ring_semantics():
    history = MobilityHistory(capacity=8)
    for k in range(9):
        history.record(us_from_s(0.25 * (k + 1)), (float(k), 0.0, 0.0))
    assert len(history) == 8
    # the first sample was evicted
    assert history.samples[0][1] == (1.0, 0.0, 0.0)
    assert history.samples[-1][1] == (8.0, 0.0, 0.0)


def test_history_rejects_duplicate_timestamp():
    history = MobilityHistory()
    history.record(1000, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        history.record(1000, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        history.record(999, (1.0, 0.0, 0.0))


def test_history_single_sample():
    history = MobilityHistory()
    history.record(0, (1.0, 2.0, 3.0))
    assert len(history) == 1


def test_prediction_constant_velocity():
    # 10 m/s along x, sampled every 250 ms, last x = 100.
    history = MobilityHistory(capacity=8)
    for k in range(8):
        t = 0.25 * k
        history.record(us_from_s(t), (100.0 - 10.0 * (1.75 - t), 0.0, 0.0))
    predicted = predict_position(history, fit_samples=5, horizon_steps=15, update_interval_s=0.25)
    assert predicted[0] == pytest.approx(137.5, abs=1e-9)
    assert predicted[1] == pytest.approx(0.0, abs=1e-9)


def test_prediction_stationary_node():
    history = MobilityHistory()
    for k in range(5):
        history.record(us_from_s(0.25 * (k + 1)), (42.0, 17.0, 3.0))
    predicted = predict_position(history, 5, 15, 0.25)
    assert predicted == pytest.approx((42.0, 17.0, 3.0), abs=1e-9)


def _lstsq_oracle(samples, horizon_s):
    """Closed-form normal equations, written independently of the implementation."""
    import numpy as np

    ts = np.array([t for t, _ in samples])
    t_eval = ts[-1] + horizon_s
    out = []
    for axis in range(3):
        xs = np.array([p[axis] for _, p in samples])
        design = np.vstack([ts, np.ones_like(ts)]).T
        slope, intercept = np.linalg.lstsq(design, xs, rcond=None)[0]
        out.append(slope * t_eval + intercept)
    return tuple(out)


def test_prediction_matches_independent_least_squares_on_noisy_track():
    rng = random.Random(99)
    history = MobilityHistory(capacity=8)
    truth = []
    for k in range(8):
        t = 0.25 * k
        pos = (
            3.0 * t + rng.gauss(0, 0.05),
            100.0 - 2.0 * t + rng.gauss(0, 0.05),
            5.0 + rng.gauss(0, 0.01),
        )
        history.record(us_from_s(t), pos)
        truth.append((t, pos))
    predicted = predict_position(history, 5, 15, 0.25)
    expected = _lstsq_oracle(truth[-5:], 15 * 0.25)
    assert predicted == pytest.approx(expected, abs=1e-9)


def test_prediction_requires_two_samples():
    history = MobilityHistory()
    history.record(0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="need >= 2 samples"):
        predict_position(history, 5, 15, 0.25)


def test_prediction_not_clamped_to_area():
    history = MobilityHistory()
    # Heading off the east edge at 20 m/s.
    for k in range(5):
        history.record(us_from_s(0.25 * k), (490.0 + 5.0 * k, 0.0, 0.0))
    predicted = predict_position(history, 5, 15, 0.25)
    assert predicted[0] > 500.0


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=200))
@settings(max_examples=30)
def test_bounds_hold_for_random_walks(seed, steps):
    rng = random.Random(seed)
    pos = (rng.uniform(0, AREA.x), rng.uniform(0, AREA.y), rng.uniform(0, AREA.z))
    waypoint = (rng.uniform(0, AREA.x), rng.uniform(0, AREA.y), rng.uniform(0, AREA.z))
    for _ in range(steps):
        pos, waypoint = step_waypoint(pos, waypoint, SPEED, 0.25, rng, AREA)
        x, y, z = pos
        assert 0 <= x <= AREA.x and 0 <= y <= AREA.y and 0 <= z <= AREA.z
