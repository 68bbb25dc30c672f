import math
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manetsim.engine import s_from_us, us_from_s
from manetsim.mobility import (
    Area,
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


def test_prediction_constant_velocity():
    # 10 m/s along x, sampled every 250 ms, last x = 100; the window keeps 5.
    history = deque(maxlen=5)
    for k in range(8):
        t = 0.25 * k
        history.append((us_from_s(t), ((100.0 - 10.0 * (1.75 - t), 0.0, 0.0),)))
    [predicted] = predict_position(history, horizon_steps=15, update_interval_s=0.25)
    assert predicted[0] == pytest.approx(137.5, abs=1e-9)
    assert predicted[1] == pytest.approx(0.0, abs=1e-9)


def test_prediction_stationary_node():
    history = [(us_from_s(0.25 * (k + 1)), ((42.0, 17.0, 3.0),)) for k in range(5)]
    [predicted] = predict_position(history, 15, 0.25)
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
    history = deque(maxlen=5)
    truth = []
    for k in range(8):
        t = 0.25 * k
        pos = (
            3.0 * t + rng.gauss(0, 0.05),
            100.0 - 2.0 * t + rng.gauss(0, 0.05),
            5.0 + rng.gauss(0, 0.01),
        )
        history.append((us_from_s(t), (pos,)))
        truth.append((t, pos))
    [predicted] = predict_position(history, 15, 0.25)
    expected = _lstsq_oracle(truth[-5:], 15 * 0.25)
    assert predicted == pytest.approx(expected, abs=1e-9)


def test_prediction_requires_two_samples():
    with pytest.raises(ValueError, match="need >= 2 samples"):
        predict_position([(0, ((0.0, 0.0, 0.0),))], 15, 0.25)


def test_prediction_not_clamped_to_area():
    # Heading off the east edge at 20 m/s.
    history = [(us_from_s(0.25 * k), ((490.0 + 5.0 * k, 0.0, 0.0),)) for k in range(5)]
    [predicted] = predict_position(history, 15, 0.25)
    assert predicted[0] > 500.0


def _sliced_reference(samples, fit_samples, horizon_steps, update_interval_s):
    """The prediction as written when each node had its own history, which
    could outgrow its fit: it fits one node's newest min(fit_samples,
    len(samples)) (t_us, position) samples, in the same arithmetic."""
    n = min(fit_samples, len(samples))
    if n < 2:
        raise ValueError(f"need >= 2 samples, have {len(samples)}")
    tail = list(samples)[-n:]
    t_last = s_from_us(tail[-1][0])
    ts = [s_from_us(t) - t_last for t, _ in tail]
    t_mean = sum(ts) / n
    var = sum((t - t_mean) ** 2 for t in ts)
    horizon = horizon_steps * update_interval_s
    predicted = []
    for axis in range(3):
        xs = [p[axis] for _, p in tail]
        x_mean = sum(xs) / n
        slope = sum((t - t_mean) * (x - x_mean) for t, x in zip(ts, xs)) / var
        intercept = x_mean - slope * t_mean
        predicted.append(intercept + slope * horizon)
    return (predicted[0], predicted[1], predicted[2])


COORD = st.floats(min_value=-1e3, max_value=1e3)
# One snapshot per tick, each holding every node's position.
SNAPSHOTS = st.integers(min_value=1, max_value=6).flatmap(lambda nodes: st.lists(
    st.tuples(*[st.tuples(COORD, COORD, COORD)] * nodes), min_size=2, max_size=20))


@given(
    tick_us=st.integers(min_value=1, max_value=1_000_000),
    first_tick=st.integers(min_value=0, max_value=10_000),
    fit_samples=st.integers(min_value=2, max_value=9),
    snapshots=SNAPSHOTS,
    horizon_steps=st.integers(min_value=1, max_value=40),
)
# A window shorter than fit_samples, as at a run's first ticks.
@example(tick_us=250_000, first_tick=0, fit_samples=5, horizon_steps=15,
         snapshots=[((0.0, 0.0, 0.0), (1.0, 2.0, 3.0)), ((0.5, -1.0, 0.0), (1.0, 2.5, 3.0))])
@settings(max_examples=300, deadline=None)
def test_prediction_equals_the_sliced_reference_bit_for_bit(
        tick_us, first_tick, fit_samples, snapshots, horizon_steps):
    # The snapshots are taken once per tick, as the mobility tick records them.
    samples = [((first_tick + k) * tick_us, snap) for k, snap in enumerate(snapshots)]
    dt = s_from_us(tick_us)
    expected = [_sliced_reference([(t, snap[node]) for t, snap in samples],
                                  fit_samples, horizon_steps, dt)
                for node in range(len(snapshots[0]))]
    history = deque(samples, maxlen=fit_samples)
    assert predict_position(history, horizon_steps, dt) == expected


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
