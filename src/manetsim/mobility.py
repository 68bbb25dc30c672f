"""Waypoint mobility at constant speed plus linear-extrapolation position prediction."""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from typing import NamedTuple

from .engine import left_sum, s_from_us

Position = tuple[float, float, float]


class Area(NamedTuple):
    x: float
    y: float
    z: float


def distance(a: Position, b: Position) -> float:
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def random_position(area: Area, rng: random.Random) -> Position:
    return (rng.uniform(0.0, area.x), rng.uniform(0.0, area.y), rng.uniform(0.0, area.z))


def step_waypoint(
    pos: Position, waypoint: Position, speed_mps: float, dt: float,
    rng: random.Random, area: Area,
) -> tuple[Position, Position]:
    """Advance speed*dt toward the waypoint; on arrival draw a fresh uniform
    waypoint and spend the residual distance toward it. Returns the new
    (position, waypoint).

    Travel distance is conserved exactly across redirects, so total path length
    over a run equals speed * elapsed time.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    budget = speed_mps * dt
    while budget > 0:
        gap = distance(pos, waypoint)
        if gap <= budget:
            pos = waypoint
            budget -= gap
            waypoint = random_position(area, rng)
            if budget == 0:
                break
        else:
            frac = budget / gap
            pos = (
                pos[0] + (waypoint[0] - pos[0]) * frac,
                pos[1] + (waypoint[1] - pos[1]) * frac,
                pos[2] + (waypoint[2] - pos[2]) * frac,
            )
            budget = 0.0
    return pos, waypoint


def predict_position(
    samples: Sequence[tuple[int, Sequence[Position]]],
    horizon_steps: int,
    update_interval_s: float,
) -> list[Position]:
    """Least-squares linear fit per node and coordinate over every (t_us,
    positions) snapshot, evaluated horizon_steps * update_interval_s past the
    last one: one predicted position per node, all fitted on one time column.

    The result is deliberately not clamped to the mission area: a node heading
    for the boundary is predicted to cross it, which is what makes the
    prediction useful as a link-break indicator.
    """
    n = len(samples)
    if n < 2:
        raise ValueError(f"need >= 2 samples, have {n}")
    t_last = s_from_us(samples[-1][0])
    # Center times on the last sample for numerical stability.
    ts = [s_from_us(t) - t_last for t, _ in samples]
    t_mean = left_sum(ts) / n
    var = left_sum([(t - t_mean) ** 2 for t in ts])
    horizon = horizon_steps * update_interval_s
    fits = []  # node by node, x, y and z of each
    for track in zip(*(positions for _, positions in samples)):  # one node's positions
        for xs in zip(*track):  # one coordinate of them
            x_mean = left_sum(xs) / n
            slope = left_sum([(t - t_mean) * (x - x_mean) for t, x in zip(ts, xs)]) / var
            intercept = x_mean - slope * t_mean
            fits.append(intercept + slope * horizon)
    return list(zip(fits[0::3], fits[1::3], fits[2::3]))
