"""Waypoint mobility at constant speed plus linear-extrapolation position prediction."""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from itertools import chain, repeat
from operator import add, mul, sub
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
    dts = [t - t_mean for t in ts]
    var = left_sum([dt ** 2 for dt in dts])
    horizon = horizon_steps * update_interval_s
    # One flat row per snapshot, every node's x, y and z side by side. Each
    # column is fitted with left_sum's operations in its order, from int 0.
    rows = [list(chain.from_iterable(positions)) for _, positions in samples]
    sums = [0] * len(rows[0])
    for row in rows:
        sums = list(map(add, sums, row))
    means = [total / n for total in sums]
    covs = [0] * len(means)
    for dt, row in zip(dts, rows):
        covs = list(map(add, covs, map(mul, repeat(dt), map(sub, row, means))))
    slopes = [cov / var for cov in covs]
    # The intercept, mean - slope * t_mean, plus the slope times the horizon.
    fits = [mean - slope * t_mean + slope * horizon for mean, slope in zip(means, slopes)]
    return list(zip(fits[0::3], fits[1::3], fits[2::3]))
