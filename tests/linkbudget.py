"""The link budget stated as a loss and a threshold: the reference that
``channel.max_range_m``, its closed-form inverse, is checked against."""

import math

from manetsim.channel import SPEED_OF_LIGHT
from manetsim.config import ScenarioConfig


def path_loss_db(distance_m: float, params: ScenarioConfig) -> float:
    """Single-slope log-distance loss: 10 * n * log10(4*pi*d*f/c).

    Distances at or below zero are clamped to 0.1 m (co-located radios).
    """
    if distance_m <= 0:
        distance_m = 0.1
    return (
        10.0
        * params.path_loss_exponent
        * math.log10(4.0 * math.pi * distance_m * params.frequency_hz / SPEED_OF_LIGHT)
    )


def receivable(distance_m: float, params: ScenarioConfig) -> bool:
    return params.tx_power_dbm - path_loss_db(distance_m, params) >= params.sensitivity_dbm
