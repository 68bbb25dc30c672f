"""Deterministic MANET simulator with passive score-threshold load balancing."""

from .balancer import DropReason, RRState, SchedulableSet, postrouting_hook, schedulable_set
from .channel import Frame, airtime_s, max_range_m
from .config import ConfigError, ScenarioConfig, load_scenario, parse_scenario_text, validate
from .engine import Engine, EventKind, SchedulingError, us_from_s
from .mobility import Area, predict_position, step_waypoint
from .routing import geo_score
from .simulation import Decision, RunResult, Simulation, simulate
from .traffic import StreamSpec, StreamStats

__all__ = [
    "Area", "ConfigError", "Decision", "DropReason", "Engine", "EventKind",
    "Frame", "RRState", "RunResult", "ScenarioConfig", "SchedulableSet",
    "SchedulingError", "Simulation", "StreamSpec", "StreamStats",
    "airtime_s", "geo_score", "load_scenario",
    "max_range_m", "parse_scenario_text", "postrouting_hook",
    "predict_position", "schedulable_set", "simulate", "step_waypoint",
    "us_from_s", "validate",
]
