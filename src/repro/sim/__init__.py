"""Discrete-event / analytic simulation kernel used by every substrate."""

from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import MultiTimeline, Timeline
from repro.sim.stats import StatSet, effective_bandwidth

__all__ = [
    "Simulator",
    "SimulationError",
    "Timeline",
    "MultiTimeline",
    "StatSet",
    "effective_bandwidth",
]
