"""Discrete-event / analytic simulation kernel used by every substrate."""

from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import MultiTimeline, Timeline
from repro.sim.stats import StatSet

__all__ = [
    "Simulator",
    "SimulationError",
    "Timeline",
    "MultiTimeline",
    "StatSet",
]
