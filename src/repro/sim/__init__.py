"""Discrete-event simulation substrate (scheduler + deterministic RNG)."""

from repro.sim.engine import Scheduler, SimulationError
from repro.sim.rng import RngFactory, stable_hash

__all__ = ["Scheduler", "SimulationError", "RngFactory", "stable_hash"]
