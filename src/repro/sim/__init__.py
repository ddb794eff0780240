"""Simulation glue: system configs, the head-node service, the runner."""

from repro.sim.config import SystemConfig, system_anl, system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.service import VisualizationService
from repro.sim.simulator import (
    SimulationResult,
    compare_schedulers,
    run_many,
    run_simulation,
)
from repro.sim.sweep import SweepResult, sweep

__all__ = [
    "SystemConfig",
    "system_anl",
    "system_linux8",
    "VisualizationService",
    "RunConfig",
    "SimulationResult",
    "compare_schedulers",
    "run_simulation",
    "run_many",
    "SweepResult",
    "sweep",
]

