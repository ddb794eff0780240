"""Simulation glue: system configs, the head-node service, the runner."""

import sys

from repro.sim.config import SystemConfig, system_anl, system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.service import VisualizationService
from repro.sim.simulator import (
    SimulationResult,
    compare_schedulers,
    run_many,
    run_simulation,
)
from repro.sim.sweep import SweepResult, replicate, sweep

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
    "replicate",
    "sweep",
]


def __getattr__(name: str):
    # ``ReplicationResult`` and ``MetricStats`` are deprecated: reading
    # either goes through ``repro.sim.sweep``, which warns.  ``from
    # repro.sim import X`` probes a package with ``hasattr`` before it
    # reads ``X``; only the read warns.
    if name in ("ReplicationResult", "MetricStats"):
        sweep_module = sys.modules["repro.sim.sweep"]  # ``sweep`` is the function
        if sys._getframe(1).f_globals.get("__name__") == "importlib._bootstrap":
            return getattr(sweep_module, "_" + name)
        return getattr(sweep_module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
