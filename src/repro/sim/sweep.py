"""Experiment harness: parameter sweeps.

The Fig. 8/9-style studies are parameter sweeps (vary one knob, run the
simulation, tabulate metrics).  This module packages the pattern so
benches, examples, and downstream studies don't re-implement the loop.

A sweep builds its ``(scenario, scheduler, RunConfig)`` points and hands
them to :func:`~repro.sim.simulator.run_many`, the one multi-run path:
an opt-in ``workers=N`` fans the independent runs out over its process
pool.  Results are keyed deterministically by ``(value, scheduler)``,
so the parallel path returns exactly what the serial path would (the
simulator itself is deterministic).  Parallel execution requires the
scenario factory, schedulers, and the
:class:`~repro.sim.run_config.RunConfig` to be picklable (module-level
functions, registry names, and a frontend-bearing ``RunConfig`` are;
lambdas and closures are not).

Seed replication is ``run_many`` over one point per seed, with the
results aggregated by the caller.

``repro.sim`` re-exports :func:`sweep`, and that binding shadows this
module: the package attribute ``repro.sim.sweep`` (so also ``import
repro.sim.sweep as m`` and ``from repro.sim import sweep``) is the
function.  Only ``importlib.import_module("repro.sim.sweep")`` (or
``sys.modules``) reaches the module itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.registry import make_scheduler
from repro.core.scheduler_base import Scheduler
from repro.reporting.report import sweep_table
from repro.sim.run_config import RunConfig
from repro.sim.simulator import SimulationResult, run_many
from repro.workload.scenarios import Scenario

SchedulerLike = Union[str, Scheduler, Callable[[], Scheduler]]


def _scheduler_name(scheduler: SchedulerLike) -> str:
    """The name a run under ``scheduler`` reports, without running it."""
    if isinstance(scheduler, str):
        return make_scheduler(scheduler).name
    if isinstance(scheduler, Scheduler):
        return scheduler.name
    return scheduler().name


@dataclass
class SweepResult:
    """Results of a one-dimensional parameter sweep."""

    parameter: str
    values: List[float]
    schedulers: List[str]
    results: Dict[tuple, SimulationResult] = field(default_factory=dict)

    def result(self, value: float, scheduler: str) -> SimulationResult:
        """The run at one sweep point."""
        return self.results[(value, scheduler)]

    def series(
        self, metric: Callable[[SimulationResult], float]
    ) -> Dict[str, List[float]]:
        """Extract ``metric`` per scheduler across the sweep."""
        return {
            s: [metric(self.results[(v, s)]) for v in self.values]
            for s in self.schedulers
        }

    def table(
        self,
        metric: Callable[[SimulationResult], float],
        *,
        title: str = "",
        fmt: str = "{:>12.2f}",
    ) -> str:
        """Render one metric as a Fig. 8/9-style text table."""
        return sweep_table(
            self.parameter, self.values, self.series(metric), title=title, fmt=fmt
        )


def sweep(
    parameter: str,
    values: Sequence[float],
    scenario_factory: Callable[[float], Scenario],
    schedulers: Sequence[SchedulerLike],
    *,
    workers: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> SweepResult:
    """Run ``scenario_factory(value)`` under each scheduler per value.

    Args:
        parameter: Display name of the swept knob.
        values: Sweep points (passed to the factory).
        scenario_factory: Builds the scenario for one sweep point.
        schedulers: Registry names, instances or zero-arg factories.
        workers: Fan the independent runs out over a process pool of
            this size (``None``/``1`` = serial).  Requires picklable
            factory/schedulers/config; results are identical to the
            serial path.
        config: :class:`~repro.sim.run_config.RunConfig` applied to
            every run of the sweep (``None`` = all defaults).

    Raises:
        ValueError: Before any run, for no values or schedulers, a
            repeated value, two schedulers that report the same name
            (their runs would share a result key), or ``workers < 1``.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    if not schedulers:
        raise ValueError("sweep needs at least one scheduler")
    names = [_scheduler_name(s) for s in schedulers]
    # Runs under one (value, scheduler) key would overwrite each other.
    for what, keys in (("values", list(values)), ("scheduler names", names)):
        if len(set(keys)) < len(keys):
            raise ValueError(f"sweep {what} repeat: {keys}")
    run_config = config if config is not None else RunConfig()
    results = run_many(
        [
            (partial(scenario_factory, value), scheduler, run_config)
            for value in values
            for scheduler in schedulers
        ],
        workers=1 if workers is None else workers,
    )
    return SweepResult(
        parameter=parameter,
        values=list(values),
        schedulers=names,
        results=dict(zip(product(values, names), results)),
    )


__all__ = [
    "SweepResult",
    "sweep",
]
