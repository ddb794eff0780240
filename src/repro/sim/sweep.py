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

Seed replication is ``run_many`` over one point per seed:
:func:`replicate`, ``ReplicationResult`` and ``MetricStats`` are
deprecated and removed in 1.8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.registry import make_scheduler
from repro.core.scheduler_base import Scheduler
from repro.reporting.report import sweep_table
from repro.sim.run_config import RunConfig
from repro.sim.simulator import SimulationResult, run_many
from repro.util.deprecation import deprecated
from repro.workload.scenarios import Scenario

ScenarioFactory = Callable[..., Scenario]
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


@dataclass(frozen=True)
class _MetricStats:
    """Mean and sample standard deviation of one metric across seeds."""

    mean: float
    std: float
    values: tuple

    @classmethod
    def of(cls, values: Sequence[float]) -> "_MetricStats":
        n = len(values)
        if n == 0:
            return cls(mean=0.0, std=0.0, values=())
        mean = sum(values) / n
        if n == 1:
            return cls(mean=mean, std=0.0, values=tuple(values))
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        return cls(mean=mean, std=math.sqrt(var), values=tuple(values))

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f} (n={len(self.values)})"


@dataclass
class _ReplicationResult:
    """Seed-replicated metrics for one scheduler."""

    scheduler: str
    seeds: List[int]
    results: List[SimulationResult]

    def stat(self, metric: Callable[[SimulationResult], float]) -> _MetricStats:
        """Aggregate ``metric`` across the replicas."""
        return _MetricStats.of([metric(r) for r in self.results])

    @property
    def fps(self) -> _MetricStats:
        """Delivered interactive framerate across seeds."""
        return self.stat(lambda r: r.interactive_fps)

    @property
    def interactive_latency(self) -> _MetricStats:
        """Mean interactive latency across seeds."""
        return self.stat(lambda r: r.interactive_latency.mean)

    @property
    def hit_rate(self) -> _MetricStats:
        """Executed-task hit rate across seeds."""
        return self.stat(lambda r: r.hit_rate)


def replicate(
    scenario_factory: Callable[[int], Scenario],
    scheduler: SchedulerLike,
    seeds: Sequence[int],
    *,
    workers: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> _ReplicationResult:
    """Deprecated: run ``scenario_factory(seed)`` once per seed; removed in 1.8.

    Quantifies the workload-seed sensitivity that single-trace
    comparisons (the paper's, and this repo's scenario benches) cannot.
    ``workers=N`` runs the seeds on a process pool (results keyed by
    seed order, identical to the serial path).  ``config`` applies one
    :class:`~repro.sim.run_config.RunConfig` to every replica
    (``None`` = all defaults).
    """
    deprecated("repro.sim.sweep.replicate", _REPLICATE)
    if not seeds:
        raise ValueError("replicate needs at least one seed")
    run_config = config if config is not None else RunConfig()
    results = run_many(
        [
            (partial(scenario_factory, seed), scheduler, run_config)
            for seed in seeds
        ],
        workers=1 if workers is None else workers,
    )
    return _ReplicationResult(
        scheduler=results[-1].scheduler_name,
        seeds=list(seeds),
        results=results,
    )


_REPLICATE = (
    "use repro.sim.run_many([(partial(factory, seed), scheduler, config) "
    "for seed in seeds]) and aggregate the results"
)


def __getattr__(name: str):
    # The deprecated classes warn on each read of their name.
    if name == "ReplicationResult":
        deprecated("repro.sim.sweep.ReplicationResult", _REPLICATE)
        return _ReplicationResult
    if name == "MetricStats":
        deprecated("repro.sim.sweep.MetricStats", _REPLICATE)
        return _MetricStats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SweepResult",
    "sweep",
    "replicate",
]
