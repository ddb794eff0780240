"""The run's parts: every optional feature is one entry of ``_PARTS``.

Observer parts only read the run, so turning any of them on, alone or
all together, leaves the schedule bit-identical.  The tests iterate the
parts tuple itself: a new part must be classified here as an observer
(and is then covered) or as a part that steers the schedule by design.
"""

import dataclasses

import pytest

from repro.core.registry import make_scheduler
from repro.faults.plan import FaultPlan
from repro.frontend.config import FrontendConfig
from repro.obs.stream import StreamConfig
from repro.obs.tracer import Tracer
from repro.sim import simulator
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_2

#: Observer part name -> the ``RunConfig`` fields that turn it on.
OBSERVERS = {
    "_audit": lambda tmp: {"audit": True},
    "_metrics": lambda tmp: {"metrics": True},
    "_tracer": lambda tmp: {"tracer": Tracer()},
    "_assignments": lambda tmp: {"record_assignments": True},
    "_timeline": lambda tmp: {"timeline_interval": 0.05},
    "_stream": lambda tmp: {"stream": StreamConfig(tmp / "run.ndjson")},
}

#: Parts that change the schedule by design (the prewarm follows the
#: scenario); on in every run below.
STEERING = {"_frontend", "_faults", "_prewarm"}

OBSERVED = [p.__name__ for p in simulator._PARTS if p.__name__ in OBSERVERS]


def _observed(observers, tmp_path):
    """The scenario, and its config with ``observers`` turned on."""
    scenario = scenario_2(scale=0.05)
    storm = FaultPlan.storm(
        5,
        node_count=scenario.system.node_count,
        duration=scenario.trace.duration,
    )
    fields = {}
    for name in observers:
        fields.update(OBSERVERS[name](tmp_path))
    options = dict(drain=True, frontend=FrontendConfig.protective(), faults=storm)
    if "timeline_interval" in fields:
        # The deprecated timeline part, removed in 1.10.
        with pytest.warns(DeprecationWarning, match="timeline_interval"):
            return scenario, RunConfig(**options, **fields)
    return scenario, RunConfig(**options, **fields)


def _observed_run(observers, tmp_path):
    scenario, config = _observed(observers, tmp_path)
    return run_simulation(scenario, "OURS", config)


def _schedule(result):
    """What the schedule did, read without the event count."""
    return (
        result.jobs_submitted,
        result.jobs_completed,
        result.tasks_executed,
        result.tasks_hit,
        result.tasks_missed,
        result.simulated_time.hex(),
        result.drained,
        [tuple(r) for r in result.records],
        dataclasses.asdict(result.frontend),
        result.fault_report.to_dict(),
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The schedule with no observer on, and the recorded trace's hash."""
    bare = _observed_run([], tmp_path_factory.mktemp("bare"))
    recorded = _observed_run(["_assignments"], tmp_path_factory.mktemp("recorded"))
    return _schedule(bare), recorded.assignment_trace_hash()


def test_every_part_is_an_observer_or_steers():
    names = [part.__name__ for part in simulator._PARTS]
    assert sorted(names) == sorted(set(OBSERVERS) | STEERING)


def test_all_observers_on_turns_every_part_on(tmp_path):
    scenario, config = _observed(OBSERVED, tmp_path)
    run = simulator._Run(scenario, make_scheduler("OURS"), config)
    # A part that is off returns before its first ``yield``.
    started = [next(part(run), "off") for part in simulator._PARTS]
    assert "off" not in started


@pytest.mark.parametrize(
    "observers",
    [[name] for name in OBSERVED] + [OBSERVED],
    ids=lambda names: "+".join(n.strip("_") for n in names),
)
def test_observers_leave_the_schedule_alone(observers, reference, tmp_path):
    schedule, trace_hash = reference
    result = _observed_run(observers, tmp_path)
    assert _schedule(result) == schedule
    if "_assignments" in observers:
        assert result.assignment_trace_hash() == trace_hash
