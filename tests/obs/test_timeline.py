"""Tests for the unified timeline model (repro.obs.timeline)."""

import math

import pytest

from repro.core.chunks import dataset_suite
from repro.faults import FaultPlan, NodeCrash
from repro.obs import (
    AuditConfig,
    SLObjective,
    SLOMonitor,
    TimelineError,
    Tracer,
    extract_timeline,
)
from repro.obs.timeline import LANE_KINDS
from repro.sim.config import system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.units import GiB
from repro.workload.actions import persistent_actions
from repro.workload.scenarios import Scenario
from repro.workload.trace import WorkloadTrace


def tiny_scenario(duration=2.0, datasets=2, nodes=4, prewarm=True, prefix="ds"):
    system = system_linux8(node_count=nodes)
    suite = dataset_suite(datasets, 2 * GiB, prefix=prefix)
    trace = persistent_actions(
        suite, duration, target_framerate=100.0 / 3.0, seed=0, name="tiny"
    )
    return Scenario(name="tiny", system=system, trace=trace, prewarm=prewarm)


def traced_config(**kwargs):
    return RunConfig(
        tracer=Tracer(), audit=AuditConfig(capacity=None), **kwargs
    )


class TestExtraction:
    def test_model_joins_every_recorder(self):
        result = run_simulation(tiny_scenario(), "OURS", config=traced_config())
        model = result.timeline()
        assert model.scheduler == "OURS"
        assert model.node_count == 4
        assert model.end >= model.horizon > 0
        # Gantt segments exist for every lane kind and stay in bounds.
        kinds = {seg.kind for seg in model.segments}
        assert kinds == set(LANE_KINDS)
        for seg in model.segments:
            assert 0.0 <= seg.start <= seg.end <= model.end
            assert 0 <= seg.node < model.node_count
        # Prewarmed chunks are resident from t=0.
        assert model.residency
        assert min(r.start for r in model.residency) == 0.0
        assert set(model.datasets) == {"ds00", "ds01"}
        # Pressure tracks ride the counter sampler.
        assert model.counters["busy"].times
        assert model.counters["queued jobs"].times
        # Audit-side joins: reasons and critical paths.
        assert sum(model.reason_counts.values()) > 0
        assert model.paths
        assert model.phase_totals and set(model.phase_totals) == {
            "scheduling", "queueing", "io", "render", "composite",
        }

    def test_timeline_method_matches_extract_function(self):
        result = run_simulation(tiny_scenario(), "OURS", config=traced_config())
        assert result.timeline() == extract_timeline(result)

    def test_path_overlay_boundaries_sum_to_latency(self):
        result = run_simulation(tiny_scenario(), "OURS", config=traced_config())
        for path in result.timeline().paths:
            assert path.arrival <= path.assign <= path.start
            assert path.start <= path.io_done <= path.render_done <= path.finish
            assert math.isclose(
                path.finish - path.arrival, path.latency, rel_tol=1e-9
            )

    def test_slo_windows_overlay(self):
        result = run_simulation(
            tiny_scenario(), "OURS", config=traced_config()
        )
        # An absurdly strict latency SLO violates everywhere.
        reports = SLOMonitor([SLObjective.parse("latency=1e-9")]).evaluate(
            result
        )
        model = result.timeline(slo_reports=reports)
        windows = [w for w in model.windows if w.kind == "slo-violation"]
        assert windows
        for win in windows:
            assert 0.0 <= win.start < win.end <= model.end

    def test_heatmap_bins_bounded(self):
        result = run_simulation(tiny_scenario(), "OURS", config=traced_config())
        model = result.timeline()
        heat = model.heatmap(bins=16)
        assert set(heat) <= set(model.datasets)
        for rows in heat.values():
            for row in rows.values():
                assert len(row) == 16
                assert all(0.0 <= v <= 1.0 for v in row)
        with pytest.raises(ValueError):
            model.heatmap(bins=0)


class TestEdgeCases:
    def test_tracing_disabled_raises_clear_error(self):
        result = run_simulation(tiny_scenario(), "OURS")
        with pytest.raises(TimelineError, match="recorded no trace"):
            result.timeline()

    def test_zero_job_run(self):
        system = system_linux8(node_count=2)
        suite = dataset_suite(1, GiB)
        trace = WorkloadTrace(
            requests=[], datasets=suite, duration=1.0, name="empty"
        )
        scenario = Scenario(
            name="empty", system=system, trace=trace, prewarm=False
        )
        result = run_simulation(scenario, "OURS", config=traced_config())
        model = result.timeline()
        assert model.segments == []
        assert model.residency == []
        assert model.paths == []
        assert model.summary["jobs_submitted"] == 0
        # Counters still ticked; the heatmap is just empty.
        assert model.heatmap() == {}

    def test_crash_orphaned_spans_clipped(self):
        crash_at = 1.0
        plan = FaultPlan(events=(NodeCrash(time=crash_at, node=1),))
        result = run_simulation(
            tiny_scenario(duration=3.0),
            "OURS",
            config=traced_config(faults=plan),
        )
        model = result.timeline()
        open_spans = result.tracer.open_spans()
        # The raw trace may keep orphaned spans; the model never lets
        # node 1's work outlive the crash.
        for seg in model.segments:
            if seg.node == 1:
                assert seg.end <= crash_at
                if seg.end == crash_at and seg.truncated:
                    break
        # Residency on the crashed node ends at the wipe: the cache
        # clear now notifies the observer.
        for res in model.residency:
            if res.node == 1:
                assert res.end <= crash_at
        assert model.markers, "crash onset marker expected"
        assert any(m.kind == "onset" for m in model.markers)
        assert open_spans == [] or all(
            e.pid != 2 for e in open_spans
        ), "clipping must not depend on spans staying open"

    def test_non_ascii_dataset_names_flow_through(self):
        scenario = tiny_scenario(prefix="датасет-")
        result = run_simulation(scenario, "OURS", config=traced_config())
        model = result.timeline()
        assert any(name.startswith("датасет-") for name in model.datasets)
        assert any(
            res.dataset.startswith("датасет-") for res in model.residency
        )


class TestFieldRename:
    def test_timeline_samples_field_still_carries_sampler(self):
        with pytest.warns(DeprecationWarning, match="timeline_interval"):
            config = RunConfig(timeline_interval=0.5)
        result = run_simulation(tiny_scenario(), "OURS", config=config)
        assert result.timeline_samples is not None
        assert result.timeline_samples.samples
