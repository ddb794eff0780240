"""The deprecation list: what warns, what README promises, what went.

Four things are checked here:

* the surfaces that :func:`repro.util.deprecation.deprecated` is called
  for in ``src/repro`` are exactly the rows of README's "Deprecated in
  X.Y, removed in X.Y+1" table, and README has a "Migrating to X.Y"
  section for ``repro.__version__``;
* each surface 1.9 deprecates warns once per use and names its
  replacement, still takes effect, and stays silent when left at its
  default; repro's own copies of a value the caller set do not warn
  again, and the timeline's replacement reads the same rows;
* each surface 1.7 deprecated is gone: passing or reading it fails
  with the plain ``TypeError``, ``AttributeError`` or ``ImportError``;
* a run builds no ``Interconnect``.
"""

import ast
import dataclasses
import importlib
import re
import warnings
from pathlib import Path
from unittest.mock import patch

import pytest

import repro
from repro.cluster import interconnect
from repro.cluster.cluster import Cluster
from repro.cluster.costs import CostParameters
from repro.cluster.interconnect import LinkSpec
from repro.cluster.storage import StorageModel, StorageSpec
from repro.federation.config import FederationConfig
from repro.federation.federation import build_shards
from repro.obs import anomaly
from repro.obs.anomaly import (
    AnomalyConfig,
    OnlineAnomalyDetector,
    detect_from_snapshots,
)
from repro.obs.audit import AuditConfig
from repro.obs.metrics import default_window_interval
from repro.obs.stream import StreamConfig, TelemetryStream, read_stream
from repro.obs.tracer import Tracer
from repro.sim.config import SystemConfig, system_anl, system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.deprecation import REMOVED_IN
from repro.util.units import GiB, MiB
from repro.workload.scenarios import make_scenario

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
HELPER = PACKAGE / "util" / "deprecation.py"


def _release(version):
    major, minor = (int(part) for part in version.split(".")[:2])
    return major, minor


def warning_sites():
    """``{surface: "file:line"}`` for every ``deprecated(...)`` call."""
    sites = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "DeprecationWarning":
                assert path == HELPER, (
                    f"{path.relative_to(ROOT)}:{node.lineno} warns without "
                    "repro.util.deprecation.deprecated"
                )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "deprecated" or path == HELPER:
                continue
            surface = node.args[0] if node.args else None
            assert isinstance(surface, ast.Constant) and isinstance(surface.value, str), (
                f"{path.relative_to(ROOT)}:{node.lineno}: name the surface "
                "with a string literal"
            )
            sites[surface.value] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return sites


def readme_table(heading):
    """The first backticked span of each row of the table under ``heading``."""
    lines = (ROOT / "README.md").read_text().splitlines()
    if heading not in lines:
        return None
    rows = []
    for line in lines[lines.index(heading) + 1:]:
        if rows and not line.startswith("|"):
            break
        if line.startswith("|"):
            rows.append(line)
    surfaces = set()
    for row in rows[2:]:  # header and separator
        match = re.match(r"\|\s*`([^`]+)`", row)
        assert match, f"README deprecation row without a surface: {row}"
        surfaces.add(match.group(1))
    return surfaces


class TestOneDeprecationList:
    def test_warning_sites_match_readme_table(self):
        major, minor = _release(repro.__version__)
        assert REMOVED_IN == f"{major}.{minor + 1}"
        heading = (
            f"#### Deprecated in {major}.{minor}, removed in {major}.{minor + 1}"
        )
        sites = warning_sites()
        table = readme_table(heading)
        if sites:
            assert table is not None, f"README lacks {heading!r}"
        table = table or set()
        unlisted = {s: where for s, where in sites.items() if s not in table}
        assert not unlisted, f"warnings for surfaces README does not list: {unlisted}"
        assert not table - set(sites), (
            f"README rows with no warning site: {sorted(table - set(sites))}"
        )

    def test_readme_migrates_to_this_release(self):
        major, minor = _release(repro.__version__)
        lines = (ROOT / "README.md").read_text().splitlines()
        assert f"### Migrating to {major}.{minor}" in lines


def _one_warning(record, surface, replacement):
    """The one warning in ``record``: ``surface``, naming ``replacement``."""
    assert len(record) == 1, [str(w.message) for w in record]
    warning = record[0]
    message = str(warning.message)
    assert message.startswith(f"{surface} is deprecated")
    assert f"removed in {REMOVED_IN}" in message
    assert replacement in message.split("; ", 1)[1]
    # Attributed to the line that reached the surface, not the library.
    assert warning.filename == __file__
    return message


@pytest.fixture
def silent():
    """A block in which any ``DeprecationWarning`` fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


def _scenario():
    return make_scenario(2, scale=0.02)


def _spike():
    """Twelve healthy snapshot records, then a p95 latency spike."""
    healthy = {
        "jobs_completed": 10,
        "outstanding": 5,
        "latency_p95": 0.05,
        "cache_hits": 9,
        "cache_misses": 1,
        "hit_rate": 0.9,
        "burn": 1.0,
    }
    rows = [dict(healthy, t=k + 1.0, start=float(k)) for k in range(12)]
    rows.append(dict(healthy, t=13.0, start=12.0, latency_p95=5.0))
    return rows


class TestEachSurfaceWarns:
    """The surfaces 1.9 deprecates, removed in 1.10: each warns when used,
    still takes effect, and is silent at its default."""

    def test_run_config_timeline_interval(self, silent):
        scenario = _scenario()
        with pytest.warns(DeprecationWarning) as record:
            config = RunConfig(timeline_interval=scenario.trace.duration / 8)
        _one_warning(record, "RunConfig.timeline_interval", "result.metrics.snapshots")
        result = run_simulation(scenario, "OURS", config)
        assert len(result.timeline_samples.samples) == 9
        assert run_simulation(scenario, "OURS", RunConfig()).timeline_samples is None

    def test_run_config_counter_interval(self, silent):
        scenario = _scenario()
        with pytest.warns(DeprecationWarning) as record:
            config = RunConfig(
                tracer=Tracer(), counter_interval=scenario.trace.duration / 8
            )
        _one_warning(record, "RunConfig.counter_interval", "horizon/256")

        def queue_samples(config):
            tracer = run_simulation(scenario, "OURS", config).tracer
            return sum(e.phase == "C" and e.name == "queue depth" for e in tracer.events)

        assert queue_samples(config) == 9
        assert queue_samples(RunConfig(tracer=Tracer())) == 257

    def test_run_config_metrics_interval(self, silent):
        scenario = _scenario()
        with pytest.warns(DeprecationWarning) as record:
            config = RunConfig(metrics=True, metrics_interval=scenario.trace.duration / 8)
        _one_warning(record, "RunConfig.metrics_interval", "horizon/64")
        assert len(run_simulation(scenario, "OURS", config).metrics.windows) == 8
        default = run_simulation(scenario, "OURS", RunConfig(metrics=True))
        assert len(default.metrics.windows) == 64

    def test_stream_config_interval(self, silent, tmp_path):
        scenario = _scenario()
        path = tmp_path / "s.ndjson"
        with pytest.warns(DeprecationWarning) as record:
            stream = StreamConfig(path, interval=scenario.trace.duration / 8)
        _one_warning(record, "StreamConfig.interval", "horizon/64")
        result = run_simulation(scenario, "OURS", RunConfig(stream=stream))
        assert result.stream.snapshots == 8
        assert read_stream(path)[0]["interval"] == stream.interval
        result = run_simulation(scenario, "OURS", RunConfig(stream=StreamConfig(path)))
        assert result.stream.snapshots == 64

    def test_stream_config_wall_interval(self, silent, tmp_path):
        def wall_records(config):
            run_simulation(_scenario(), "OURS", RunConfig(stream=config))
            return sum(r["type"] == "wall" for r in read_stream(config.path))

        with pytest.warns(DeprecationWarning) as record:
            config = StreamConfig(tmp_path / "s.ndjson", wall_interval=1e-9)
        _one_warning(record, "StreamConfig.wall_interval", "once per wall second")
        # A checkpoint on every tick, against one per wall second.
        assert wall_records(config) == 65
        assert wall_records(StreamConfig(tmp_path / "d.ndjson")) < 65

    def test_stream_config_anomalies(self, silent, tmp_path):
        with pytest.warns(DeprecationWarning) as record:
            config = StreamConfig(tmp_path / "s.ndjson", anomalies=False)
        _one_warning(record, "StreamConfig.anomalies", "the detectors always run")
        assert TelemetryStream(config).detector is None
        default = TelemetryStream(StreamConfig(tmp_path / "d.ndjson"))
        assert default.detector is not None

    def test_stream_config_anomaly_config(self, silent, tmp_path):
        with pytest.warns(DeprecationWarning, match="AnomalyConfig"):
            thresholds = AnomalyConfig(warmup=2)
        with pytest.warns(DeprecationWarning) as record:
            config = StreamConfig(tmp_path / "s.ndjson", anomaly_config=thresholds)
        _one_warning(record, "StreamConfig.anomaly_config", "default thresholds")
        # The stream's own detector is built from it without a warning.
        assert TelemetryStream(config).detector.warmup == 2

    def test_anomaly_config(self, silent):
        with pytest.warns(DeprecationWarning) as record:
            config = AnomalyConfig()
        _one_warning(record, "AnomalyConfig", "Z_THRESHOLD")
        assert dataclasses.astuple(config) == (
            anomaly.WARMUP,
            anomaly.EWMA_ALPHA,
            anomaly.Z_THRESHOLD,
            anomaly.CUSUM_K,
            anomaly.CUSUM_H,
            anomaly.COOLDOWN,
        )

    def test_online_anomaly_detector_config(self, silent):
        with pytest.warns(DeprecationWarning, match="AnomalyConfig"):
            config = AnomalyConfig(z_threshold=1e9)
        with pytest.warns(DeprecationWarning) as record:
            detector = OnlineAnomalyDetector(config)
        _one_warning(record, "OnlineAnomalyDetector(config=...)", "module constants")
        assert not [a for row in _spike() for a in detector.observe(row)]
        default = OnlineAnomalyDetector()
        assert default.warmup == anomaly.WARMUP
        spike = [a.kind for row in _spike() for a in default.observe(row)]
        assert spike == ["latency-spike"]

    def test_detect_from_snapshots_config(self, silent):
        with pytest.warns(DeprecationWarning, match="AnomalyConfig"):
            config = AnomalyConfig(z_threshold=1e9)
        with pytest.warns(DeprecationWarning) as record:
            alarms = detect_from_snapshots(_spike(), config)
        _one_warning(record, "detect_from_snapshots(config=...)", "module constants")
        assert alarms == []
        assert [a.kind for a in detect_from_snapshots(_spike())] == ["latency-spike"]

    def test_audit_config_candidates(self, silent):
        with pytest.warns(DeprecationWarning) as record:
            config = AuditConfig(candidates=False)
        _one_warning(record, "AuditConfig.candidates", "candidate snapshot")
        lean = run_simulation(_scenario(), "OURS", RunConfig(audit=config))
        assert lean.audit.records and not any(r.candidates for r in lean.audit)
        full = run_simulation(_scenario(), "OURS", RunConfig(audit=AuditConfig()))
        assert all(r.candidates for r in full.audit)

    def test_audit_config_max_candidates(self, silent):
        with pytest.warns(DeprecationWarning) as record:
            config = AuditConfig(max_candidates=2)
        _one_warning(record, "AuditConfig.max_candidates", "at most 8")
        # The cap stops adding cached replicas; the chosen and the
        # min-available node are always kept.
        # Scenario 3 caches chunks on many nodes.
        scenario = make_scenario(3, scale=0.02)
        capped = run_simulation(scenario, "OURS", RunConfig(audit=config))
        assert max(len(r.candidates) for r in capped.audit) == 2
        full = run_simulation(scenario, "OURS", RunConfig(audit=True))
        assert max(len(r.candidates) for r in full.audit) == 8

    @pytest.mark.parametrize("name", ["TimelineSampler", "TimelineSample"])
    def test_timeline_names(self, silent, name):
        module = importlib.import_module("repro.reporting.timeline")
        with pytest.warns(DeprecationWarning) as record:
            cls = getattr(module, name)
        _one_warning(record, name, "result.metrics.snapshots")
        # The package re-export and a ``from`` import warn once too.
        with pytest.warns(DeprecationWarning) as record:
            assert getattr(repro.reporting, name) is cls
        _one_warning(record, name, "result.metrics.snapshots")
        with pytest.warns(DeprecationWarning) as record:
            exec(f"from repro.reporting import {name}", {})
        assert len(record) == 1
        assert name not in repro.reporting.__all__
        assert "sparkline" in repro.reporting.__all__
        with pytest.raises(AttributeError):
            repro.reporting.no_such_name

    def test_timeline_sampler_still_builds_rows(self, silent):
        with pytest.warns(DeprecationWarning):
            from repro.reporting.timeline import TimelineSample, TimelineSampler
        result = run_simulation(_scenario(), "OURS", RunConfig(metrics=True))
        rows = TimelineSampler(result.metrics.snapshots).samples
        assert len(rows) == 65
        assert all(type(row) is TimelineSample for row in rows)

    def test_default_stream_interval(self, silent):
        with pytest.warns(DeprecationWarning) as record:
            from repro.obs.stream import default_stream_interval
        _one_warning(
            record,
            "repro.obs.stream.default_stream_interval",
            "default_window_interval",
        )
        assert default_stream_interval is default_window_interval
        with pytest.warns(DeprecationWarning) as record:
            exec("from repro.obs import default_stream_interval", {})
        assert len(record) == 1
        assert "default_stream_interval" not in repro.obs.__all__

    def test_storage_end_load_without_size(self, silent):
        model = StorageModel(StorageSpec())
        model.begin_load(MiB)
        model.begin_load(MiB)
        with pytest.warns(DeprecationWarning) as record:
            model.end_load()
        _one_warning(record, "StorageModel.end_load()", "end_load(nbytes)")
        assert model.active_loads == 1
        assert model.active_bytes == 2 * MiB  # the gauge under-reports
        model.end_load(MiB)
        assert (model.active_loads, model.active_bytes) == (0, 0)


class TestDefaultsAreSilent:
    def test_default_configs_and_runs_warn_nothing(self, silent, tmp_path):
        RunConfig()
        AuditConfig()
        StreamConfig(tmp_path / "s.ndjson")
        OnlineAnomalyDetector()
        config = RunConfig(
            drain=True,
            tracer=Tracer(),
            metrics=True,
            audit=True,
            stream=StreamConfig(tmp_path / "run.ndjson"),
            record_assignments=True,
        )
        result = run_simulation(_scenario(), "OURS", config)
        assert result.metrics.snapshots and result.stream.snapshots

    def test_repro_copies_do_not_warn_again(self, tmp_path):
        with pytest.warns(DeprecationWarning) as record:
            stream = StreamConfig(
                tmp_path / "s.ndjson", interval=0.1, wall_interval=2.0
            )
            config = RunConfig(stream=stream, counter_interval=0.5, tracer=Tracer())
        assert len(record) == 3
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            shard = stream.for_shard(1)
            _, _, pairs = build_shards(
                _scenario(), FederationConfig(shards=2, run=config)
            )
            run_simulation(_scenario(), "OURS", config)
        assert (shard.interval, shard.wall_interval) == (0.1, 2.0)
        assert [c.counter_interval for _, c in pairs] == [0.5, 0.5]
        assert [c.stream.interval for _, c in pairs] == [0.1, 0.1]


def _timeline_rows(snapshots):
    return [
        (s.time, s.backlog, s.busy, s.completed, s.hits, s.misses, s.deferred)
        for s in snapshots
    ]


class TestTimelineReplacement:
    """``result.metrics.snapshots`` reads the rows the deprecated
    ``RunConfig(timeline_interval=...)`` sampler built on the same grid."""

    @pytest.mark.parametrize("drain", [False, True], ids=["undrained", "drained"])
    def test_snapshots_match_timeline_samples(self, drain):
        scenario = make_scenario(2, scale=0.05)
        interval = default_window_interval(scenario.trace.duration)
        with pytest.warns(DeprecationWarning, match="timeline_interval"):
            sampled = RunConfig(drain=drain, timeline_interval=interval)
        timeline = run_simulation(scenario, "OURS", sampled).timeline_samples
        metrics = run_simulation(
            scenario, "OURS", RunConfig(drain=drain, metrics=True)
        ).metrics
        rows = [dataclasses.astuple(sample) for sample in timeline.samples]
        assert len(rows) > 64 if drain else len(rows) == 65
        assert _timeline_rows(metrics.snapshots) == rows
        assert [s.window for s in metrics.snapshots[1:]] == metrics.windows


class TestEachSurfaceIsGone:
    """The six surfaces 1.7 deprecated, removed in 1.8."""

    def test_system_config_link(self):
        with pytest.raises(TypeError, match="link"):
            system_linux8().with_overrides(link=LinkSpec())
        with pytest.raises(TypeError, match="link"):
            SystemConfig(name="x", node_count=2, memory_quota=GiB, link=LinkSpec())

    def test_presets_carry_no_link(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert not hasattr(system_linux8(), "link")
            assert not hasattr(system_anl(), "link")
            system_linux8().build_cluster()

    def test_cluster_link_spec(self):
        with pytest.raises(TypeError, match="link_spec"):
            Cluster(2, GiB, CostParameters(), link_spec=LinkSpec())

    def test_cluster_interconnect(self):
        cluster = Cluster(2, GiB, CostParameters())
        with pytest.raises(AttributeError, match="interconnect"):
            cluster.interconnect

    def test_replicate(self):
        with pytest.raises(ImportError, match="replicate"):
            exec("from repro.sim import replicate", {})
        with pytest.raises(AttributeError, match="replicate"):
            importlib.import_module("repro.sim.sweep").replicate
        assert "replicate" not in repro.sim.__all__

    @pytest.mark.parametrize("name", ["ReplicationResult", "MetricStats"])
    def test_result_classes(self, name):
        with pytest.raises(AttributeError, match=name):
            getattr(importlib.import_module("repro.sim.sweep"), name)
        with pytest.raises(AttributeError, match=name):
            getattr(repro.sim, name)
        with pytest.raises(ImportError, match=name):
            exec(f"from repro.sim import {name}", {})

    def test_unknown_names_still_raise(self):
        sweep_module = importlib.import_module("repro.sim.sweep")
        # No module ``__getattr__`` hook is left to intercept a read.
        assert "__getattr__" not in vars(repro.sim)
        assert "__getattr__" not in vars(sweep_module)
        with pytest.raises(AttributeError):
            repro.sim.no_such_name
        with pytest.raises(AttributeError):
            sweep_module.no_such_name


class TestTheLinkHasNoEffect:
    def test_a_run_builds_no_interconnect(self):
        with patch.object(
            interconnect.Interconnect, "__init__", side_effect=AssertionError
        ):
            result = run_simulation(make_scenario(2, scale=0.02), "OURS")
        assert result.tasks_executed > 0
