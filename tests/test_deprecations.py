"""The deprecation list: what warns, what README promises, what went.

Four things are checked here:

* nothing in ``src/repro`` is deprecated: no module names
  ``DeprecationWarning`` or calls a ``deprecated`` helper, README carries
  no "Deprecated in X.Y" table, and README has a "Migrating to X.Y"
  section for ``repro.__version__``;
* each surface 1.7 or 1.9 deprecated is gone: passing or reading it
  fails with the plain ``TypeError``, ``AttributeError`` or
  ``ImportError``;
* the settable fields of the run, stream and audit configs are the
  fifteen that 1.10 keeps;
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
from repro.obs.anomaly import OnlineAnomalyDetector, detect_from_snapshots
from repro.obs.audit import MAX_CANDIDATES, AuditConfig
from repro.obs.stream import StreamConfig
from repro.obs.tracer import Tracer
from repro.sim.config import SystemConfig, system_anl, system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.units import GiB, MiB
from repro.workload.scenarios import make_scenario

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _release(version):
    major, minor = (int(part) for part in version.split(".")[:2])
    return major, minor


def warning_sites():
    """``"file:line"`` of every ``DeprecationWarning`` name and every
    call to a function named ``deprecated`` in ``src/repro``."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "DeprecationWarning":
                sites.append(f"{path.relative_to(ROOT)}:{node.lineno}")
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "deprecated":
                    sites.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sites


class TestOneDeprecationList:
    def test_warning_sites_match_readme_table(self):
        """1.10 deprecates nothing: no warning site, no README table.

        A release that deprecates a surface again brings back one
        helper that every warning goes through, README's "Deprecated
        in X.Y, removed in X.Y+1" table, and a check that the two agree.
        """
        assert warning_sites() == []
        readme = (ROOT / "README.md").read_text()
        assert not re.search(r"^#+ Deprecated in ", readme, re.MULTILINE)

    def test_readme_migrates_to_this_release(self):
        major, minor = _release(repro.__version__)
        lines = (ROOT / "README.md").read_text().splitlines()
        assert f"### Migrating to {major}.{minor}" in lines


def _scenario():
    return make_scenario(2, scale=0.02)


class TestDefaultsAreSilent:
    def test_default_configs_and_runs_warn_nothing(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
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


class TestRemainingFields:
    def test_config_fields_are_the_fifteen_kept(self):
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        run = names(RunConfig)
        stream = names(StreamConfig)
        audit = names(AuditConfig)
        assert run == [
            "drain",
            "max_drain_time",
            "storage_seed",
            "tracer",
            "metrics",
            "frontend",
            "record_assignments",
            "audit",
            "faults",
            "stream",
            "job_namespace",
        ]
        assert stream == ["path", "stall_timeout"]
        assert audit == ["capacity", "jsonl_path"]
        assert len(run + stream + audit) == 15

    def test_positional_fields_moved_up(self, tmp_path):
        assert StreamConfig(tmp_path / "s.ndjson", 2.0).stall_timeout == 2.0
        tracer = Tracer()
        config = RunConfig(False, None, 0, tracer, True)
        assert (config.tracer, config.metrics) == (tracer, True)


class TestEachSurfaceIsGone:
    """The six surfaces 1.7 deprecated, removed in 1.8, and the sixteen
    1.9 deprecated, removed in 1.10."""

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
        for name in (
            "repro.sim",
            "repro.sim.sweep",
            "repro.reporting",
            "repro.reporting.timeline",
            "repro.obs",
            "repro.obs.stream",
        ):
            module = importlib.import_module(name)
            # No module ``__getattr__`` hook is left to intercept a read.
            assert "__getattr__" not in vars(module), name
            with pytest.raises(AttributeError):
                module.no_such_name

    # -- 1.9's surfaces --------------------------------------------------

    def _run_config_field(self, field):
        with pytest.raises(TypeError, match=field):
            RunConfig(**{field: 1.0})
        with pytest.raises(TypeError, match=field):
            RunConfig().replace(**{field: 1.0})

    def test_run_config_timeline_interval(self):
        self._run_config_field("timeline_interval")
        result = run_simulation(_scenario(), "OURS")
        with pytest.raises(AttributeError, match="timeline_samples"):
            result.timeline_samples

    def test_run_config_counter_interval(self):
        self._run_config_field("counter_interval")

    def test_run_config_metrics_interval(self):
        self._run_config_field("metrics_interval")

    def _stream_config_field(self, tmp_path, field, value):
        with pytest.raises(TypeError, match=field):
            StreamConfig(tmp_path / "s.ndjson", **{field: value})

    def test_stream_config_interval(self, tmp_path):
        self._stream_config_field(tmp_path, "interval", 1.0)

    def test_stream_config_wall_interval(self, tmp_path):
        self._stream_config_field(tmp_path, "wall_interval", 2.0)

    def test_stream_config_anomalies(self, tmp_path):
        self._stream_config_field(tmp_path, "anomalies", False)

    def test_stream_config_anomaly_config(self, tmp_path):
        self._stream_config_field(tmp_path, "anomaly_config", None)

    def test_anomaly_config(self):
        with pytest.raises(ImportError, match="AnomalyConfig"):
            exec("from repro.obs.anomaly import AnomalyConfig", {})
        for module in (repro, repro.obs):
            with pytest.raises(AttributeError, match="AnomalyConfig"):
                module.AnomalyConfig
            assert "AnomalyConfig" not in module.__all__

    def test_online_anomaly_detector_config(self):
        with pytest.raises(TypeError):
            OnlineAnomalyDetector(object())
        with pytest.raises(TypeError, match="config"):
            OnlineAnomalyDetector(config=None)

    def test_detect_from_snapshots_config(self):
        with pytest.raises(TypeError):
            detect_from_snapshots([], object())
        with pytest.raises(TypeError, match="config"):
            detect_from_snapshots([], config=None)

    def test_audit_config_candidates(self):
        with pytest.raises(TypeError, match="candidates"):
            AuditConfig(candidates=False)
        result = run_simulation(_scenario(), "OURS", RunConfig(audit=True))
        assert result.audit.records and all(r.candidates for r in result.audit)

    def test_audit_config_max_candidates(self):
        with pytest.raises(TypeError, match="max_candidates"):
            AuditConfig(max_candidates=2)
        # Scenario 3 caches chunks on many nodes: snapshots hit the cap.
        result = run_simulation(
            make_scenario(3, scale=0.02), "OURS", RunConfig(audit=True)
        )
        assert max(len(r.candidates) for r in result.audit) == MAX_CANDIDATES == 8

    @pytest.mark.parametrize("name", ["TimelineSampler", "TimelineSample"])
    def test_timeline_names(self, name):
        module = importlib.import_module("repro.reporting.timeline")
        for owner in (module, repro.reporting):
            with pytest.raises(AttributeError, match=name):
                getattr(owner, name)
        with pytest.raises(ImportError, match=name):
            exec(f"from repro.reporting import {name}", {})
        assert "sparkline" in repro.reporting.__all__

    def test_default_stream_interval(self):
        stream = importlib.import_module("repro.obs.stream")
        with pytest.raises(AttributeError, match="default_stream_interval"):
            stream.default_stream_interval
        for owner in ("repro.obs.stream", "repro.obs"):
            with pytest.raises(ImportError, match="default_stream_interval"):
                exec(f"from {owner} import default_stream_interval", {})

    def test_storage_end_load_without_size(self):
        model = StorageModel(StorageSpec())
        model.begin_load(MiB)
        with pytest.raises(TypeError, match="nbytes"):
            model.end_load()
        model.end_load(MiB)
        assert (model.active_loads, model.active_bytes) == (0, 0)

    def test_deprecation_helper_is_gone(self):
        with pytest.raises(ImportError, match="deprecation"):
            importlib.import_module("repro.util.deprecation")


class TestTheLinkHasNoEffect:
    def test_a_run_builds_no_interconnect(self):
        with patch.object(
            interconnect.Interconnect, "__init__", side_effect=AssertionError
        ):
            result = run_simulation(make_scenario(2, scale=0.02), "OURS")
        assert result.tasks_executed > 0
