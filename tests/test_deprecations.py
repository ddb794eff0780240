"""The deprecation list: what warns, what README promises, what 1.7 dropped.

Three things are checked here:

* the surfaces that :func:`repro.util.deprecation.deprecated` is called
  for in ``src/repro`` are exactly the rows of README's "Deprecated in
  X.Y, removed in X.Y+1" table, and README has a "Migrating to X.Y"
  section for ``repro.__version__``;
* each deprecated surface warns once per use, names its replacement,
  says which release removes it, and points at the caller's line;
* the link a ``SystemConfig`` carries has no effect on a run.
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
from repro.sim.config import SystemConfig, system_anl, system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.util.deprecation import REMOVED_IN
from repro.util.units import GiB
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


def _one_warning(record, surface):
    assert len(record) == 1, [str(w.message) for w in record]
    warning = record[0]
    message = str(warning.message)
    assert message.startswith(f"{surface} is deprecated")
    assert f"removed in {REMOVED_IN}" in message
    assert "; " in message  # the replacement follows
    # Attributed to the line that reached the surface, not the library.
    assert warning.filename == __file__
    return message


class TestEachSurfaceWarns:
    def test_system_config_link(self):
        with pytest.warns(DeprecationWarning) as record:
            system = system_linux8().with_overrides(link=LinkSpec())
        assert "CostParameters" in _one_warning(record, "SystemConfig.link")
        with pytest.warns(DeprecationWarning) as record:
            SystemConfig(name="x", node_count=2, memory_quota=GiB, link=LinkSpec())
        _one_warning(record, "SystemConfig.link")
        assert system.link == LinkSpec()

    def test_presets_carry_no_link(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert system_linux8().link is None and system_anl().link is None
            system_linux8().build_cluster()

    def test_cluster_link_spec(self):
        with pytest.warns(DeprecationWarning) as record:
            Cluster(2, GiB, CostParameters(), link_spec=LinkSpec())
        _one_warning(record, "Cluster(link_spec=...)")

    def test_cluster_interconnect(self):
        spec = LinkSpec(latency=1e-3)
        with pytest.warns(DeprecationWarning):
            cluster = Cluster(2, GiB, CostParameters(), link_spec=spec)
        with pytest.warns(DeprecationWarning) as record:
            net = cluster.interconnect
        _one_warning(record, "Cluster.interconnect")
        assert net.spec == spec and net.messages == 0
        with pytest.warns(DeprecationWarning):
            assert cluster.interconnect is net

    def test_replicate(self):
        from repro.sim.sweep import replicate

        with pytest.warns(DeprecationWarning) as record:
            result = replicate(
                lambda seed: make_scenario(2, scale=0.01, seed=seed), "OURS", [0]
            )
        assert "run_many" in _one_warning(record, "repro.sim.sweep.replicate")
        assert len(result.results) == 1

    @pytest.mark.parametrize("name", ["ReplicationResult", "MetricStats"])
    def test_result_classes(self, name):
        sweep_module = importlib.import_module("repro.sim.sweep")
        surface = f"repro.sim.sweep.{name}"
        with pytest.warns(DeprecationWarning) as record:
            cls = getattr(sweep_module, name)
        _one_warning(record, surface)
        # The ``repro.sim`` re-export and a ``from`` import warn once too.
        with pytest.warns(DeprecationWarning) as record:
            assert getattr(repro.sim, name) is cls
        _one_warning(record, surface)
        with pytest.warns(DeprecationWarning) as record:
            exec(f"from repro.sim import {name}", {})
        assert len(record) == 1

    def test_unknown_names_still_raise(self):
        with pytest.raises(AttributeError):
            repro.sim.no_such_name
        with pytest.raises(AttributeError):
            importlib.import_module("repro.sim.sweep").no_such_name


class TestTheLinkHasNoEffect:
    def test_a_run_builds_no_interconnect(self):
        with patch.object(
            interconnect.Interconnect, "__init__", side_effect=AssertionError
        ):
            result = run_simulation(make_scenario(2, scale=0.02), "OURS")
        assert result.tasks_executed > 0

    def test_scenario_2_ours_ignores_the_link(self):
        """An extreme link (1 s latency, 1 byte/s) moves nothing."""
        scenario = make_scenario(2, scale=0.05)
        with pytest.warns(DeprecationWarning, match="SystemConfig.link"):
            linked = dataclasses.replace(
                scenario,
                system=scenario.system.with_overrides(
                    link=LinkSpec(latency=1.0, bandwidth=1.0)
                ),
            )
        config = RunConfig(drain=True, record_assignments=True)
        preset = run_simulation(scenario, "OURS", config=config)
        with_link = run_simulation(linked, "OURS", config=config)
        assert with_link.assignment_trace_hash() == preset.assignment_trace_hash()
        assert with_link.tasks_executed == preset.tasks_executed > 0
