"""The deprecation list: nothing warns, and what 1.8 removed stays gone.

Three things are checked here:

* nothing in ``src/repro`` raises a ``DeprecationWarning``, and the
  ``deprecated(...)`` call sites (none in 1.8) are exactly the rows of
  README's "Deprecated in X.Y, removed in X.Y+1" table (absent in 1.8),
  and README has a "Migrating to X.Y" section for ``repro.__version__``;
* each surface 1.7 deprecated is gone: passing or reading it fails
  with the plain ``TypeError``, ``AttributeError`` or ``ImportError``;
* a run builds no ``Interconnect``.
"""

import ast
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
from repro.sim.simulator import run_simulation
from repro.util.units import GiB
from repro.workload.scenarios import make_scenario

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


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
                raise AssertionError(
                    f"{path.relative_to(ROOT)}:{node.lineno} warns "
                    "DeprecationWarning, and 1.8 has no deprecation helper: "
                    "restore the single helper repro.util.deprecation from "
                    "1.7, exempt it here and add README's 'Deprecated in "
                    "X.Y, removed in X.Y+1' table"
                )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "deprecated":
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
