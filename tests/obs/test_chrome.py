"""Chrome trace-event export: JSON schema and per-lane monotonicity."""

import dataclasses
import hashlib
import json
import pickle
from collections import defaultdict

import pytest

from repro.faults.plan import FaultPlan
from repro.obs.chrome import chrome_trace_events, to_chrome_trace, write_chrome_trace
from repro.obs.tracer import Tracer
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_1, scenario_2

VALID_PHASES = {"X", "B", "E", "i", "C", "M", "s", "t", "f"}


def small_tracer() -> Tracer:
    tr = Tracer()
    tr.name_process(0, "head node")
    tr.name_process(1, "render node 0")
    tr.complete(0, "scheduler", "schedule[OURS]", 0.0, 0.0002, category="sched")
    tr.begin(1, "render", "render c0", 0.1, category="render")
    tr.end(1, "render", 0.4)
    tr.complete(1, "io", "load c1", 0.1, 0.25, category="io", args={"bytes": 42})
    tr.instant(1, "cache", "miss", 0.1, category="cache")
    tr.counter(0, "queue depth", 0.0, {"jobs": 3.0})
    tr.counter(0, "queue depth", 0.5, {"jobs": 1.0})
    return tr


class TestSchema:
    def test_every_event_has_required_fields(self):
        rows = chrome_trace_events(small_tracer())
        assert rows, "export produced no events"
        for row in rows:
            assert row["ph"] in VALID_PHASES
            assert isinstance(row["name"], str)
            assert isinstance(row["pid"], int)
            assert isinstance(row["tid"], int)
            if row["ph"] != "M":
                assert isinstance(row["ts"], (int, float))
                assert row["ts"] >= 0
            if row["ph"] == "X":
                assert isinstance(row["dur"], (int, float))
                assert row["dur"] >= 0
            if row["ph"] == "C":
                assert isinstance(row["args"], dict)

    def test_metadata_names_processes_and_threads(self):
        rows = chrome_trace_events(small_tracer())
        meta = [r for r in rows if r["ph"] == "M"]
        process_names = {
            r["pid"]: r["args"]["name"]
            for r in meta
            if r["name"] == "process_name"
        }
        assert process_names == {0: "head node", 1: "render node 0"}
        thread_names = {
            (r["pid"], r["tid"]): r["args"]["name"]
            for r in meta
            if r["name"] == "thread_name"
        }
        assert thread_names[(1, 0)] == "render"
        assert thread_names[(1, 1)] == "io"

    def test_timestamps_are_microseconds(self):
        rows = chrome_trace_events(small_tracer())
        load = next(r for r in rows if r["name"] == "load c1")
        assert load["ts"] == 100000.0
        assert load["dur"] == 250000.0

    def test_per_lane_timestamps_monotonic(self):
        rows = chrome_trace_events(small_tracer())
        last = defaultdict(lambda: -1.0)
        for row in rows:
            if row["ph"] == "M":
                continue
            key = (row["pid"], row["tid"])
            assert row["ts"] >= last[key], f"lane {key} went backwards"
            last[key] = row["ts"]

    def test_json_serializable_roundtrip(self):
        doc = to_chrome_trace(small_tracer(), metadata={"scenario": "s1"})
        blob = json.dumps(doc)
        back = json.loads(blob)
        assert back["displayTimeUnit"] == "ms"
        assert back["otherData"] == {"scenario": "s1"}
        assert len(back["traceEvents"]) == len(doc["traceEvents"])


class TestFlowExport:
    def flow_tracer(self) -> Tracer:
        tr = Tracer()
        tr.flow_start(0, "jobs", "job 3", 0.0, 3)
        tr.flow_step(1, "render", "job 3", 0.5, 3)
        tr.flow_end(0, "jobs", "job 3", 1.0, 3)
        return tr

    def test_flow_rows_carry_chain_id(self):
        rows = [
            r
            for r in chrome_trace_events(self.flow_tracer())
            if r["ph"] in ("s", "t", "f")
        ]
        assert [r["ph"] for r in rows] == ["s", "t", "f"]
        assert all(r["id"] == 3 for r in rows)
        assert all(r["cat"] == "flow" for r in rows)

    def test_flow_end_binds_to_enclosing_slice(self):
        rows = [
            r
            for r in chrome_trace_events(self.flow_tracer())
            if r["ph"] in ("s", "t", "f")
        ]
        assert rows[-1]["bp"] == "e"
        assert "bp" not in rows[0]
        assert "bp" not in rows[1]


class TestMetadataFallback:
    def test_unnamed_track_still_gets_process_name(self):
        tr = Tracer()
        tr.instant(5, "x", "evt", 0.0)  # pid 5 never named
        rows = chrome_trace_events(tr)
        names = {
            r["pid"]: r["args"]["name"]
            for r in rows
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert names[5] == "track 5"

    def test_named_but_eventless_track_is_kept(self):
        tr = Tracer()
        tr.name_process(9, "spare node")
        names = {
            r["pid"]: r["args"]["name"]
            for r in chrome_trace_events(tr)
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert names[9] == "spare node"


class TestAsciiEscaping:
    def test_non_ascii_names_escaped_losslessly(self):
        tr = Tracer()
        tr.name_process(0, "héad")
        tr.instant(0, "lané", "rendér c0", 0.0)
        rows = chrome_trace_events(tr)
        instant = next(r for r in rows if r["ph"] == "i")
        assert instant["name"] == "rend\\xe9r c0"
        process = next(
            r for r in rows if r["ph"] == "M" and r["name"] == "process_name"
        )
        assert process["args"]["name"] == "h\\xe9ad"
        thread = next(
            r for r in rows if r["ph"] == "M" and r["name"] == "thread_name"
        )
        assert thread["args"]["name"] == "lan\\xe9"
        for row in rows:
            assert row["name"].isascii()

    def test_ascii_names_pass_through_unchanged(self):
        tr = Tracer()
        tr.instant(0, "jobs", "plain name", 0.0)
        rows = chrome_trace_events(tr)
        assert any(r["name"] == "plain name" for r in rows)


class TestWrite:
    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(tmp_path / "out.json", small_tracer())
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        phases = {r["ph"] for r in doc["traceEvents"]}
        assert {"X", "B", "E", "i", "C", "M"} <= phases


# ---------------------------------------------------------------------------
# The Chrome-trace contract of whole simulated runs
# ---------------------------------------------------------------------------


def _trace_digest(tracer) -> str:
    """sha256 of a tracer's Chrome rows; ``sched`` span ``dur`` is masked.

    A scheduler span's duration is the measured wall-clock cost of the
    invocation, so it is the one field that differs from run to run.
    """
    rows = chrome_trace_events(tracer)
    for row in rows:
        if row.get("cat") == "sched":
            del row["dur"]
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _flows_run():
    """Scenario 2 OURS with the audit on, so flow events are recorded."""
    config = RunConfig(tracer=Tracer(), audit=True)
    return run_simulation(scenario_2(scale=0.05), "OURS", config=config)


def _slots_and_faults_run():
    """Two pipelines per node (lanes ``"io 0"``, ``"render 1"``, ...), the
    VRAM model, and a healed fault storm: misses, cache inserts and
    evicts, GPU uploads and fault instants all reach the trace."""
    scenario = scenario_1(scale=0.05)
    scenario = dataclasses.replace(
        scenario,
        system=scenario.system.with_overrides(gpus_per_node=2, model_vram=True),
    )
    faults = FaultPlan.storm(
        3, node_count=scenario.system.node_count, duration=scenario.trace.duration
    )
    config = RunConfig(tracer=Tracer(), faults=faults)
    return run_simulation(scenario, "OURS", config=config)


#: Digests recorded before the tracer stored its events as rows; any
#: change to what a run traces, or to how it exports, moves them.
TRACE_DIGESTS = {
    "s2-ours-flows": (
        15439,
        "00ecb207e41aa01431a9be0edb5ec6b687033af0ed4dee6eea874e98fbd5de59",
    ),
    "s1-ours-slots-faults": (
        4023,
        "cfa714fbe4542a483aa32c2ad7a69ca2c2c056d4d0bae75bf6e27ab3ced5eb9b",
    ),
}

RUNS = {"s2-ours-flows": _flows_run, "s1-ours-slots-faults": _slots_and_faults_run}


def _event_fields(tracer):
    return [
        (e.phase, e.name, e.category, e.ts, e.dur, e.pid, e.tid, e.args, e.flow_id)
        for e in tracer.events
    ]


class TestRecordedRuns:
    @pytest.mark.parametrize("case", sorted(RUNS))
    def test_chrome_rows_match_recorded_digest(self, case):
        tracer = RUNS[case]().tracer
        assert (len(tracer), _trace_digest(tracer)) == TRACE_DIGESTS[case]

    def test_slots_and_faults_run_reaches_every_lane_kind(self):
        tracer = _slots_and_faults_run().tracer
        lanes = {tracer.lane_name(e.pid, e.tid) for e in tracer.events}
        assert {"io 0", "io 1", "render 0", "render 1", "gpu", "faults"} <= lanes
        kinds = {e.name.split()[0] for e in tracer.events if e.category == "cache"}
        assert kinds == {"hit", "miss", "insert", "evict"}

    def test_pickled_result_keeps_its_trace(self):
        result = _flows_run()
        back = pickle.loads(pickle.dumps(result))
        assert _event_fields(back.tracer) == _event_fields(result.tracer)
        assert _trace_digest(back.tracer) == _trace_digest(result.tracer)
