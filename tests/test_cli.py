"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scenario == 1
        assert args.schedulers == "OURS"
        assert args.scale == 1.0

    def test_render_defaults(self):
        args = build_parser().parse_args(["render"])
        assert args.dataset == "supernova"
        assert args.algorithm == "2-3-swap"

    def test_scheduler_alias_and_obs_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--scheduler", "OURS", "--trace", "t.json", "--profile"]
        )
        assert args.schedulers == "OURS"
        assert args.trace == "t.json"
        assert args.profile is True

    def test_obs_flags_default_off(self):
        args = build_parser().parse_args(["simulate"])
        assert args.trace is None
        assert args.profile is False

    def test_overload_flags_default_off(self):
        args = build_parser().parse_args(["simulate"])
        assert args.load == 1.0
        assert args.admission is None
        assert args.queue_limit is None
        assert args.degrade is False

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.scenario == 1
        assert args.scheduler == "OURS"
        assert args.plan is None and args.storm is None
        assert args.no_heal is False
        assert args.rca_tolerance == 2.0
        assert args.report is None

    def test_overload_flags_parse(self):
        args = build_parser().parse_args(
            [
                "simulate",
                "--load", "2.5",
                "--admission", "sessions=8,rate=50",
                "--queue-limit", "32:shed-oldest",
                "--degrade",
            ]
        )
        assert args.load == 2.5
        assert args.admission == "sessions=8,rate=50"
        assert args.queue_limit == "32:shed-oldest"
        assert args.degrade is True


class TestCommands:
    def test_schedulers_lists_all(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("OURS", "FCFS", "FCFSL", "FCFSU", "SF", "FS"):
            assert name in out

    def test_scenarios_describe(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "[1]" in out and "[4]" in out
        assert "linux8" in out and "anl" in out

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate",
                "--scenario",
                "1",
                "--scale",
                "0.05",
                "--schedulers",
                "ours,fcfs",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OURS" in out and "FCFS" in out
        assert "completed" in out

    def test_simulate_overloaded_with_frontend(self, capsys):
        code = main(
            [
                "simulate",
                "--scenario", "2",
                "--scale", "0.03",
                "--load", "2.5",
                "--admission", "sessions=8",
                "--queue-limit", "32:shed-oldest",
                "--degrade",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "frontend:" in out
        assert "forwarded" in out

    def test_simulate_bad_admission_spec(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--scenario", "2",
                    "--scale", "0.03",
                    "--admission", "bogus=1",
                ]
            )
            == 2
        )
        assert "unknown --admission key" in capsys.readouterr().err

    def test_simulate_bad_queue_limit(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--scenario", "2",
                    "--scale", "0.03",
                    "--queue-limit", "fast",
                ]
            )
            == 2
        )
        assert "bad --queue-limit" in capsys.readouterr().err

    def test_simulate_load_rejected_on_scenario_1(self, capsys):
        assert main(["simulate", "--scenario", "1", "--load", "2.0"]) == 2
        assert "load" in capsys.readouterr().err

    def test_simulate_per_action(self, capsys):
        code = main(
            [
                "simulate",
                "--scenario",
                "1",
                "--scale",
                "0.05",
                "--per-action",
            ]
        )
        assert code == 0
        assert "action" in capsys.readouterr().out

    def test_render_writes_ppm(self, tmp_path, capsys):
        out = tmp_path / "img.ppm"
        code = main(
            [
                "render",
                "--dataset",
                "plume",
                "--size",
                "16",
                "--image",
                "24",
                "--ranks",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n24 24\n255\n")
        assert "wrote" in capsys.readouterr().out


# One row per usage error: (id, argv, a fragment of the stderr line).
_USAGE_ERRORS = [
    ("simulate-unknown-scheduler",
     ["simulate", "--schedulers", "BOGUS"], "unknown scheduler"),
    ("simulate-repeated-scheduler",
     ["simulate", "--schedulers", "OURS,ours", "--audit", "a.jsonl",
      "--metrics", "m.jsonl"], "named more than once: OURS"),
    ("simulate-missing-scheduler",
     ["simulate", "--schedulers", ","], "at least one scheduler, got 0"),
    ("report-unknown-scheduler",
     ["report", "--schedulers", "BOGUS"], "unknown scheduler"),
    ("report-repeated-scheduler",
     ["report", "--schedulers", "OURS,OURS", "--svg", "t.svg",
      "--stream", "s.ndjson"], "named more than once: OURS"),
    ("report-three-schedulers",
     ["report", "--schedulers", "OURS,FCFS,SF"], "one or two schedulers"),
    ("explain-one-scheduler",
     ["explain", "--schedulers", "OURS"], "exactly two schedulers, got 1"),
    ("explain-repeated-scheduler",
     ["explain", "--schedulers", "FCFS,fcfs"], "named more than once"),
    ("federate-unknown-scheduler",
     ["federate", "--scheduler", "BOGUS"], "unknown scheduler"),
    ("faults-unknown-scheduler",
     ["faults", "--scheduler", "BOGUS"], "unknown scheduler"),
    ("faults-missing-scheduler",
     ["faults", "--scheduler", "", "--report", "rca.json"],
     "one scheduler, got 0"),
    ("simulate-zero-scale",
     ["simulate", "--scale", "0", "--trace", "t.json"], "scale must be > 0"),
    ("federate-zero-scale",
     ["federate", "--scale", "0", "--out", "f.html"], "scale must be > 0"),
    ("simulate-stall-timeout-without-stream",
     ["simulate", "--stall-timeout", "5"], "--stall-timeout requires --stream"),
    ("faults-stall-timeout-without-stream",
     ["faults", "--stall-timeout", "5"], "--stall-timeout requires --stream"),
    ("simulate-negative-stall-timeout",
     ["simulate", "--stream", "p.ndjson", "--stall-timeout", "-1"],
     "--stall-timeout must be > 0"),
    ("report-zero-bins",
     ["report", "--bins", "0", "--out", "r.html"], "--bins must be >= 1"),
    ("faults-plan-and-storm",
     ["faults", "--plan", "crash@1:node=0", "--storm", "7"],
     "either --plan or --storm"),
    ("faults-negative-rca-tolerance",
     ["faults", "--rca-tolerance", "-1", "--report", "rca.json"],
     "--rca-tolerance must be >= 0"),
    ("faults-plan-node-out-of-range",
     ["faults", "--plan", "crash@1:node=99", "--audit", "a.jsonl"],
     "references node 99"),
    ("report-plan-node-out-of-range",
     ["report", "--plan", "crash@1:node=99", "--stream", "s.ndjson"],
     "references node 99"),
    ("render-zero-size",
     ["render", "--size", "0", "--out", "x.ppm"], "(0, 0, 0)"),
    ("render-zero-ranks",
     ["render", "--size", "8", "--image", "8", "--ranks", "0",
      "--out", "x.ppm"], "ranks must be > 0"),
    ("animate-zero-frames",
     ["animate", "--frames", "0", "--size", "8", "--image", "8",
      "--out", "anim"], "frames must be > 0"),
    ("animate-zero-ranks",
     ["animate", "--ranks", "0", "--size", "8", "--image", "8",
      "--out", "anim"], "ranks must be > 0"),
    ("watch-zero-poll",
     ["watch", "x.ndjson", "--poll", "0"], "--poll must be > 0"),
]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,fragment",
        [row[1:] for row in _USAGE_ERRORS],
        ids=[row[0] for row in _USAGE_ERRORS],
    )
    def test_exits_2(self, argv, fragment, tmp_path, monkeypatch, capsys):
        """A bad input exits 2 with one stderr line, before any output
        or file is written."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert fragment in captured.err
        assert list(tmp_path.iterdir()) == []


class TestFaultsCommand:
    def test_storm_smoke(self, capsys):
        code = main(
            ["faults", "--scenario", "1", "--scale", "0.05", "--storm", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault plan (self-healing" in out
        assert "jobs lost" in out
        assert "score vs ground truth" in out

    def test_explicit_plan_no_heal(self, capsys):
        code = main(
            [
                "faults",
                "--scenario", "1",
                "--scale", "0.05",
                "--plan", "crash@1:node=2",
                "--no-heal",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault plan (vanilla" in out

    def test_report_and_audit_written(self, tmp_path, capsys):
        import json

        report = tmp_path / "rca.json"
        audit = tmp_path / "fault-audit.jsonl"
        code = main(
            [
                "faults",
                "--scenario", "1",
                "--scale", "0.05",
                "--plan", "crash@1:node=2,revive=2.2",
                "--audit", str(audit),
                "--report", str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["self_healing"] is True
        assert payload["fault_report"]["jobs_lost"] == 0
        assert audit.exists() and audit.stat().st_size > 0
        capsys.readouterr()

    def test_bad_plan_rejected(self, capsys):
        assert main(["faults", "--plan", "meteor@1:node=0"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_plan_and_storm_exclusive(self, capsys):
        assert (
            main(["faults", "--plan", "crash@1:node=0", "--storm", "7"]) == 2
        )
        assert "--plan" in capsys.readouterr().err


class TestAnimateCommand:
    def test_animate_writes_frames(self, tmp_path, capsys):
        code = main(
            [
                "animate",
                "--dataset", "plume",
                "--frames", "2",
                "--size", "14",
                "--image", "16",
                "--ranks", "2",
                "--out", str(tmp_path / "anim"),
            ]
        )
        assert code == 0
        assert (tmp_path / "anim" / "frame_0000.ppm").exists()
        assert (tmp_path / "anim" / "frame_0001.ppm").exists()

    def test_render_shaded(self, tmp_path):
        out = tmp_path / "s.ppm"
        code = main(
            [
                "render", "--dataset", "supernova", "--size", "14",
                "--image", "16", "--ranks", "2", "--shaded",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {__version__}"

    def test_pyproject_takes_version_from_package(self):
        """The installed metadata must read ``repro.__version__``: a
        version hard-coded in pyproject.toml drifts from the source."""
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        assert not re.search(r"^version\s*=", project, re.M)
        assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
        dynamic = text.split("\n[tool.setuptools.dynamic]\n", 1)[1]
        assert re.match(
            r'version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}', dynamic
        )


class TestReportCommand:
    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.scenario == 2
        assert args.schedulers == "OURS,FCFS"
        assert args.scale == 0.1
        assert args.out == "run.html"
        assert args.bins == 60
        assert args.svg is None and args.plan is None

    def test_report_writes_selfcontained_ab_html(self, tmp_path, capsys):
        out = tmp_path / "run.html"
        code = main(
            [
                "report", "--scenario", "2", "--scale", "0.03",
                "--schedulers", "OURS,FCFS", "--out", str(out),
            ]
        )
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        page = out.read_text(encoding="utf-8")
        assert page.startswith("<!DOCTYPE html>")
        assert page.count("<svg") == 2
        assert "First divergence" in page
        assert "<script" not in page
        assert "http" not in page.replace("http://www.w3.org/2000/svg", "")

    def test_report_single_scheduler_with_svg(self, tmp_path):
        out = tmp_path / "run.html"
        svg_out = tmp_path / "tl.svg"
        code = main(
            [
                "report", "--scenario", "1", "--scale", "0.05",
                "--scheduler", "OURS", "--out", str(out),
                "--svg", str(svg_out),
            ]
        )
        assert code == 0
        assert out.exists() and svg_out.exists()
        assert svg_out.read_text(encoding="utf-8").startswith("<svg")

    def test_report_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.html", "b.html"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "report", "--scenario", "2", "--scale", "0.03",
                        "--out", str(out),
                    ]
                )
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_report_too_many_schedulers(self, capsys):
        assert main(["report", "--schedulers", "OURS,FCFS,SF"]) == 2
        assert "one or two" in capsys.readouterr().err

    def test_report_with_fault_plan(self, tmp_path):
        out = tmp_path / "faulty.html"
        code = main(
            [
                "report", "--scenario", "1", "--scale", "0.1",
                "--scheduler", "OURS", "--drain",
                "--plan", "crash@1:node=1,revive=2",
                "--out", str(out),
            ]
        )
        assert code == 0
        page = out.read_text(encoding="utf-8")
        assert "crash injected" in page


class TestFederate:
    def test_defaults(self):
        args = build_parser().parse_args(["federate"])
        assert args.scenario == 4
        assert args.shards == 2
        assert args.router == "locality"
        assert args.replication == "auto"
        assert args.users is None
        assert args.workers == 1
        assert args.frontend_scope == "shard"
        # Inherited from the shared parents, same spelling as simulate.
        assert args.scheduler == "OURS"
        assert args.load == 1.0 and args.drain is False
        assert args.slo is None and args.metrics is None

    def test_small_run_prints_merged_grid(self, capsys):
        code = main(
            [
                "federate", "--scenario", "2", "--scale", "0.03",
                "--shards", "2", "--router", "locality",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "federation: 2 shard(s), router=locality" in out
        assert "merged [locality/partition]:" in out
        assert "SLO report (merged)" in out

    @pytest.mark.parametrize(
        "flags", [["--admission", "sessions=8"], ["--queue-limit", "64"]]
    )
    def test_global_scope_with_one_overload_flag(self, flags, capsys):
        code = main(
            [
                "federate", "--scenario", "2", "--scale", "0.03",
                "--shards", "2", "--frontend-scope", "global", *flags,
            ]
        )
        assert code == 0
        assert "federation: 2 shard(s)" in capsys.readouterr().out

    def test_bad_shards_rejected(self, capsys):
        assert main(["federate", "--shards", "0"]) == 2
        assert "shards" in capsys.readouterr().err

    def test_html_report_written(self, tmp_path):
        out = tmp_path / "fed.html"
        code = main(
            [
                "federate", "--scenario", "2", "--scale", "0.03",
                "--shards", "2", "--out", str(out),
            ]
        )
        assert code == 0
        page = out.read_text(encoding="utf-8")
        assert page.startswith("<!DOCTYPE html>")
        assert "federation report" in page
        assert "Per-shard summary" in page

    def test_shared_parents_cover_all_sim_verbs(self):
        """The consolidation invariant: every simulation verb accepts
        the same core flags with one definition each."""
        parser = build_parser()
        for verb in ("simulate", "federate", "explain", "report", "faults"):
            args = parser.parse_args([verb, "--scenario", "2", "--scale",
                                      "0.05", "--seed", "7", "--load", "1.5"])
            assert args.scenario == 2
            assert args.scale == 0.05
            assert args.seed == 7
            assert args.load == 1.5


class TestStreamFlag:
    def test_stream_parent_covers_all_sim_verbs(self):
        parser = build_parser()
        for verb in ("simulate", "federate", "explain", "report", "faults"):
            args = parser.parse_args(
                [verb, "--stream", "s.ndjson", "--stall-timeout", "30"]
            )
            assert args.stream == "s.ndjson"
            assert args.stall_timeout == 30.0

    def test_stall_timeout_requires_stream(self, capsys):
        assert main(["simulate", "--stall-timeout", "5"]) == 2
        assert "--stall-timeout requires --stream" in capsys.readouterr().err

    def test_simulate_streams_and_prints_throughput(self, tmp_path, capsys):
        stream = tmp_path / "run.ndjson"
        code = main(
            [
                "simulate",
                "--scenario", "1",
                "--scale", "0.1",
                "--stream", str(stream),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events/s)" in out  # the throughput footer
        assert "stream:" in out and "snapshots" in out
        from repro.obs import read_stream

        records = read_stream(stream)
        assert records[0]["type"] == "run"
        assert records[-1]["type"] == "summary"

    def test_multi_scheduler_stream_names(self, tmp_path):
        stream = tmp_path / "cmp.ndjson"
        code = main(
            [
                "simulate",
                "--scenario", "1",
                "--scale", "0.1",
                "--schedulers", "OURS,FCFS",
                "--stream", str(stream),
            ]
        )
        assert code == 0
        assert (tmp_path / "cmp.OURS.ndjson").exists()
        assert (tmp_path / "cmp.FCFS.ndjson").exists()

    def test_faults_stream_prints_online_score(self, tmp_path, capsys):
        stream = tmp_path / "storm.ndjson"
        code = main(
            [
                "faults",
                "--scenario", "1",
                "--scale", "0.1",
                "--storm", "11",
                "--stream", str(stream),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "online anomaly detection" in out
        assert "events localized online" in out
        assert stream.exists()

    def test_federate_stream_per_shard(self, tmp_path, capsys):
        stream = tmp_path / "fed.ndjson"
        code = main(
            [
                "federate",
                "--scenario", "4",
                "--scale", "0.02",
                "--shards", "2",
                "--stream", str(stream),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fed.shard0.ndjson" in out
        assert (tmp_path / "fed.shard0.ndjson").exists()
        assert (tmp_path / "fed.shard1.ndjson").exists()


class TestWatchCommand:
    def _make_stream(self, tmp_path):
        stream = tmp_path / "run.ndjson"
        assert (
            main(
                [
                    "simulate",
                    "--scenario", "1",
                    "--scale", "0.1",
                    "--stream", str(stream),
                ]
            )
            == 0
        )
        return stream

    def test_watch_once(self, tmp_path, capsys):
        stream = self._make_stream(tmp_path)
        capsys.readouterr()
        assert main(["watch", str(stream), "--once"]) == 0
        out = capsys.readouterr().out
        assert "stream: scenario scenario1" in out
        assert "queue" in out  # status-table header
        assert "run complete:" in out

    def test_watch_follow_exits_on_summary(self, tmp_path, capsys):
        stream = self._make_stream(tmp_path)
        capsys.readouterr()
        assert main(["watch", str(stream), "--poll", "0.01"]) == 0
        assert "run complete:" in capsys.readouterr().out

    def test_watch_once_missing_file(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "nope.ndjson"), "--once"]) == 2
        assert "no stream file" in capsys.readouterr().err

    def test_watch_times_out_without_summary(self, tmp_path, capsys):
        dead = tmp_path / "dead.ndjson"
        dead.write_text('{"type": "run", "schema": 1, "scenario": "s", '
                        '"scheduler": "OURS", "horizon": 6.0, '
                        '"interval": 0.1, "shard": 0}\n')
        code = main(
            ["watch", str(dead), "--poll", "0.02", "--idle-timeout", "0.2"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "went quiet" in captured.err

    def test_watch_rejects_bad_poll(self, capsys):
        assert main(["watch", "x.ndjson", "--poll", "0"]) == 2
        assert "--poll" in capsys.readouterr().err

    def test_watch_shows_faults_and_anomalies(self, tmp_path, capsys):
        stream = tmp_path / "storm.ndjson"
        assert (
            main(
                [
                    "faults",
                    "--scenario", "1",
                    "--scale", "0.1",
                    "--storm", "11",
                    "--stream", str(stream),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["watch", str(stream), "--once"]) == 0
        out = capsys.readouterr().out
        assert "fault planned: crash" in out
        assert "!!" in out  # at least one anomaly line
