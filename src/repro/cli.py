"""Command-line interface: ``repro <subcommand>``.

Subcommands:

* ``simulate`` — run a Table II scenario under one or more schedulers
  and print the Fig. 4-7 style comparison row(s).
* ``federate`` — shard one scenario across N independent simulators
  behind a user router (consistent-hash or locality-aware), then print
  the merged per-shard grid, fleet totals, and merged SLO tables.
* ``explain`` — diff two schedulers' decision streams on one scenario:
  first divergent placement, reason-code mix, and the per-phase
  critical-path latency attribution table.
* ``faults`` — run a scenario under an injected fault plan (crashes,
  stragglers, cache wipes, storage degradation), print the detection /
  recovery report, and localize the faults from the audit evidence
  (root-cause analysis scored against the ground-truth plan).
* ``watch`` — tail a live telemetry stream file (written by
  ``--stream``, possibly by a still-running simulation) as a terminal
  status table with progress, anomalies, and stall diagnostics.
* ``render`` — sort-last render a synthetic dataset to a PPM image with
  the real ray caster.
* ``animate`` — render an orbit animation of a dataset (PPM frames).
* ``schedulers`` — list the registered scheduling policies.
* ``scenarios`` — print the Table II scenario descriptions.

Examples::

    repro simulate --scenario 1 --schedulers OURS,FCFS --scale 0.5
    repro simulate --scenario 2 --load 2.5 \
        --admission sessions=8 --queue-limit 64:shed-oldest --degrade
    repro simulate --scenario 1 --stream run.ndjson --stall-timeout 30
    repro watch run.ndjson
    repro federate --scenario 4 --shards 8 --router locality
    repro explain --scenario 2 --schedulers OURS,FCFS --scale 0.1
    repro faults --scenario 1 --scale 0.5 --plan "crash@10:node=3,revive=20"
    repro faults --scenario 1 --scale 0.5 --storm 11 --report rca.json
    repro render --dataset supernova --ranks 6 --out supernova.ppm

Contract: exit 0 on success, 1 when ``watch`` gives up on a stream
that went quiet without its summary record, and 2 on a usage error (a
bad flag value or combination).  A verb reports a usage error by
raising ``ValueError``; :func:`main` alone turns it into one stderr
line and exit 2, with nothing on stdout when the check precedes the
run.  When one invocation makes several runs, every per-run file
(``--stream``, ``--audit``, ``--trace``, ``--metrics``, ``--svg``)
gets the run name inserted before its extension: ``--audit a.jsonl``
with ``--schedulers OURS,FCFS`` writes ``a.OURS.jsonl`` and
``a.FCFS.jsonl``, and federate's shard metrics are ``m.shard0.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence

from repro import __version__
from repro.core.registry import SCHEDULER_NAMES, make_scheduler
from repro.faults import FaultPlan, analyze, score
from repro.federation import FederationConfig, run_federation
from repro.frontend import (
    AdmissionConfig,
    BackpressureConfig,
    DegradeConfig,
    FrontendConfig,
)
from repro.obs import (
    AuditConfig,
    SLObjective,
    SLOMonitor,
    StreamConfig,
    Tracer,
    first_divergence,
    follow_stream,
    iter_jsonl,
    phase_delta_table,
    render_federation_html,
    render_report_html,
    render_timeline_svg,
    score_anomalies,
    slo_table,
    write_chrome_trace,
    write_report,
)
from repro.reporting.report import comparison_table
from repro.render import (
    DATASET_NAMES,
    cool_warm,
    default_camera_for,
    fire,
    grayscale_ramp,
    make_volume,
    render_sort_last,
    write_ppm,
)
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import SCENARIO_FACTORIES, make_scenario

_TFS = {"fire": fire, "cool_warm": cool_warm, "gray": grayscale_ramp}


# ---------------------------------------------------------------------------
# Shared flag groups (argparse parent parsers)
#
# Every simulation-driving verb (simulate / federate / explain / report /
# faults) takes the same core flags; each factory below builds one
# ``add_help=False`` parent so the verbs declare them once and stay in
# lockstep.  Factories take the per-verb defaults as parameters — parents
# are instantiated per verb, never shared, so defaults cannot leak.
# ---------------------------------------------------------------------------


def _scenario_parent(
    *, scenario: int = 1, scale: float = 1.0
) -> argparse.ArgumentParser:
    """--scenario/--scale/--seed/--load: which workload, at what size."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scenario",
        type=int,
        choices=sorted(SCENARIO_FACTORIES),
        default=scenario,
    )
    parent.add_argument("--scale", type=float, default=scale)
    parent.add_argument("--seed", type=int, default=None)
    parent.add_argument(
        "--load",
        type=float,
        default=1.0,
        help=(
            "arrival-rate multiplier for the mixed scenarios (2-4): "
            "2.5 submits 2.5x the Table II demand (overload studies)"
        ),
    )
    return parent


def _schedulers_parent(
    *, default: str, help_text: str
) -> argparse.ArgumentParser:
    """--schedulers/--scheduler (comma list) for the comparison verbs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--schedulers",
        "--scheduler",
        dest="schedulers",
        default=default,
        help=help_text,
    )
    return parent


def _scheduler_parent(*, default: str = "OURS") -> argparse.ArgumentParser:
    """--scheduler (exactly one registry name)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--scheduler", default=default, help="one registry name"
    )
    return parent


def _drain_parent() -> argparse.ArgumentParser:
    """--drain: run past the horizon until every job completes."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--drain",
        action="store_true",
        help="simulate past the horizon until every job completes",
    )
    return parent


def _slo_parent(
    *, help_text: str, window: bool = True
) -> argparse.ArgumentParser:
    """--slo (repeatable SPEC) and optionally --slo-window."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--slo",
        metavar="SPEC",
        action="append",
        default=None,
        help=help_text,
    )
    if window:
        parent.add_argument(
            "--slo-window",
            type=float,
            default=1.0,
            help=(
                "SLO sliding-window length in simulated seconds "
                "(default 1.0)"
            ),
        )
    return parent


def _plan_parent(*, help_text: str) -> argparse.ArgumentParser:
    """--plan: a fault-plan SPEC."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--plan", metavar="SPEC", default=None, help=help_text
    )
    return parent


def _overload_parent() -> argparse.ArgumentParser:
    """--admission/--queue-limit/--degrade: the frontend overload knobs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--admission",
        metavar="SPEC",
        default=None,
        help=(
            "enable admission control; SPEC is key=value pairs joined "
            "by ',' from: sessions=N (global concurrent-session cap), "
            "rate=R (per-user token-bucket requests/s), burst=B "
            "(bucket capacity, default 2*rate).  Example: "
            "--admission sessions=8,rate=50"
        ),
    )
    parent.add_argument(
        "--queue-limit",
        metavar="N[:POLICY]",
        default=None,
        help=(
            "bound the head-node job queue at N outstanding jobs; "
            "POLICY is block (default), shed-oldest, shed-newest, or "
            "degrade.  Example: --queue-limit 64:shed-oldest"
        ),
    )
    parent.add_argument(
        "--degrade",
        action="store_true",
        help=(
            "enable SLO-driven graceful degradation (quality ladder: "
            "frame-rate thinning, then reduced resolution)"
        ),
    )
    return parent


def _metrics_parent() -> argparse.ArgumentParser:
    """--metrics PATH: registry on, JSONL + Prometheus exposition out."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "enable the metrics registry and write structured JSONL "
            "(one event per window sample / SLO violation) to PATH, "
            "plus a Prometheus text exposition next to it (.prom); "
            "with several runs, the run name is inserted before the "
            "file extension"
        ),
    )
    return parent


def _audit_parent(*, help_text: str) -> argparse.ArgumentParser:
    """--audit PATH: stream the decision audit log as JSONL."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--audit", metavar="PATH", default=None, help=help_text
    )
    return parent


def _stream_parent() -> argparse.ArgumentParser:
    """--stream PATH / --stall-timeout: the live telemetry bus."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--stream",
        metavar="PATH",
        default=None,
        help=(
            "stream live telemetry (schema-versioned NDJSON snapshots "
            "on the sampler grid, wall-clock progress/ETA checkpoints, "
            "online anomaly records) to PATH during the run; tail it "
            "with 'repro watch PATH'.  With several runs, the run name "
            "is inserted before the file extension"
        ),
    )
    parent.add_argument(
        "--stall-timeout",
        metavar="SECONDS",
        type=float,
        default=None,
        help=(
            "wall-clock seconds without a single event draining before "
            "the stream's watchdog thread dumps a stall diagnostic "
            "record (requires --stream; default: watchdog off)"
        ),
    )
    return parent


def _run_path(path: str, run_name: Optional[str], default_suffix: str) -> Path:
    """The per-run file for ``path``: the run name goes before the
    extension (``default_suffix`` when ``path`` has none); a single run
    (``run_name=None``) writes ``path`` itself."""
    out = Path(path)
    if run_name is None:
        return out
    return out.with_name(f"{out.stem}.{run_name}{out.suffix or default_suffix}")


def _stream_config(args: argparse.Namespace, *, run_name: Optional[str] = None):
    """The StreamConfig requested by ``--stream``, or ``None`` when off."""
    if not args.stream:
        return None
    return StreamConfig(
        path=_run_path(args.stream, run_name, ".ndjson"),
        stall_timeout=args.stall_timeout,
    )


def _scheduler_names(spec: str, counts: range, usage: str) -> List[str]:
    """Parse a comma list of registry names (or ``all``), case-insensitively.

    Rejects unknown and repeated names, and a count outside ``counts``
    (reported as ``"{usage}, got N"``).
    """
    if spec.strip().lower() == "all":
        names = list(SCHEDULER_NAMES)
    else:
        names = [n.strip().upper() for n in spec.split(",") if n.strip()]
    unknown = [n for n in names if n not in SCHEDULER_NAMES]
    if unknown:
        raise ValueError(
            f"unknown scheduler(s): {', '.join(unknown)}; "
            f"valid: {', '.join(SCHEDULER_NAMES)}"
        )
    repeated = sorted({n for n in names if names.count(n) > 1}, key=names.index)
    if repeated:
        raise ValueError(
            f"scheduler(s) named more than once: {', '.join(repeated)}"
        )
    if len(names) not in counts:
        raise ValueError(f"{usage}, got {len(names)}")
    return names


def _scenario(args: argparse.Namespace, **extra):
    """The scenario named by ``--scenario/--scale/--seed/--load``."""
    return make_scenario(
        args.scenario, scale=args.scale, seed=args.seed, load=args.load, **extra
    )


def _objectives(args: argparse.Namespace, default: Optional[str]) -> list:
    """The ``--slo`` objectives (else ``default``, if any) at ``--slo-window``."""
    specs = args.slo or ([default] if default else [])
    # report has no --slo-window; its overlays use the parse default.
    window = getattr(args, "slo_window", 1.0)
    return [SLObjective.parse(spec, window=window) for spec in specs]


_SLO_SPEC_HELP = (
    "evaluate a service-level objective and print the violation "
    "report; SPEC is fps=TARGET, latency=SECONDS, or "
    "latency:p99=SECONDS (repeatable)"
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Job Scheduling Design for Visualization "
            "Services using GPU Clusters' (CLUSTER 2012)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run a scenario under schedulers",
        parents=[
            _scenario_parent(scenario=1, scale=1.0),
            _schedulers_parent(
                default="OURS",
                help_text="comma-separated registry names (or 'all')",
            ),
            _drain_parent(),
            _overload_parent(),
            _metrics_parent(),
            _slo_parent(help_text=_SLO_SPEC_HELP),
            _audit_parent(
                help_text=(
                    "enable the decision audit log and stream every "
                    "placement decision (reason code + candidate "
                    "snapshot) to PATH as JSONL; with several "
                    "schedulers, the scheduler name is inserted before "
                    "the file extension"
                )
            ),
            _stream_parent(),
        ],
    )
    sim.add_argument(
        "--per-action",
        action="store_true",
        help="also print per-action delivered framerates",
    )
    sim.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record a Chrome trace-event JSON of the run (open in "
            "Perfetto / chrome://tracing); with several schedulers, the "
            "scheduler name is inserted before the file extension"
        ),
    )
    sim.add_argument(
        "--profile",
        action="store_true",
        help="print the per-node io/render/composite/idle breakdown",
    )

    fed = sub.add_parser(
        "federate",
        help="shard a scenario across N simulators behind a user router",
        parents=[
            _scenario_parent(scenario=4, scale=1.0),
            _scheduler_parent(),
            _drain_parent(),
            _overload_parent(),
            _metrics_parent(),
            _slo_parent(help_text=_SLO_SPEC_HELP),
            _stream_parent(),
        ],
    )
    fed.add_argument(
        "--shards",
        type=int,
        default=2,
        help="independent head-node shards to run (default 2)",
    )
    fed.add_argument(
        "--router",
        choices=["hash", "locality"],
        default="locality",
        help=(
            "user->shard placement: 'hash' (consistent-hash ring) or "
            "'locality' (dataset-residency-aware; default)"
        ),
    )
    fed.add_argument(
        "--replication",
        choices=["auto", "mirror", "partition"],
        default="auto",
        help=(
            "dataset homing across shards: 'mirror' (every shard "
            "warms everything), 'partition' (demand-balanced split), "
            "or 'auto' (partition for the locality router, mirror for "
            "hash; default)"
        ),
    )
    fed.add_argument(
        "--users",
        type=int,
        default=None,
        help=(
            "user-population multiplier applied to the scenario "
            "(default: the shard count, so each shard sees about one "
            "Table II load after routing)"
        ),
    )
    fed.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "process-pool width for running shards concurrently "
            "(default 1 = serial; results are bit-identical either way)"
        ),
    )
    fed.add_argument(
        "--frontend-scope",
        choices=["shard", "global"],
        default="shard",
        help=(
            "how the overload caps apply: per shard as written, or with "
            "the session and queue caps as fleet totals divided across "
            "shards (the per-user rate is never divided; default shard)"
        ),
    )
    fed.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the self-contained federation HTML report",
    )

    sub.add_parser(
        "explain",
        help="diff two schedulers' decisions and phase attribution",
        parents=[
            _scenario_parent(scenario=2, scale=0.1),
            _schedulers_parent(
                default="OURS,FCFS",
                help_text=(
                    "exactly two comma-separated registry names "
                    "(default OURS,FCFS)"
                ),
            ),
            _drain_parent(),
            _stream_parent(),
        ],
    )

    rep = sub.add_parser(
        "report",
        help="render a self-contained HTML run report (Gantt + heatmaps)",
        parents=[
            _scenario_parent(scenario=2, scale=0.1),
            _schedulers_parent(
                default="OURS,FCFS",
                help_text=(
                    "one registry name for a single-run report, or two "
                    "comma-separated names for the side-by-side A/B "
                    "comparison with first divergence marked "
                    "(default OURS,FCFS)"
                ),
            ),
            _drain_parent(),
            _slo_parent(
                window=False,
                help_text=(
                    "SLO whose violation windows are overlaid "
                    "(fps=TARGET, latency=SECONDS, latency:p99=SECONDS; "
                    "repeatable); default: fps at the scenario's target "
                    "framerate"
                ),
            ),
            _plan_parent(
                help_text=(
                    "optional fault plan to inject (same syntax as "
                    "'repro faults --plan'); onset/detection/recovery "
                    "markers are drawn on the timeline"
                )
            ),
            _stream_parent(),
        ],
    )
    rep.add_argument(
        "--out",
        metavar="PATH",
        default="run.html",
        help="output HTML file (default run.html)",
    )
    rep.add_argument(
        "--svg",
        metavar="PATH",
        default=None,
        help=(
            "also write each run's standalone timeline SVG; with two "
            "schedulers the name is inserted before the extension"
        ),
    )
    rep.add_argument(
        "--bins",
        type=int,
        default=60,
        help="time bins of the cache-residency heatmap (default 60)",
    )

    flt = sub.add_parser(
        "faults",
        help="inject faults, report self-healing + root-cause analysis",
        parents=[
            _scenario_parent(scenario=1, scale=0.5),
            _scheduler_parent(),
            _plan_parent(
                help_text=(
                    "fault plan: semicolon-separated "
                    "kind@time[:key=value,...] events; kinds crash "
                    "(node=, revive=), straggler (node=, render=, io=, "
                    "until=), wipe (node=, dataset=), storage "
                    "(latency=, bw=, until=).  Example: "
                    "'crash@10:node=3,revive=20;"
                    "storage@6:latency=5,until=12'"
                )
            ),
            _slo_parent(
                help_text=(
                    "SLO to evaluate (fps=TARGET, latency=SECONDS, or "
                    "latency:p99=SECONDS; repeatable); default: fps at "
                    "the scenario's target framerate"
                )
            ),
            _audit_parent(
                help_text="also stream the decision audit log (JSONL) to PATH"
            ),
            _stream_parent(),
        ],
    )
    flt.add_argument(
        "--storm",
        metavar="SEED",
        type=int,
        default=None,
        help=(
            "seeded reproducible fault storm (one crash+revival, one "
            "straggler, one cache wipe, one storage window) instead of "
            "--plan; default when neither flag is given: --storm 11"
        ),
    )
    flt.add_argument(
        "--no-heal",
        action="store_true",
        help=(
            "vanilla injection: no detection, no recovery (crashes use "
            "the legacy instantly-aware §VI-D path)"
        ),
    )
    flt.add_argument(
        "--rca-tolerance",
        type=float,
        default=2.0,
        help=(
            "onset-time tolerance in simulated seconds when grading "
            "RCA verdicts against the injected plan (default 2.0)"
        ),
    )
    flt.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help=(
            "write the full machine-readable report (plan, detections, "
            "recovery actions, SLO compliance, RCA verdicts + score) "
            "as JSON to PATH"
        ),
    )

    wat = sub.add_parser(
        "watch",
        help="tail a live telemetry stream as a terminal status table",
    )
    wat.add_argument(
        "path",
        metavar="STREAM",
        help="NDJSON stream file written by --stream (may still be growing)",
    )
    wat.add_argument(
        "--once",
        action="store_true",
        help="print the records present now and exit instead of tailing",
    )
    wat.add_argument(
        "--poll",
        type=float,
        default=0.25,
        help="seconds between file polls while tailing (default 0.25)",
    )
    wat.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        help=(
            "give up after this many wall seconds without a new record; "
            "the tail always exits as soon as the closing summary "
            "record appears (default 30)"
        ),
    )

    ren = sub.add_parser("render", help="sort-last render a dataset to PPM")
    ren.add_argument("--dataset", choices=DATASET_NAMES, default="supernova")
    ren.add_argument("--size", type=int, default=48)
    ren.add_argument("--image", type=int, default=160)
    ren.add_argument("--ranks", type=int, default=4)
    ren.add_argument(
        "--algorithm",
        choices=["serial-gather", "direct-send", "binary-swap", "2-3-swap"],
        default="2-3-swap",
    )
    ren.add_argument("--tf", choices=sorted(_TFS), default="cool_warm")
    ren.add_argument("--step", type=float, default=0.6)
    ren.add_argument("--shaded", action="store_true", help="Blinn-Phong shading")
    ren.add_argument("--out", default=None, help="output PPM path")

    ani = sub.add_parser("animate", help="render an orbit animation to PPMs")
    ani.add_argument("--dataset", choices=DATASET_NAMES, default="supernova")
    ani.add_argument("--frames", type=int, default=8)
    ani.add_argument("--size", type=int, default=32)
    ani.add_argument("--image", type=int, default=96)
    ani.add_argument("--ranks", type=int, default=4)
    ani.add_argument("--out", default="animation", help="output directory")

    sub.add_parser("schedulers", help="list scheduling policies")
    sub.add_parser("scenarios", help="describe the Table II scenarios")
    return parser


def _parse_frontend(args: argparse.Namespace):
    """Build the FrontendConfig requested by the overload flags.

    Returns ``None`` when none of ``--admission`` / ``--queue-limit`` /
    ``--degrade`` were given (the run is then bit-identical to a
    frontend-free simulation); raises ``ValueError`` on a bad spec.
    """
    if not (args.admission or args.queue_limit or args.degrade):
        return None
    admission = None
    if args.admission:
        fields = {}
        for part in args.admission.split(","):
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(
                    f"bad --admission part {part!r}; expected key=value"
                )
            fields[key.strip()] = float(value)
        unknown = set(fields) - {"sessions", "rate", "burst"}
        if unknown:
            raise ValueError(
                f"unknown --admission key(s): {', '.join(sorted(unknown))}"
            )
        admission = AdmissionConfig(
            rate=fields.get("rate"),
            burst=fields.get("burst"),
            max_sessions=(
                int(fields["sessions"]) if "sessions" in fields else None
            ),
        )
    backpressure = None
    if args.queue_limit:
        limit_text, _, policy = args.queue_limit.partition(":")
        try:
            limit = int(limit_text)
        except ValueError:
            raise ValueError(
                f"bad --queue-limit {args.queue_limit!r}; expected N[:POLICY]"
            ) from None
        backpressure = BackpressureConfig(
            queue_limit=limit, policy=policy or "block"
        )
    degrade = DegradeConfig() if args.degrade else None
    return FrontendConfig(
        admission=admission, backpressure=backpressure, degrade=degrade
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run a scenario under the requested schedulers; print comparison."""
    names = _scheduler_names(
        args.schedulers,
        range(1, len(SCHEDULER_NAMES) + 1),
        "simulate needs at least one scheduler",
    )
    objectives = _objectives(args, None)
    frontend = _parse_frontend(args)
    scenario = _scenario(args)
    print(scenario.summary())
    results = []
    trace_paths = []
    metrics_paths = []
    audit_paths = []
    slo_reports = {name: [] for name in names}
    for name in names:
        run_name = name if len(names) > 1 else None
        tracer = None
        if args.trace:
            tracer = Tracer()
        audit_cfg = False
        if args.audit:
            audit_path = _run_path(args.audit, run_name, ".jsonl")
            audit_cfg = AuditConfig(jsonl_path=audit_path)
            audit_paths.append(audit_path)
        results.append(
            run_simulation(
                scenario,
                name,
                config=RunConfig(
                    drain=args.drain,
                    tracer=tracer,
                    metrics=bool(args.metrics),
                    frontend=frontend,
                    audit=audit_cfg,
                    stream=_stream_config(args, run_name=run_name),
                ),
            )
        )
        if objectives:
            slo_reports[name] = SLOMonitor(objectives).evaluate(results[-1])
        if args.metrics:
            path = _run_path(args.metrics, run_name, ".jsonl")
            run_metrics = results[-1].metrics
            run_metrics.write_jsonl(path, slo_reports=slo_reports[name])
            run_metrics.write_prometheus(path.with_suffix(".prom"))
            metrics_paths.append(path)
        if tracer is not None:
            path = _run_path(args.trace, run_name, ".json")
            write_chrome_trace(
                path,
                tracer,
                metadata={
                    "scenario": scenario.name,
                    "scheduler": name,
                    "scale": args.scale,
                },
            )
            trace_paths.append(path)
    print(
        comparison_table(
            [r.summary() for r in results],
            target_fps=scenario.target_framerate,
        )
    )
    for result in results:
        print(
            f"{result.scheduler_name}: completed "
            f"{result.jobs_completed}/{result.jobs_submitted} jobs, "
            f"utilization {result.mean_node_utilization:.1%}"
        )
        print(
            f"    {result.events_processed:,} events in "
            f"{result.wall_seconds:.2f}s wall "
            f"({result.events_per_sec:,.0f} events/s)"
        )
        if result.frontend is not None:
            print(f"    {result.frontend.summary()}")
        if result.audit is not None:
            print(f"    audit: {result.audit.summary()}")
        if result.stream is not None:
            s = result.stream
            print(
                f"    stream: {s.snapshots} snapshots, "
                f"{len(s.anomalies)} anomalies, {s.stalls} stalls "
                f"-> {s.path}"
            )
        if args.per_action:
            for action, fps in sorted(result.delivered_framerates().items()):
                print(f"    action {action:>6}: {fps:7.2f} fps")
        if args.profile:
            print(result.profile_table(title=f"\n[{result.scheduler_name}] per-node time breakdown"))
    if objectives:
        for index, objective in enumerate(objectives):
            rows = [slo_reports[name][index] for name in names]
            print()
            print(slo_table(rows, title="SLO report"))
    for path in metrics_paths:
        print(f"metrics written to {path} (+ {path.with_suffix('.prom').name})")
    for path in trace_paths:
        print(f"trace written to {path}")
    for path in audit_paths:
        print(f"audit log written to {path}")
    return 0


def cmd_federate(args: argparse.Namespace) -> int:
    """Shard one scenario across N simulators; print the merged report."""
    (name,) = _scheduler_names(
        args.scheduler, range(1, 2), "federate takes one scheduler"
    )
    users = args.users if args.users is not None else args.shards
    config = FederationConfig(
        shards=args.shards,
        router=args.router,
        replication=args.replication,
        run=RunConfig(
            drain=args.drain,
            metrics=bool(args.metrics),
            frontend=_parse_frontend(args),
            stream=_stream_config(args),
        ),
        workers=args.workers,
        frontend_scope=args.frontend_scope,
    )
    scenario = _scenario(args, users=users)
    objectives = _objectives(args, f"fps={scenario.target_framerate:g}")
    print(scenario.summary())
    print(
        f"federation: {config.shards} shard(s), router={config.router}, "
        f"replication={config.resolved_replication}, users x{users}, "
        f"workers={config.workers}"
    )
    print()
    result = run_federation(scenario, name, config)
    print(result.shard_table())
    merged_frontend = result.frontend
    if merged_frontend is not None:
        print(f"    {merged_frontend.summary()}")
    print()
    print(slo_table(result.evaluate_slos(objectives), title="SLO report (merged)"))
    if args.stream:
        for stream_report in result.stream_reports():
            print(
                f"stream written to {stream_report.path} "
                f"({stream_report.snapshots} snapshots, "
                f"{len(stream_report.anomalies)} anomalies, "
                f"{stream_report.stalls} stalls)"
            )
        merged_anomalies = result.merged_anomalies()
        if merged_anomalies:
            kinds = Counter(a.kind for a in merged_anomalies)
            mix = ", ".join(
                f"{kind}={count}" for kind, count in sorted(kinds.items())
            )
            print(
                f"merged anomalies across shards: "
                f"{len(merged_anomalies)} ({mix})"
            )
    if args.metrics:
        for index, shard_result in enumerate(result.shard_results):
            path = _run_path(args.metrics, f"shard{index}", ".jsonl")
            run_metrics = shard_result.metrics
            run_metrics.write_jsonl(path)
            run_metrics.write_prometheus(path.with_suffix(".prom"))
            print(
                f"metrics written to {path} "
                f"(+ {path.with_suffix('.prom').name})"
            )
    if args.out:
        page = render_federation_html(result, version=__version__)
        write_report(args.out, page)
        print(f"wrote {args.out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Diff two schedulers' decisions + phase attribution on one scenario."""
    names = _scheduler_names(
        args.schedulers, range(2, 3), "explain needs exactly two schedulers"
    )
    scenario = _scenario(args)
    print(scenario.summary())
    # The divergence diff needs the full decision stream, not a ring
    # window — run with unbounded capacity.
    results = [
        run_simulation(
            scenario,
            name,
            config=RunConfig(
                drain=args.drain,
                audit=AuditConfig(capacity=None),
                stream=_stream_config(args, run_name=name),
            ),
        )
        for name in names
    ]
    for result in results:
        audit = result.audit
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(audit.reason_counts().items())
        )
        print(
            f"{result.scheduler_name}: {audit.total_recorded} decisions "
            f"({reasons}); mean latency "
            f"{result.critical_paths.mean_latency * 1e3:.2f} ms"
        )
    a, b = results
    divergence = first_divergence(list(a.audit), list(b.audit))
    print()
    if divergence is None:
        print("no divergent decision: both runs placed every task identically")
    else:
        rec_a, rec_b = divergence.a, divergence.b
        print(
            f"first divergent decision (#{divergence.index} in "
            f"{a.scheduler_name}'s stream):"
        )
        print(
            f"  task user={rec_a.user} action={rec_a.action} "
            f"seq={rec_a.sequence} chunk={rec_a.dataset}[{rec_a.chunk_index}]"
        )
        print(
            f"  {a.scheduler_name}: node {rec_a.node} ({rec_a.reason}) "
            f"at t={rec_a.time:.6f}s"
        )
        print(
            f"  {b.scheduler_name}: node {rec_b.node} ({rec_b.reason}) "
            f"at t={rec_b.time:.6f}s"
        )
    print()
    print("critical-path latency attribution:")
    print(
        phase_delta_table(
            a.critical_paths,
            b.critical_paths,
            a.scheduler_name,
            b.scheduler_name,
        )
    )
    shares_a = a.critical_paths.phase_shares()
    shares_b = b.critical_paths.phase_shares()
    if (
        shares_a["io"] < shares_b["io"]
        and shares_a["render"] > shares_b["render"]
    ):
        print(
            f"\n{a.scheduler_name} spends a smaller share of its critical "
            f"paths on I/O and a larger share rendering than "
            f"{b.scheduler_name} — locality converts I/O time into render "
            f"time (the paper's Table III effect)."
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render the self-contained HTML run report (optionally A/B)."""
    names = _scheduler_names(
        args.schedulers, range(1, 3), "report takes one or two schedulers"
    )
    if args.bins < 1:
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    scenario = _scenario(args)
    plan = None
    if args.plan is not None:
        plan = FaultPlan.parse(args.plan, heal=True)
        plan.check_nodes(scenario.system.node_count)
    objectives = _objectives(args, f"fps={scenario.target_framerate:g}")
    models = []
    results = []
    for name in names:
        config = RunConfig(
            drain=args.drain,
            tracer=Tracer(),
            audit=AuditConfig(capacity=None),
            faults=plan,
            stream=_stream_config(
                args, run_name=name if len(names) > 1 else None
            ),
        )
        result = run_simulation(scenario, name, config=config)
        slo_reports = SLOMonitor(objectives).evaluate(result)
        results.append(result)
        models.append(result.timeline(slo_reports=slo_reports))
    divergence = None
    if len(results) == 2:
        divergence = first_divergence(
            list(results[0].audit), list(results[1].audit)
        )
    page = render_report_html(
        models,
        divergence=divergence,
        version=__version__,
        bins=args.bins,
    )
    write_report(args.out, page)
    print(f"wrote {args.out}")
    for result in results:
        if result.stream is not None:
            print(f"stream written to {result.stream.path}")
    if args.svg is not None:
        div_time = divergence.a.time if divergence is not None else None
        for model in models:
            path = _run_path(
                args.svg, model.scheduler if len(models) > 1 else None, ".svg"
            )
            write_report(
                str(path),
                render_timeline_svg(
                    model, bins=args.bins, divergence_time=div_time
                ),
            )
            print(f"wrote {path}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Inject a fault plan, print detection/recovery/RCA reports."""
    (name,) = _scheduler_names(
        args.scheduler, range(1, 2), "faults takes one scheduler"
    )
    if args.plan is not None and args.storm is not None:
        raise ValueError("pass either --plan or --storm, not both")
    if args.rca_tolerance < 0:
        raise ValueError(
            f"--rca-tolerance must be >= 0, got {args.rca_tolerance:g}"
        )
    scenario = _scenario(args)
    heal = not args.no_heal
    if args.plan is not None:
        plan = FaultPlan.parse(args.plan, heal=heal)
        plan.check_nodes(scenario.system.node_count)
    else:
        plan = FaultPlan.storm(
            args.storm if args.storm is not None else 11,
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
            heal=heal,
        )
    objectives = _objectives(args, f"fps={scenario.target_framerate:g}")
    print(scenario.summary())
    print(plan.describe())
    print()
    # RCA wants the complete decision stream, not a ring window.
    audit_cfg = AuditConfig(
        capacity=None,
        jsonl_path=Path(args.audit) if args.audit else None,
    )
    config = RunConfig(
        drain=True,
        audit=audit_cfg,
        faults=plan,
        stream=_stream_config(args),
    )
    result = run_simulation(scenario, name, config=config)
    report = result.fault_report
    print(f"{name}: {report.summary()}")
    print(
        f"    completed {result.jobs_completed}/{result.jobs_submitted} "
        f"jobs, hit rate {result.hit_rate:.1%}, "
        f"fps {result.interactive_fps:.2f}"
    )
    for detection in report.detections:
        latency = (
            f" ({detection.latency * 1e3:.0f} ms after injection)"
            if detection.latency is not None
            else ""
        )
        print(
            f"    detected {detection.kind} on node {detection.node} "
            f"at t={detection.time:.3f}s{latency}"
        )
    for action in report.actions:
        count = f" ({action.count} tasks)" if action.count else ""
        print(
            f"    recovery {action.kind} on node {action.node} "
            f"at t={action.time:.3f}s{count}"
        )
    slo_reports = SLOMonitor(objectives).evaluate(result)
    print()
    print(slo_table(slo_reports, title="SLO report"))
    windows = [w for rep in slo_reports for w in rep.violations]
    rca_report = analyze(
        result.audit,
        result.critical_paths.paths,
        windows,
        node_count=scenario.system.node_count,
    )
    grade = score(rca_report, plan, time_tolerance=args.rca_tolerance)
    print()
    print("root-cause analysis (from audit + critical paths alone):")
    if not rca_report.verdicts:
        print("    no fault localized")
    for verdict in rca_report.verdicts:
        print(f"    {verdict.describe()}")
        for line in verdict.evidence:
            print(f"        - {line}")
    print(
        f"    score vs ground truth: {grade['localized']}/{grade['total']} "
        f"events localized within ±{args.rca_tolerance:g}s "
        f"(recall {grade['recall']:.0%}, "
        f"{grade['false_positives']} false positives)"
    )
    anomaly_grade = None
    if result.stream is not None:
        stream_report = result.stream
        print()
        print(
            f"online anomaly detection "
            f"({stream_report.snapshots} snapshots streamed):"
        )
        if not stream_report.anomalies:
            print("    no anomalies flagged")
        for record in stream_report.anomalies:
            print(f"    {record.describe()}")
        anomaly_grade = score_anomalies(stream_report.anomalies, plan)
        print(
            f"    score vs ground truth: "
            f"{anomaly_grade['localized']}/{anomaly_grade['total']} "
            f"events localized online "
            f"(recall {anomaly_grade['recall']:.0%}, "
            f"{anomaly_grade['false_positives']} false positives)"
        )
        print(f"stream written to {stream_report.path}")
    if args.audit:
        print(f"audit log written to {args.audit}")
    if args.report:
        payload = {
            "scenario": scenario.name,
            "scheduler": name,
            "plan": plan.describe(),
            "self_healing": plan.self_healing,
            "fault_report": report.to_dict(),
            "slo": [
                {
                    "objective": rep.objective.describe(),
                    "compliant_fraction": rep.compliant_fraction,
                    "violations": len(rep.violations),
                }
                for rep in slo_reports
            ],
            "rca": rca_report.to_dict(),
            "score": grade,
        }
        if result.stream is not None:
            payload["anomalies"] = [
                record.to_dict() for record in result.stream.anomalies
            ]
            payload["anomaly_score"] = anomaly_grade
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {path}")
    return 0


_WATCH_HEADER = (
    f"{'t':>9} {'prog':>5} {'queue':>5} {'outst':>5} {'infl':>5} "
    f"{'done':>7} {'fps':>7} {'p95 ms':>7} {'hit%':>5} {'burn':>6}"
)


def _watch_row(snapshot: dict, horizon: Optional[float]) -> str:
    """One status-table row for a ``snapshot`` stream record."""
    progress = ""
    if horizon:
        progress = f"{min(snapshot['t'] / horizon, 1.0):4.0%}"
    return (
        f"{snapshot['t']:9.2f} {progress:>5} {snapshot['queue']:5d} "
        f"{snapshot['outstanding']:5d} {snapshot['inflight']:5d} "
        f"{snapshot['completed']:7d} {snapshot['fps']:7.1f} "
        f"{snapshot['latency_p95'] * 1e3:7.1f} "
        f"{snapshot['hit_rate'] * 100:5.1f} {snapshot['burn']:6.2f}"
    )


def cmd_watch(args: argparse.Namespace) -> int:
    """Tail a telemetry stream file into a live terminal status table."""
    if args.poll <= 0:
        raise ValueError(f"--poll must be > 0, got {args.poll:g}")
    if args.idle_timeout <= 0:
        raise ValueError(
            f"--idle-timeout must be > 0, got {args.idle_timeout:g}"
        )
    path = Path(args.path)
    if args.once:
        if not path.exists():
            raise ValueError(f"no stream file at {path}")
        records = iter_jsonl(path)
    else:
        records = follow_stream(
            path, poll=args.poll, idle_timeout=args.idle_timeout
        )
    horizon: Optional[float] = None
    rows = 0
    finished = False
    for record in records:
        kind = record.get("type")
        if kind == "run":
            horizon = record.get("horizon")
            horizon_text = (
                "drain" if horizon is None else f"{horizon:g}s"
            )
            print(
                f"stream: scenario {record.get('scenario')} / "
                f"{record.get('scheduler')} — horizon {horizon_text}, "
                f"grid {record.get('interval'):g}s "
                f"(schema {record.get('schema')}, "
                f"shard ns {record.get('shard')})"
            )
        elif kind == "fault":
            until = record.get("until")
            window = f" until t={until:g}s" if until is not None else ""
            print(
                f"fault planned: {record['kind']} on node "
                f"{record['node']} at t={record['time']:g}s{window}"
            )
        elif kind == "snapshot":
            if rows % 20 == 0:
                print(_WATCH_HEADER)
            rows += 1
            print(_watch_row(record, horizon))
        elif kind == "wall":
            eta = record.get("eta_s")
            eta_text = f", ETA {eta:.0f}s" if eta is not None else ""
            print(
                f"wall {record['wall_s']:.1f}s: "
                f"{record['events']:,} events "
                f"({record['events_per_sec']:,.0f}/s){eta_text}"
            )
        elif kind == "anomaly":
            print(
                f"!! {record['kind']} at t={record['time']:.3f}s "
                f"({record['detector']}, score {record['score']:.1f}, "
                f"value {record['value']:.4g} "
                f"vs baseline {record['baseline']:.4g})"
            )
        elif kind == "stall":
            print(
                f"** stall: no events for "
                f"{record['stalled_wall_s']:.1f}s wall at sim "
                f"t={record['sim_time']:.2f}s — queue_len="
                f"{record['queue_len']}, next_event="
                f"{record['next_event_time']}, outstanding="
                f"{record['outstanding']}, inflight={record['inflight']}"
            )
        elif kind == "summary":
            finished = True
            print(
                f"run complete: {record['snapshots']} snapshots, "
                f"{record['anomalies']} anomalies, "
                f"{record['stalls']} stalls, "
                f"{record['events']:,} events in "
                f"{record['wall_s']:.2f}s wall "
                f"(sim t={record['sim_time']:.2f}s)"
            )
    if finished or args.once:
        return 0
    print(
        f"stream at {path} went quiet without a summary record "
        f"(idle for {args.idle_timeout:g}s)",
        file=sys.stderr,
    )
    return 1


def cmd_render(args: argparse.Namespace) -> int:
    """Sort-last render a synthetic dataset to a PPM image."""
    volume = make_volume(args.dataset, (args.size, args.size, args.size))
    camera = default_camera_for(
        volume.shape, width=args.image, height=args.image
    )
    tf = _TFS[args.tf]()
    lighting = None
    if args.shaded:
        from repro.render.shading import Lighting

        lighting = Lighting()
    result = render_sort_last(
        volume,
        camera,
        tf,
        ranks=args.ranks,
        algorithm=args.algorithm,
        step=args.step,
        lighting=lighting,
    )
    out = args.out or f"{args.dataset}.ppm"
    path = write_ppm(out, result.image, background=0.08)
    comp = result.compositing
    print(
        f"wrote {path} ({args.image}x{args.image}) — {result.ranks} ranks, "
        f"{comp.algorithm}: {comp.messages} messages, "
        f"{comp.bytes_sent / 2**20:.2f} MiB, {comp.stages} stages"
    )
    return 0


def cmd_animate(args: argparse.Namespace) -> int:
    """Render an orbit animation of a synthetic dataset to PPM frames."""
    from repro.render.animation import OrbitPath, render_animation
    from repro.render.shading import Lighting

    volume = make_volume(args.dataset, (args.size, args.size, args.size))
    result = render_animation(
        volume,
        OrbitPath(frames=args.frames, elevation_swing=8.0),
        _TFS["cool_warm"]() if args.dataset == "supernova" else _TFS["fire"](),
        ranks=args.ranks,
        width=args.image,
        height=args.image,
        lighting=Lighting(),
        output_dir=args.out,
    )
    print(
        f"wrote {result.frames} frames to {args.out}/ "
        f"({result.total_samples:,} samples, "
        f"{result.total_bytes / 2**20:.1f} MiB composited)"
    )
    return 0


def cmd_schedulers(_args: argparse.Namespace) -> int:
    """List the registered scheduling policies."""
    for name in SCHEDULER_NAMES:
        sched = make_scheduler(name)
        print(f"{name:<8} trigger={sched.trigger.value:<10} {type(sched).__doc__.strip().splitlines()[0]}")
    return 0


def cmd_scenarios(_args: argparse.Namespace) -> int:
    """Describe the Table II scenarios."""
    for number in sorted(SCENARIO_FACTORIES):
        scenario = make_scenario(number, scale=0.01)
        print(f"[{number}] {scenario.system.name} x{scenario.system.node_count}: "
              f"{scenario.description}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "federate": cmd_federate,
    "explain": cmd_explain,
    "report": cmd_report,
    "faults": cmd_faults,
    "watch": cmd_watch,
    "render": cmd_render,
    "animate": cmd_animate,
    "schedulers": cmd_schedulers,
    "scenarios": cmd_scenarios,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code (see the module doc)."""
    args = build_parser().parse_args(argv)
    try:
        # Checked here, not only by StreamConfig, so that it fails
        # before a verb prints its scenario summary.
        stall_timeout = getattr(args, "stall_timeout", None)
        if stall_timeout is not None:
            if not args.stream:
                raise ValueError("--stall-timeout requires --stream")
            if stall_timeout <= 0:
                raise ValueError(
                    f"--stall-timeout must be > 0, got {stall_timeout:g}"
                )
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
