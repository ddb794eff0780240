"""Service-level objectives over the paper's per-job quality metrics.

The paper's evaluation argues in aggregates (mean framerate per action,
mean latency), but a *service* commits to objectives: "every user sees
>= 33 fps" (Definition 4) or "p95 interaction latency <= 250 ms"
(Definition 3).  This module evaluates such objectives over sliding
windows of a finished run and reports where, for how long, and how
badly they were missed:

* :class:`SLObjective` — a framerate or latency target plus a window;
* :class:`SLOMonitor` — slides the window over every interactive
  action's active span and classifies each position;
* :class:`ViolationWindow` — one merged run of violating window
  positions for one action;
* :class:`SLOReport` — per-run totals: violation time, compliant
  fraction, worst burn rate.

**Semantics.**  An action is *active* from its first request issue to
``last issue + frame interval`` (clipped to the horizon) — windows are
only judged while the user was actually interacting.  A window
violates a framerate objective when the frames completed inside it,
divided by the window length, fall below the target; its *burn rate*
is the relative shortfall ``(target - fps) / target`` in [0, 1].  A
window violates a latency objective when the fraction of jobs over the
latency bound exceeds the error budget ``1 - q/100`` (e.g. 5% for a
p95 objective); its burn rate is ``fraction_over / budget`` (>= 1 when
violating), the standard SRE burn-rate form.  Windows with no
completions at all violate both kinds maximally.  Overlapping and
adjacent violating windows merge into one :class:`ViolationWindow`.

Reports from different schedulers on the same scenario are directly
comparable — the Fig. 5 story in SLO form is "OURS accumulates strictly
less framerate-SLO violation time than FCFS".
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.job import JobType
from repro.reporting.collectors import JobRecords
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective.

    Attributes:
        kind: ``"fps"`` (Definition-4 framerate floor) or ``"latency"``
            (Definition-3 latency ceiling).
        target: Frames per second (fps) or seconds (latency).
        window: Sliding-window length in simulated seconds.
        step: Window stride; defaults to ``window / 4``.
        quantile: For latency objectives, the percentile the bound
            applies to (``95`` → "p95 latency <= target").
    """

    kind: str
    target: float
    window: float = 1.0
    step: Optional[float] = None
    quantile: float = 95.0

    def __post_init__(self) -> None:
        if self.kind not in ("fps", "latency"):
            raise ValueError(f"kind must be 'fps' or 'latency', got {self.kind!r}")
        check_positive("target", self.target)
        check_positive("window", self.window)
        if self.step is not None:
            check_positive("step", self.step)
        if not 0.0 < self.quantile < 100.0:
            raise ValueError(f"quantile must be in (0, 100), got {self.quantile}")

    @property
    def stride(self) -> float:
        """Effective window stride."""
        return self.step if self.step is not None else self.window / 4.0

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction for latency objectives (``1 - q/100``)."""
        return 1.0 - self.quantile / 100.0

    def describe(self) -> str:
        """Human-readable objective, e.g. ``fps >= 33.33 over 1.0s``."""
        if self.kind == "fps":
            return f"fps >= {self.target:g} over {self.window:g}s windows"
        return (
            f"p{self.quantile:g} latency <= {self.target:g}s "
            f"over {self.window:g}s windows"
        )

    @classmethod
    def parse(cls, spec: str, *, window: float = 1.0) -> "SLObjective":
        """Parse a CLI-style objective spec.

        Accepted forms: ``fps=33.3``, ``latency=0.25`` (p95 by
        default), ``latency:p99=0.5``.
        """
        name, sep, value = spec.partition("=")
        if not sep:
            raise ValueError(f"SLO spec {spec!r} must look like fps=TARGET")
        name = name.strip().lower()
        quantile = 95.0
        if ":" in name:
            name, _, qpart = name.partition(":")
            if not qpart.startswith("p"):
                raise ValueError(f"bad quantile in SLO spec {spec!r}")
            quantile = float(qpart[1:])
        try:
            target = float(value)
        except ValueError:
            raise ValueError(f"bad target in SLO spec {spec!r}") from None
        if name not in ("fps", "latency"):
            raise ValueError(f"unknown SLO kind {name!r} in {spec!r}")
        return cls(kind=name, target=target, window=window, quantile=quantile)


def fps_burn_rate(objective: SLObjective, fps: float) -> float:
    """Burn rate of a framerate objective at delivered ``fps``.

    The relative shortfall ``(target - fps) / target`` clamped to
    ``[0, 1]`` — 0 when on target, 1 when nothing is delivered.  Shared
    by the offline :class:`SLOMonitor` and the online degradation
    controller (:mod:`repro.frontend.degradation`) so both judge with
    identical semantics.
    """
    if objective.kind != "fps":
        raise ValueError(f"objective is {objective.kind!r}, not 'fps'")
    return max(0.0, (objective.target - fps) / objective.target)


@dataclass(frozen=True)
class ViolationWindow:
    """A merged run of violating window positions for one action."""

    user: int
    action: int
    start: float
    end: float
    worst_burn_rate: float

    @property
    def duration(self) -> float:
        """Violation length in simulated seconds."""
        return self.end - self.start

    def to_event(self, objective: SLObjective) -> Dict[str, Any]:
        """JSONL event payload for this violation."""
        return {
            "type": "slo_violation",
            "objective": objective.describe(),
            "kind": objective.kind,
            "target": objective.target,
            "user": self.user,
            "action": self.action,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "worst_burn_rate": self.worst_burn_rate,
        }


@dataclass
class SLOReport:
    """One objective evaluated over one finished run."""

    objective: SLObjective
    scheduler: str
    scenario: str
    violations: List[ViolationWindow] = field(default_factory=list)
    evaluated_time: float = 0.0
    actions_evaluated: int = 0

    @property
    def total_violation_time(self) -> float:
        """Simulated seconds (summed across actions) in violation."""
        return sum(v.duration for v in self.violations)

    @property
    def worst_burn_rate(self) -> float:
        """The single worst burn rate seen in any window (0.0 if clean)."""
        return max((v.worst_burn_rate for v in self.violations), default=0.0)

    @property
    def compliant_fraction(self) -> float:
        """Fraction of evaluated action-time meeting the objective."""
        if self.evaluated_time <= 0:
            return 1.0
        return max(0.0, 1.0 - self.total_violation_time / self.evaluated_time)

    @property
    def actions_violating(self) -> int:
        """Number of distinct actions with at least one violation."""
        return len({(v.user, v.action) for v in self.violations})

    def jsonl_events(self) -> List[Dict[str, Any]]:
        """One JSONL event per violation plus one report summary."""
        events = [v.to_event(self.objective) for v in self.violations]
        events.append(
            {
                "type": "slo_report",
                "objective": self.objective.describe(),
                "scheduler": self.scheduler,
                "scenario": self.scenario,
                "violations": len(self.violations),
                "actions_evaluated": self.actions_evaluated,
                "actions_violating": self.actions_violating,
                "evaluated_time": self.evaluated_time,
                "total_violation_time": self.total_violation_time,
                "compliant_fraction": self.compliant_fraction,
                "worst_burn_rate": self.worst_burn_rate,
            }
        )
        return events

    def row(self) -> str:
        """Fixed-width text row for the SLO comparison table."""
        return (
            f"{self.scheduler:<7} {self.actions_violating:>4}/"
            f"{self.actions_evaluated:<4} {self.total_violation_time:>11.3f} "
            f"{self.compliant_fraction * 100:>9.2f}% "
            f"{self.worst_burn_rate:>10.2f}"
        )


_SLO_HEADER = (
    f"{'sched':<7} {'bad/all':>9} {'viol(s)':>11} {'compliant':>10} "
    f"{'burn':>10}"
)


def slo_table(reports: Sequence[SLOReport], *, title: str = "") -> str:
    """Render one objective's reports (one row per scheduler)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if reports:
        lines.append(reports[0].objective.describe())
    lines.append(_SLO_HEADER)
    lines.append("-" * len(_SLO_HEADER))
    for report in reports:
        lines.append(report.row())
    return "\n".join(lines)


class SLOMonitor:
    """Evaluates objectives against a finished simulation run.

    Works from the run's completed-job records and request-issue spans,
    so it applies to any :class:`~repro.sim.simulator.SimulationResult`
    whether or not the metrics registry was enabled.
    """

    def __init__(self, objectives: Sequence[SLObjective]) -> None:
        if not objectives:
            raise ValueError("SLOMonitor needs at least one objective")
        self.objectives = list(objectives)

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _action_series(result) -> Dict[int, Tuple[int, List[Tuple[float, float]]]]:
        """Per action: owning user + sorted (finish, latency) pairs."""
        users: Dict[int, int] = {}
        series: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for action, user, finish, arrival in JobRecords.of(
            result.collector.records
        ).where(JobType.INTERACTIVE, "action", "user", "finish", "arrival"):
            users[action] = user
            series[action].append((finish, finish - arrival))
        out: Dict[int, Tuple[int, List[Tuple[float, float]]]] = {}
        for action, (_count, _first, _last) in result.collector.action_issues.items():
            completions = sorted(series.get(action, []))
            out[action] = (users.get(action, -1), completions)
        return out

    def _windows_for(
        self, objective: SLObjective, span_start: float, span_end: float
    ) -> List[Tuple[float, float]]:
        """Window positions covering ``[span_start, span_end]``."""
        length = min(objective.window, max(span_end - span_start, 1e-9))
        positions: List[Tuple[float, float]] = []
        t = span_start
        while True:
            end = t + length
            if end >= span_end:
                positions.append((max(span_start, span_end - length), span_end))
                break
            positions.append((t, end))
            t += objective.stride
        return positions

    @staticmethod
    def _burn_fps(objective: SLObjective, fps: float) -> float:
        return fps_burn_rate(objective, fps)

    def _judge(
        self,
        objective: SLObjective,
        completions: List[Tuple[float, float]],
        start: float,
        end: float,
    ) -> Tuple[bool, float]:
        """Classify one window position → (violating, burn rate)."""
        inside = [c for c in completions if start <= c[0] < end]
        if objective.kind == "fps":
            duration = max(end - start, 1e-9)
            fps = len(inside) / duration
            # A perfectly on-target stream places floor(W * target) or
            # ceil(W * target) completions in any finite window, so the
            # pass mark allows that one-frame quantization; real
            # framerate collapses (the Fig. 5 FCFS story) miss it by
            # many frames.
            required = math.floor(duration * objective.target * (1.0 - 1e-9))
            burn = self._burn_fps(objective, fps)
            return len(inside) < required, burn
        if not inside:
            # The user was waiting the whole window: latency unbounded.
            return True, 1.0 / max(objective.error_budget, 1e-9)
        over = sum(1 for _, lat in inside if lat > objective.target)
        fraction = over / len(inside)
        budget = max(objective.error_budget, 1e-9)
        return fraction > budget, fraction / budget

    # -- evaluation --------------------------------------------------------

    def evaluate_objective(self, objective: SLObjective, result) -> SLOReport:
        """Evaluate one objective over every interactive action."""
        report = SLOReport(
            objective=objective,
            scheduler=result.scheduler_name,
            scenario=result.scenario_name,
        )
        tail = result.frame_interval
        series = self._action_series(result)
        for action, (count, first, last) in sorted(
            result.collector.action_issues.items()
        ):
            user, completions = series[action]
            span_start = first
            span_end = min(result.horizon, last + tail)
            if span_end <= span_start:
                continue
            report.actions_evaluated += 1
            report.evaluated_time += span_end - span_start
            open_start: Optional[float] = None
            open_end = 0.0
            worst = 0.0
            for w_start, w_end in self._windows_for(objective, span_start, span_end):
                violating, burn = self._judge(
                    objective, completions, w_start, w_end
                )
                if violating:
                    if open_start is None:
                        open_start, open_end, worst = w_start, w_end, burn
                    elif w_start <= open_end:
                        open_end = max(open_end, w_end)
                        worst = max(worst, burn)
                    else:
                        report.violations.append(
                            ViolationWindow(user, action, open_start, open_end, worst)
                        )
                        open_start, open_end, worst = w_start, w_end, burn
            if open_start is not None:
                report.violations.append(
                    ViolationWindow(user, action, open_start, open_end, worst)
                )
        return report

    def evaluate(self, result) -> List[SLOReport]:
        """Evaluate every objective; one report per objective."""
        return [self.evaluate_objective(o, result) for o in self.objectives]


__all__ = [
    "SLObjective",
    "fps_burn_rate",
    "ViolationWindow",
    "SLOReport",
    "SLOMonitor",
    "slo_table",
]
