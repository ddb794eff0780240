"""Declarative fault plans — layer 1 of :mod:`repro.faults`.

A :class:`FaultPlan` is a typed, fully deterministic description of the
faults one simulation run will suffer: node crashes (with optional
revival), stragglers (degraded render/IO rates), cache wipes (per node
or per dataset), and storage degradation (elevated latency / reduced
bandwidth).  Events are scheduled on the virtual clock through the
regular event queue, so a run with ``faults=None`` is bit-identical to
a run that predates the subsystem (the golden-trace hashes pin this).

A plan optionally carries a :class:`DetectionConfig` and a
:class:`RecoveryConfig`.  Without them the plan is *vanilla*: crashes
are applied through the paper's instantly-aware §VI-D path (the head
node learns at once), and nothing else is
detected or healed.  With them the run is *self-healing*: the head node
only learns about faults through the detectors
(:mod:`repro.faults.detect`) and reacts through the recovery policies
(:mod:`repro.faults.recovery`).

Plans can be written in code, parsed from the CLI mini-language
(:meth:`FaultPlan.parse`), generated as a seeded storm
(:meth:`FaultPlan.storm`), or built from ``(time, node)`` crash pairs
(:meth:`FaultPlan.from_node_failures`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union


def _check_time(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` crashes at ``time``; optionally revives later."""

    time: float
    node: int
    revive_at: Optional[float] = None

    kind = "crash"

    def __post_init__(self) -> None:
        _check_time("time", self.time)
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")
        if self.revive_at is not None and self.revive_at <= self.time:
            raise ValueError(
                f"revive_at ({self.revive_at}) must be after the crash "
                f"time ({self.time})"
            )


@dataclass(frozen=True)
class Straggler:
    """Node ``node`` slows down at ``time``: its render (and optionally
    I/O) durations are multiplied by the given factors until ``until``
    (or for the rest of the run)."""

    time: float
    node: int
    render_factor: float = 4.0
    io_factor: float = 1.0
    until: Optional[float] = None

    kind = "straggler"

    def __post_init__(self) -> None:
        _check_time("time", self.time)
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")
        if self.render_factor < 1.0 or self.io_factor < 1.0:
            raise ValueError(
                "straggler factors must be >= 1.0, got "
                f"render={self.render_factor}, io={self.io_factor}"
            )
        if self.until is not None and self.until <= self.time:
            raise ValueError(
                f"until ({self.until}) must be after time ({self.time})"
            )


@dataclass(frozen=True)
class CacheWipe:
    """Main-memory cache contents are lost at ``time``.

    ``node=None`` wipes every node; ``dataset`` (when set) restricts the
    wipe to that dataset's chunks.  The head node's cache mirror is
    deliberately *not* updated — the whole point is that the scheduler's
    hit predictions go stale until detection/recovery resyncs them.
    """

    time: float
    node: Optional[int] = None
    dataset: Optional[str] = None

    kind = "wipe"

    def __post_init__(self) -> None:
        _check_time("time", self.time)
        if self.node is not None and self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")


@dataclass(frozen=True)
class StorageDegrade:
    """The shared storage degrades at ``time``: access latency is
    multiplied by ``latency_factor`` and bandwidth by
    ``bandwidth_factor`` until ``until`` (or for the rest of the run)."""

    time: float
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    until: Optional[float] = None

    kind = "storage"

    def __post_init__(self) -> None:
        _check_time("time", self.time)
        if self.latency_factor < 1.0:
            raise ValueError(
                f"latency_factor must be >= 1.0, got {self.latency_factor}"
            )
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError(
                "bandwidth_factor must be in (0, 1], got "
                f"{self.bandwidth_factor}"
            )
        if self.until is not None and self.until <= self.time:
            raise ValueError(
                f"until ({self.until}) must be after time ({self.time})"
            )


FaultEvent = Union[NodeCrash, Straggler, CacheWipe, StorageDegrade]

_EVENT_TYPES = (NodeCrash, Straggler, CacheWipe, StorageDegrade)


@dataclass(frozen=True)
class DetectionConfig:
    """How the head node notices faults (layer 2).

    Attributes:
        heartbeat_interval: Virtual seconds between heartbeat probes of
            the rendering nodes (probes only run while a crash awaits
            detection, so fault-free stretches schedule no events).
        heartbeat_timeout: A node silent this long is declared dead.
        outlier_ratio: A finished task whose actual execution exceeded
            the head node's estimate by this factor counts as an
            outlier.
        outlier_streak: Consecutive outliers on one node before the
            detector raises a verdict (straggler or cache wipe,
            classified by the surprise-miss mix of the streak).
        surprise_streak: Surprise misses (the head node's mirror
            predicted a hit, the task reported a miss) on one node
            before the wipe detector trips.  Mirrors track the real
            caches exactly outside faults, so surprise misses are
            strong evidence — the default is lower than
            ``outlier_streak``.
    """

    heartbeat_interval: float = 0.05
    heartbeat_timeout: float = 0.15
    outlier_ratio: float = 3.0
    outlier_streak: int = 3
    surprise_streak: int = 2

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout < self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must be >= heartbeat_interval, got "
                f"{self.heartbeat_timeout} < {self.heartbeat_interval}"
            )
        if self.outlier_ratio <= 1.0:
            raise ValueError(
                f"outlier_ratio must be > 1.0, got {self.outlier_ratio}"
            )
        if self.outlier_streak < 1:
            raise ValueError(
                f"outlier_streak must be >= 1, got {self.outlier_streak}"
            )
        if self.surprise_streak < 1:
            raise ValueError(
                f"surprise_streak must be >= 1, got {self.surprise_streak}"
            )


@dataclass(frozen=True)
class RecoveryConfig:
    """Which self-healing policies react to detections (layer 3).

    Attributes:
        requeue: Re-execute tasks orphaned by a detected crash
            (audit reason ``requeue-crash``).
        quarantine: Stop scheduling onto a detected straggler
            (audit reason ``quarantine``; sticky for the run).
        speculative: Re-issue a quarantined node's queued backlog onto
            healthy nodes (audit reason ``speculative``); the task
            already executing finishes slowly wherever it is.
        rewarm: After a detected cache wipe, resync the head node's
            cache mirror and reload the hottest lost chunks
            (audit reason ``rewarm``).
        rewarm_limit: Maximum chunks reloaded per wipe detection.
    """

    requeue: bool = True
    quarantine: bool = True
    speculative: bool = True
    rewarm: bool = True
    rewarm_limit: int = 4

    def __post_init__(self) -> None:
        if self.rewarm_limit < 0:
            raise ValueError(
                f"rewarm_limit must be >= 0, got {self.rewarm_limit}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events plus healing policy.

    ``detection=None`` (the default) reproduces the legacy §VI-D
    semantics: crashes are applied with the head node instantly aware,
    and stragglers/wipes/storage faults simply happen without any
    reaction.  Setting ``detection`` makes the run self-healing;
    ``recovery=None`` then means "detect but do not act" (a useful
    ablation), while a :class:`RecoveryConfig` enables the healing
    policies.
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)
    detection: Optional[DetectionConfig] = None
    recovery: Optional[RecoveryConfig] = None

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, _EVENT_TYPES):
                raise TypeError(
                    f"fault events must be NodeCrash/Straggler/CacheWipe/"
                    f"StorageDegrade, got {type(event).__name__}"
                )
        object.__setattr__(self, "events", events)
        if self.recovery is not None and self.detection is None:
            raise ValueError(
                "recovery requires detection: pass detection="
                "DetectionConfig(...) as well"
            )

    @property
    def self_healing(self) -> bool:
        """Whether the plan both detects faults and reacts to them."""
        return self.detection is not None and self.recovery is not None

    def max_node(self) -> int:
        """Highest node index any event references (-1 if none do)."""
        highest = -1
        for event in self.events:
            node = getattr(event, "node", None)
            if node is not None and node > highest:
                highest = node
        return highest

    def check_nodes(self, node_count: int) -> None:
        """Raise ``ValueError`` if an event names a node outside the cluster."""
        highest = self.max_node()
        if highest >= node_count:
            raise ValueError(
                f"fault plan references node {highest} "
                f"(cluster has {node_count} nodes)"
            )

    def describe(self) -> str:
        """One line per event, in plan order."""
        lines = []
        for event in self.events:
            parts = [f"{event.kind}@{event.time:g}"]
            for name in ("node", "revive_at", "render_factor", "io_factor",
                         "dataset", "latency_factor", "bandwidth_factor",
                         "until"):
                value = getattr(event, name, None)
                if value is not None and value != 1.0:
                    parts.append(f"{name}={value:g}" if not isinstance(value, str)
                                 else f"{name}={value}")
            lines.append(" ".join(parts))
        mode = (
            "self-healing" if self.self_healing
            else "detect-only" if self.detection is not None
            else "vanilla"
        )
        if not lines:
            return f"fault plan ({mode}, no events)"
        return (
            f"fault plan ({mode}, {len(self.events)} events):\n  "
            + "\n  ".join(lines)
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_node_failures(
        cls, failures: Sequence[Tuple[float, int]]
    ) -> "FaultPlan":
        """A vanilla plan crashing each ``(time, node)`` pair's node.

        No detection or recovery: every crash takes the paper's
        instantly-aware §VI-D path, exactly like a plan of plain
        :class:`NodeCrash` events without revival.
        """
        return cls(
            events=tuple(NodeCrash(time, node) for time, node in failures)
        )

    @classmethod
    def parse(cls, spec: str, *, heal: bool = True) -> "FaultPlan":
        """Parse the CLI mini-language into a plan.

        Grammar: semicolon-separated events, each
        ``kind@time[:key=value,...]``::

            crash@10:node=3,revive=20
            straggler@5:node=2,render=4,io=2,until=15
            wipe@8:node=1
            wipe@8:dataset=ds2
            storage@6:latency=5,bw=0.25,until=12

        ``heal=True`` (default) attaches default detection + recovery
        configs; ``heal=False`` yields a vanilla plan.
        """
        events = []
        for raw in spec.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            head, _, tail = raw.partition(":")
            kind, at, time_text = head.partition("@")
            kind = kind.strip().lower()
            if not at:
                raise ValueError(
                    f"bad fault event {raw!r}: expected kind@time[:k=v,...]"
                )
            try:
                time = float(time_text)
            except ValueError:
                raise ValueError(
                    f"bad fault time in {raw!r}: {time_text!r}"
                ) from None
            fields = {}
            if tail:
                for part in tail.split(","):
                    key, sep, value = part.partition("=")
                    if not sep:
                        raise ValueError(
                            f"bad fault option {part!r} in {raw!r}; "
                            f"expected key=value"
                        )
                    fields[key.strip()] = value.strip()
            try:
                events.append(_parse_event(kind, time, fields, raw))
            except KeyError as exc:
                raise ValueError(
                    f"fault event {raw!r} missing required option {exc}"
                ) from None
        return cls(
            events=tuple(events),
            detection=DetectionConfig() if heal else None,
            recovery=RecoveryConfig() if heal else None,
        )

    @classmethod
    def storm(
        cls,
        seed: int,
        *,
        node_count: int,
        duration: float,
        heal: bool = True,
    ) -> "FaultPlan":
        """A seeded, reproducible fault storm for benchmarks.

        One crash (with revival), one straggler, one cache wipe, and one
        storage-degradation window, on distinct nodes, at pseudo-random
        times inside ``duration``.  The same ``(seed, node_count,
        duration)`` always yields the identical plan.
        """
        if node_count < 2:
            raise ValueError(f"storm needs >= 2 nodes, got {node_count}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        rng = random.Random(seed)
        nodes = rng.sample(range(node_count), min(3, node_count))
        crash_at = rng.uniform(0.25, 0.45) * duration
        events: Tuple[FaultEvent, ...] = (
            NodeCrash(
                crash_at,
                nodes[0],
                revive_at=crash_at + rng.uniform(0.25, 0.35) * duration,
            ),
            Straggler(
                rng.uniform(0.15, 0.3) * duration,
                nodes[1],
                render_factor=rng.uniform(4.0, 8.0),
                io_factor=1.0,
            ),
            CacheWipe(rng.uniform(0.5, 0.7) * duration, node=nodes[2 % len(nodes)]),
            StorageDegrade(
                rng.uniform(0.7, 0.8) * duration,
                latency_factor=rng.uniform(3.0, 6.0),
                bandwidth_factor=rng.uniform(0.3, 0.6),
                until=0.95 * duration,
            ),
        )
        return cls(
            events=events,
            detection=DetectionConfig() if heal else None,
            recovery=RecoveryConfig() if heal else None,
        )


def _parse_event(kind: str, time: float, fields: dict, raw: str) -> FaultEvent:
    """Build one typed event from parsed mini-language fields."""
    if kind == "crash":
        unknown = set(fields) - {"node", "revive"}
        if unknown:
            raise ValueError(
                f"unknown crash option(s) in {raw!r}: {', '.join(sorted(unknown))}"
            )
        return NodeCrash(
            time,
            int(fields["node"]),
            revive_at=float(fields["revive"]) if "revive" in fields else None,
        )
    if kind == "straggler":
        unknown = set(fields) - {"node", "render", "io", "until"}
        if unknown:
            raise ValueError(
                f"unknown straggler option(s) in {raw!r}: "
                f"{', '.join(sorted(unknown))}"
            )
        return Straggler(
            time,
            int(fields["node"]),
            render_factor=float(fields.get("render", 4.0)),
            io_factor=float(fields.get("io", 1.0)),
            until=float(fields["until"]) if "until" in fields else None,
        )
    if kind == "wipe":
        unknown = set(fields) - {"node", "dataset"}
        if unknown:
            raise ValueError(
                f"unknown wipe option(s) in {raw!r}: {', '.join(sorted(unknown))}"
            )
        return CacheWipe(
            time,
            node=int(fields["node"]) if "node" in fields else None,
            dataset=fields.get("dataset"),
        )
    if kind == "storage":
        unknown = set(fields) - {"latency", "bw", "until"}
        if unknown:
            raise ValueError(
                f"unknown storage option(s) in {raw!r}: "
                f"{', '.join(sorted(unknown))}"
            )
        return StorageDegrade(
            time,
            latency_factor=float(fields.get("latency", 1.0)),
            bandwidth_factor=float(fields.get("bw", 1.0)),
            until=float(fields["until"]) if "until" in fields else None,
        )
    raise ValueError(
        f"unknown fault kind {kind!r} in {raw!r}; "
        f"expected crash/straggler/wipe/storage"
    )


__all__ = [
    "NodeCrash",
    "Straggler",
    "CacheWipe",
    "StorageDegrade",
    "FaultEvent",
    "DetectionConfig",
    "RecoveryConfig",
    "FaultPlan",
]
