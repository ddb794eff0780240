"""Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).

Maps the tracer's virtual-time events onto the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_:

* each **track** (head node, rendering node) becomes a *process*
  (``pid``), named via ``process_name`` metadata;
* each **lane** (render pipeline, I/O, compositing, scheduler, counter
  tracks) becomes a *thread* (``tid``), named via ``thread_name``
  metadata;
* spans export as ``X``/``B``/``E`` phases, instants as ``i``, counter
  samples as ``C``, flow events (causal arrows between spans) as
  ``s``/``t``/``f`` with their chain id in ``id``;
* virtual seconds convert to the format's microseconds;
* span/instant names are forced to ASCII (Perfetto's legacy JSON
  importer mangles non-ASCII names) via backslash escapes.

``write_chrome_trace(path, tracer)`` produces a file you can drag into
`ui.perfetto.dev <https://ui.perfetto.dev>`_ and see, per rendering
node, exactly where the paper's schedulers spend their time — I/O storms
under FCFS, cache-resident rendering under OURS.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.tracer import Tracer

_US = 1e6  # seconds → trace-format microseconds


def _ascii(name: str) -> str:
    """Force ``name`` to ASCII with backslash escapes (lossless)."""
    if name.isascii():
        return name
    return name.encode("ascii", "backslashreplace").decode("ascii")


def _metadata_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """``process_name`` / ``thread_name`` metadata rows for the tracer.

    Every track (``pid``) that appears in the recorded events gets a
    ``process_name`` row — tracks never explicitly named fall back to
    ``"track <pid>"`` so Perfetto still labels the row.
    """
    seen_pids = {e.pid for e in tracer.events}
    seen_pids.update(tracer.process_names)
    out: List[Dict[str, Any]] = []
    for pid in sorted(seen_pids):
        out.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": _ascii(
                        tracer.process_names.get(pid, f"track {pid}")
                    )
                },
            }
        )
        out.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    for pid, tid, lane in sorted(tracer.lanes()):
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": _ascii(lane)},
            }
        )
        out.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    return out


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Convert a tracer's recorded events to trace-format dictionaries.

    Metadata (process/thread names) comes first, then events in record
    order — which is non-decreasing in ``ts`` per ``(pid, tid)`` lane by
    the tracer's construction.
    """
    out = _metadata_events(tracer)
    for e in tracer.events:
        row: Dict[str, Any] = {
            "ph": e.phase,
            "name": _ascii(e.name),
            "ts": round(e.ts * _US, 3),
            "pid": e.pid,
            "tid": e.tid,
        }
        if e.category is not None:
            row["cat"] = e.category
        if e.phase == "X":
            row["dur"] = round((e.dur or 0.0) * _US, 3)
        if e.phase == "i":
            row["s"] = "t"  # instant scope: thread
        elif e.phase in ("s", "t", "f"):
            row["id"] = e.flow_id
            if e.phase == "f":
                row["bp"] = "e"  # bind the arrow to the enclosing slice
        if e.args is not None:
            row["args"] = dict(e.args)
        out.append(row)
    return out


def to_chrome_trace(
    tracer: Tracer,
    *,
    metadata: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the top-level JSON-object form of the trace.

    Args:
        tracer: The recorded tracer.
        metadata: Optional run description merged into ``otherData``
            (scenario name, scheduler, scale — anything JSON-serializable).
    """
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["otherData"] = dict(metadata)
    return doc


def write_chrome_trace(
    path: Union[str, Path],
    tracer: Tracer,
    *,
    metadata: Optional[Mapping[str, Any]] = None,
    indent: Optional[int] = None,
) -> Path:
    """Serialize the trace to ``path``; returns the written path.

    Parent directories are created as needed, so ``--trace out/run.json``
    works without a separate mkdir.
    """
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    doc = to_chrome_trace(tracer, metadata=metadata)
    path.write_text(json.dumps(doc, indent=indent, default=str) + "\n")
    return path


__all__ = ["chrome_trace_events", "to_chrome_trace", "write_chrome_trace"]
