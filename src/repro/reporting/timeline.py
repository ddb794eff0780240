"""Text rendering of a run's time series.

The evaluation's aggregate numbers (mean framerate, mean latency) hide
the *dynamics* — warm-up transients, batch-induced stalls, backlog
growth under overload.  :func:`sparkline` makes a series readable in a
terminal report; ``result.metrics.snapshots`` (from
``RunConfig(metrics=True)``) holds one probe snapshot per tick of node
backlog, busy nodes, jobs completed and cache hit counts.
"""

from __future__ import annotations

from typing import List, Sequence

_SPARK_CHARS = " .:-=+*#%@"


def sparkline(values: Sequence[float], *, width: int = 60) -> str:
    """Render a numeric series as a one-line text sparkline.

    Values are bucketed to ``width`` columns (mean per bucket) and
    mapped onto a 10-level character ramp; the line is annotated with
    the series min/max.
    """
    if not values:
        return "(empty)"
    values = list(values)
    n = len(values)
    columns = min(width, n)
    buckets: List[float] = []
    for c in range(columns):
        lo = c * n // columns
        hi = max(lo + 1, (c + 1) * n // columns)
        chunk = values[lo:hi]
        buckets.append(sum(chunk) / len(chunk))
    vmin, vmax = min(buckets), max(buckets)
    span = vmax - vmin
    chars = []
    for v in buckets:
        level = 0 if span == 0 else int((v - vmin) / span * (len(_SPARK_CHARS) - 1))
        chars.append(_SPARK_CHARS[level])
    return f"[{''.join(chars)}] min={vmin:g} max={vmax:g}"


__all__ = ["sparkline"]
