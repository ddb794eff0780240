"""The one way a public surface is deprecated.

Every deprecated surface calls :func:`deprecated` once per use, with the
surface's name as README's deprecation table spells it and the
replacement to use instead; the warning says which release removes it.
A tier-1 test reads these call sites and README's table and checks the
two lists agree.

Repro's own copies of a value the caller set (a per-shard copy of a
config, say) run inside :func:`quietly`: the caller was warned once,
when they set it.
"""

from __future__ import annotations

import sys
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

#: The release that deletes every surface deprecated now.
REMOVED_IN = "1.10"

_QUIET: ContextVar[bool] = ContextVar("repro_deprecation_quiet", default=False)


def _internal(module: str) -> bool:
    return module == "repro" or module.startswith("repro.") or module == "dataclasses"


def deprecated(surface: str, replacement: str) -> None:
    """Warn that ``surface`` is deprecated, naming ``replacement``.

    The :class:`DeprecationWarning` is attributed to the first frame
    outside this package (and outside :mod:`dataclasses`, whose
    ``replace`` rebuilds frozen configs), so it points at the line that
    reached the surface however deep inside the library it was reached.
    Inside :func:`quietly` it does nothing.
    """
    if _QUIET.get():
        return
    frame = sys._getframe(1)
    level = 2
    while frame.f_back is not None and _internal(frame.f_globals.get("__name__", "")):
        frame = frame.f_back
        level += 1
    warnings.warn(
        f"{surface} is deprecated and will be removed in {REMOVED_IN}; {replacement}",
        DeprecationWarning,
        stacklevel=level,
    )


@contextmanager
def quietly() -> Iterator[None]:
    """Silence :func:`deprecated` while repro copies what a caller set."""
    token = _QUIET.set(True)
    try:
        yield
    finally:
        _QUIET.reset(token)


__all__ = ["REMOVED_IN", "deprecated", "quietly"]
