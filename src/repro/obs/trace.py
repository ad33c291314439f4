"""Span tracing: monotonic-clock context managers, Chrome-trace export.

``span("kernel.run", kernel="fast")`` brackets one unit of work; when
tracing is enabled the completed span lands in a process-wide bounded
buffer as one Chrome trace-event (``"ph": "X"``) dict, exportable via
:func:`chrome_trace` / :func:`write_trace` and loadable in
``about:tracing`` or Perfetto.  ``instant("progress.batch", **attrs)``
records zero-duration marker events the same way.

The enablement contract mirrors the metrics registry: **disabled
tracing is a no-op attribute check** — ``span()`` returns a shared
do-nothing context manager without allocating, so permanently
instrumented hot paths cost nothing until someone asks for a trace
(``--trace-out``, ``repro serve``'s ``/v1/trace`` buffer, or a test's
:func:`capture` block).

Clocks: durations come from ``time.monotonic()`` (never wall time, so a
clock step mid-span cannot produce negative durations); the absolute
``ts`` placing a span on the timeline is derived from a per-process
``(wall, monotonic)`` anchor pair captured at import, which makes spans
recorded in different processes (warm-pool workers) land on one
mutually consistent timeline to within clock-read jitter.  Worker spans
travel back to the parent as plain dicts (see
:func:`repro.spec.runner._run_payload_chunk`) and merge via
:func:`absorb`.

Thread-safety: one module lock guards the buffer; span objects
themselves are single-thread (create, enter, exit on one thread — the
only way a context manager is used).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import _STATE

__all__ = [
    "span",
    "instant",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "capture",
    "events",
    "drain",
    "absorb",
    "chrome_trace",
    "write_trace",
]

#: Default cap on buffered events; the oldest are evicted beyond it (a
#: long-lived ``repro serve`` keeps the most recent window, which is
#: what ``GET /v1/trace`` should return).  Evictions are counted in
#: ``dropped_events()``.
DEFAULT_EVENT_LIMIT = 200_000

#: Per-process anchor: wall-clock seconds at an instant whose monotonic
#: reading is also recorded.  ``ts_us(mono) = (wall0 + (mono - mono0)) * 1e6``
#: gives cross-process-comparable microsecond timestamps with
#: monotonic-derived spacing.
_WALL_ANCHOR = time.time()
_MONO_ANCHOR = time.monotonic()

_lock = threading.Lock()
_enabled = False
_events: List[Dict[str, Any]] = []
_limit = DEFAULT_EVENT_LIMIT
_dropped = 0


def _ts_us(mono: float) -> float:
    return (_WALL_ANCHOR + (mono - _MONO_ANCHOR)) * 1e6


def tracing_enabled() -> bool:
    """Whether spans are currently being captured."""
    return _enabled


def enable_tracing(limit: int = DEFAULT_EVENT_LIMIT) -> None:
    """Start capturing spans into the process buffer (idempotent).

    A no-op when instrumentation is globally disabled (``REPRO_OBS=0``).
    """
    global _enabled, _limit
    if not _STATE.enabled:
        return
    with _lock:
        _limit = int(limit)
        _enabled = True


def disable_tracing() -> None:
    """Stop capturing; already-buffered events stay until :func:`drain`."""
    global _enabled
    with _lock:
        _enabled = False


def _record(event: Dict[str, Any]) -> None:
    global _dropped
    with _lock:
        if not _enabled:
            return
        if len(_events) >= _limit:
            # Keep the most recent window: evict from the front in one
            # slice (amortised — eviction halves the buffer).
            keep = max(1, _limit // 2)
            del _events[: len(_events) - keep]
            _dropped += 1
        _events.append(event)


class _Span:
    """One live span; records itself on ``__exit__``."""

    __slots__ = ("name", "args", "_t0")

    def __init__(self, name: str, args: Dict[str, Any]):
        self.name = name
        self.args = args
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.monotonic()
        return self

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (chunk counts, rows)."""
        self.args.update(attrs)

    def __exit__(self, exc_type, _exc, _tb) -> None:
        t1 = time.monotonic()
        if exc_type is not None:
            self.args["error"] = exc_type.__name__
        _record({
            "name": self.name,
            "cat": self.name.split(".", 1)[0],
            "ph": "X",
            "ts": _ts_us(self._t0),
            "dur": (t1 - self._t0) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident() % 1_000_000,
            "args": self.args,
        })


class _NoopSpan:
    """The shared disabled-path span: enter/exit/annotate do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **attrs: Any):
    """A context manager timing one ``<layer>.<operation>`` unit of work.

    Disabled path: one module-attribute check, then the shared no-op
    singleton — no allocation, no clock read.
    """
    if not _enabled:
        return _NOOP
    return _Span(name, attrs)


def instant(name: str, **attrs: Any) -> None:
    """Record a zero-duration marker event (``"ph": "i"``)."""
    if not _enabled:
        return
    _record({
        "name": name,
        "cat": name.split(".", 1)[0],
        "ph": "i",
        "s": "t",
        "ts": _ts_us(time.monotonic()),
        "pid": os.getpid(),
        "tid": threading.get_ident() % 1_000_000,
        "args": attrs,
    })


def events() -> List[Dict[str, Any]]:
    """A copy of the buffered events (oldest first)."""
    with _lock:
        return list(_events)


def drain() -> List[Dict[str, Any]]:
    """Return and clear the buffered events."""
    global _dropped
    with _lock:
        drained, _events[:] = list(_events), []
        _dropped = 0
        return drained


def dropped_events() -> int:
    """How many buffer evictions have happened since the last drain."""
    return _dropped


def absorb(foreign: Iterable[Dict[str, Any]]) -> None:
    """Merge events recorded in another process (already-final dicts)."""
    if not _enabled:
        return
    for event in foreign:
        _record(dict(event))


class capture:
    """``with capture():`` — enable tracing for a block, restoring after.

    The block's events stay in the shared buffer (read them with
    :func:`events`/:func:`drain`); on exit the previous enabled state is
    restored.  Used by tests and the CLI ``--trace-out`` path.
    """

    def __init__(self, limit: int = DEFAULT_EVENT_LIMIT):
        self._limit = limit
        self._was_enabled = False

    def __enter__(self) -> "capture":
        self._was_enabled = _enabled
        enable_tracing(limit=self._limit)
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._was_enabled:
            disable_tracing()


def chrome_trace(
    trace_events: Optional[Iterable[Dict[str, Any]]] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The Chrome trace-event JSON object (``about:tracing``/Perfetto).

    Defaults to the live buffer; pass ``trace_events`` to export a
    drained list.  A metrics snapshot rides along under
    ``otherData.metrics`` so one trace file carries both signals (the
    ``repro obs`` table renders both).
    """
    body: Dict[str, Any] = {
        "traceEvents": list(trace_events if trace_events is not None
                            else events()),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }
    if metrics is not None:
        body["otherData"]["metrics"] = metrics
    if _dropped:
        body["otherData"]["evictions"] = _dropped
    return body


def write_trace(
    path: str,
    trace_events: Optional[Iterable[Dict[str, Any]]] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> int:
    """Write :func:`chrome_trace` to ``path``; returns the event count."""
    import json

    body = chrome_trace(trace_events, metrics=metrics)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(body, stream)
        stream.write("\n")
    return len(body["traceEvents"])
