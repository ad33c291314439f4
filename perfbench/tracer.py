"""In-memory span tracing from outside the program, with self time.

The benchmark wraps public entry points of each layer (see
:mod:`layers`) with :meth:`Tracer.wrap`; the program's own sources are
untouched.  Spans are kept per thread while a root span is open; when
the root closes, :func:`self_times` folds the finished tree into
per-layer totals and a bounded sample is kept for the Chrome trace.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

#: A finished span: (name, pid, tid, start_s, end_s).
Span = Sequence[Any]

#: How many spans a tracer keeps for its Chrome trace; the rest only
#: count towards self time.
KEEP_EVENTS = 50_000


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Exclusive seconds per span name.

    Spans nest per ``(pid, tid)``: a span's self time is its duration
    minus the durations of the spans directly inside it.
    """
    by_thread: Dict[Any, List[Span]] = defaultdict(list)
    for span in spans:
        by_thread[(span[1], span[2])].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for group in by_thread.values():
        group.sort(key=lambda s: (s[3], -s[4]))
        stack: List[Span] = []
        for span in group:
            name, _pid, _tid, start, end = span
            while stack and stack[-1][4] <= start:
                stack.pop()
            totals[name] += end - start
            if stack:
                totals[stack[-1][0]] -= end - start
            stack.append(span)
    return dict(totals)


class Tracer:
    """Collects spans from wrapped callables in this process only.

    Forked children (pool workers) inherit the wrappers but record
    nothing: their work reaches the benchmark through the program's
    own metrics instead.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.active = True
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.sums: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.kept: List[Span] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._originals: List[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    def _open(self) -> List[Any]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = [0, []]
        state[0] += 1
        return state

    def _close(self, state: List[Any], name: str, start: float,
               end: float) -> None:
        state[0] -= 1
        state[1].append((name, self.pid, threading.get_ident(), start, end))
        if state[0] == 0:
            finished, state[1] = state[1], []
            self._fold(finished)

    def _fold(self, spans: List[Span]) -> None:
        totals = self_times(spans)
        with self._lock:
            for name, seconds in totals.items():
                self.self_s[name] += seconds
            for span in spans:
                self.calls[span[0]] += 1
            room = KEEP_EVENTS - len(self.kept)
            self.kept.extend(spans[:max(0, room)])
            self.dropped += max(0, len(spans) - max(0, room))

    def span(self, name: str) -> "_SpanContext":
        """A context manager recording one span named ``name``."""
        return _SpanContext(self, name)

    def note(self, key: str, value: float) -> None:
        """Add ``value`` to the running total ``key`` (counts, sizes)."""
        with self._lock:
            self.sums[key] += value

    def sample(self, key: str, value: float) -> None:
        """Record one observation of ``key`` (for percentiles)."""
        with self._lock:
            self.samples[key].append(value)

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[[Any], None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            state = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(state, name, start, time.perf_counter())
            if on_result is not None:
                on_result(result)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering the original for unwrap_all."""
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self.active = False

    def chrome_trace(self) -> Dict[str, Any]:
        """The kept spans as Chrome trace-event JSON (``about:tracing``).

        Timestamps are the host's monotonic clock in microseconds, which
        every process shares, so traces of several processes merge.
        """
        events = [
            {
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "cat": name.split(".")[0],
            }
            for name, pid, tid, start, end in self.kept
        ]
        return {
            "traceEvents": events,
            "otherData": {"dropped_spans": self.dropped,
                          "self_s": dict(self.self_s)},
        }

    def snapshot(self) -> Dict[str, Any]:
        """Totals as plain JSON (shipped from the server process)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "sums": dict(self.sums),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "trace": self.chrome_trace(),
            }


class _SpanContext:
    __slots__ = ("tracer", "name", "state", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.state = self.tracer._open() if self.tracer.active else None
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.state is not None:
            self.tracer._close(
                self.state, self.name, self.start, time.perf_counter()
            )


def write_json(path: str, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as JSON, creating parent directories."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)
