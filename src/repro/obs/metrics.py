"""The process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per process (the module-level
:data:`registry`) aggregates everything the instrumented layers record:
kernel chunk/pass counts, pool queue waits, store append wall times,
HTTP request latencies.  Instruments are **get-or-create** —
``registry.counter("repro_store_rows_appended_total").inc(3)`` works
from any layer without setup — and label sets address children of one
family exactly as in Prometheus
(``registry.histogram("repro_http_request_seconds", endpoint="/metrics",
method="GET")``).

Design constraints, in priority order:

* **Cheap when disabled.**  ``repro.obs.set_enabled(False)`` (or
  ``REPRO_OBS=0`` in the environment) turns every ``inc``/``set``/
  ``observe`` into a single attribute check and return.  The enabled
  path is one lock acquire plus a float add — cheap enough to leave on
  by default, which is why the instrumentation-overhead gate in
  ``check_regression.py`` budgets 3% for the *enabled* path.
* **Thread-safe.**  The registry serves HTTP handler threads, the job
  executor thread and the main thread concurrently; one registry lock
  covers instrument creation and every update (updates are nanoseconds,
  so contention is irrelevant at this event rate — instruments are
  bumped per run / per batch / per request, never per simulation step).
* **Mergeable across processes.**  Warm-pool workers run the kernel in
  separate processes; :meth:`MetricsRegistry.values` /
  :meth:`MetricsRegistry.delta` / :meth:`MetricsRegistry.merge_delta`
  let a worker ship the counters one task produced back to the parent
  as a plain dict (see ``repro.spec.runner``), so ``/metrics`` reflects
  kernel activity wherever it physically ran.

Naming scheme (see DESIGN.md "Observability"): metric names are
Prometheus-style ``repro_<layer>_<quantity>[_<unit>][_total]`` —
``repro_kernel_chunked_steps_total``, ``repro_pool_chunk_wait_seconds``
— with low-cardinality labels only (kernel name, endpoint, job kind;
never spec hashes or job ids).
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]

#: Default histogram bucket boundaries (seconds-oriented: the common
#: instrumented quantity is a wall time).  Fixed at creation — a
#: histogram's identity includes its boundaries, so deltas merge
#: bucket-by-bucket without resampling.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class _ObsState:
    """The one mutable enablement flag, shared by metrics and tracing.

    An instrument's hot path reads ``_STATE.enabled`` and returns — the
    documented no-op-attribute-check disabled path.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = os.environ.get("REPRO_OBS", "1").lower() not in (
            "0", "false", "no", "off",
        )


_STATE = _ObsState()


def obs_enabled() -> bool:
    """Whether instrumentation records anything at all."""
    return _STATE.enabled


def set_obs_enabled(enabled: bool) -> bool:
    """Flip the process-wide instrumentation switch; returns the old value."""
    previous = _STATE.enabled
    _STATE.enabled = bool(enabled)
    return previous


LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus exposition number formatting."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(items: LabelItems, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(items)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class _Instrument:
    """Common identity: a name plus a sorted label tuple."""

    kind = "untyped"
    __slots__ = ("name", "label_items", "_lock")

    def __init__(self, name: str, label_items: LabelItems, lock: threading.Lock):
        self.name = name
        self.label_items = label_items
        self._lock = lock

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self.label_items)


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name: str, label_items: LabelItems, lock: threading.Lock):
        super().__init__(name, label_items, lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, worker count)."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self, name: str, label_items: LabelItems, lock: threading.Lock):
        super().__init__(name, label_items, lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Instrument):
    """Cumulative-bucket histogram with fixed boundaries.

    ``observe`` places the value in the first bucket whose upper bound
    is >= value (bisect over the fixed boundary tuple); rendering emits
    Prometheus cumulative ``_bucket``/``_sum``/``_count`` series.
    """

    kind = "histogram"
    __slots__ = ("bounds", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        label_items: LabelItems,
        lock: threading.Lock,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, label_items, lock)
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(
                f"histogram {name!r}: bucket bounds must be strictly "
                f"increasing, got {bounds!r}"
            )
        # One slot per finite bound plus the +Inf overflow slot.
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _STATE.enabled:
            return
        with self._lock:
            self._counts[bisect_left(self.bounds, value)] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, +Inf slot last."""
        return list(self._counts)

    def quantile(self, q: float) -> Optional[float]:
        """A bucket-boundary estimate of the q-quantile (None when empty).

        Returns the upper bound of the bucket holding the q-th sample —
        coarse by construction, but exactly what fixed-bucket data can
        support; the ``repro obs`` summary table uses it for p50/p99.
        """
        if self._count == 0:
            return None
        rank = q * self._count
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= rank and count:
                if index < len(self.bounds):
                    return self.bounds[index]
                return math.inf
        return math.inf


class MetricsRegistry:
    """Thread-safe get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelItems], _Instrument] = {}
        #: The same instruments keyed by ``(name, *labels as passed)``
        #: when every label value is a string, so a repeated lookup
        #: neither sorts nor stringifies its labels.  (Other values stay
        #: on the sorted key: ``1 == 1.0 == True`` stringify apart.)
        self._passed: Dict[tuple, _Instrument] = {}

    # -- instrument access -----------------------------------------------

    def _get(self, cls, name: str, labels: Mapping[str, Any], **kwargs):
        passed = (name, *labels.items())
        try:
            instrument = self._passed.get(passed)
        except TypeError:  # an unhashable label value
            instrument = None
        if instrument is None:
            key = (name, _label_items(labels))
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = cls(name, key[1], self._lock, **kwargs)
                    self._instruments[key] = instrument
                if all(type(value) is str for value in labels.values()):
                    self._passed[passed] = instrument
        if not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> Histogram:
        kwargs = {}
        if buckets is not None:
            kwargs["bounds"] = tuple(buckets)
        return self._get(Histogram, name, labels, **kwargs)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def reset(self) -> None:
        """Drop every instrument (tests)."""
        with self._lock:
            self._instruments.clear()
            self._passed.clear()

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able point-in-time view of every instrument.

        The whole read happens under the registry lock, so counters
        that are updated together are reported together.
        """
        counters: List[Dict[str, Any]] = []
        gauges: List[Dict[str, Any]] = []
        histograms: List[Dict[str, Any]] = []
        with self._lock:
            for instrument in self._instruments.values():
                if isinstance(instrument, Counter):
                    counters.append({
                        "name": instrument.name,
                        "labels": instrument.labels,
                        "value": instrument.value,
                    })
                elif isinstance(instrument, Gauge):
                    gauges.append({
                        "name": instrument.name,
                        "labels": instrument.labels,
                        "value": instrument.value,
                    })
                elif isinstance(instrument, Histogram):
                    histograms.append({
                        "name": instrument.name,
                        "labels": instrument.labels,
                        "count": instrument.count,
                        "sum": instrument.sum,
                        "bounds": list(instrument.bounds),
                        "buckets": instrument.bucket_counts(),
                    })
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        with self._lock:
            families: Dict[str, List[_Instrument]] = {}
            for instrument in self._instruments.values():
                families.setdefault(instrument.name, []).append(instrument)
            for name in sorted(families):
                members = families[name]
                lines.append(f"# TYPE {name} {members[0].kind}")
                for inst in members:
                    if isinstance(inst, (Counter, Gauge)):
                        lines.append(
                            f"{name}{_render_labels(inst.label_items)} "
                            f"{_format_value(inst.value)}"
                        )
                    elif isinstance(inst, Histogram):
                        cumulative = 0
                        for bound, count in zip(
                            list(inst.bounds) + [math.inf],
                            inst.bucket_counts(),
                        ):
                            cumulative += count
                            le = _render_labels(
                                inst.label_items, ("le", _format_value(bound))
                            )
                            lines.append(f"{name}_bucket{le} {cumulative}")
                        labels = _render_labels(inst.label_items)
                        lines.append(
                            f"{name}_sum{labels} {_format_value(inst.sum)}"
                        )
                        lines.append(f"{name}_count{labels} {inst.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- cross-process aggregation ----------------------------------------

    def values(self) -> Dict[str, Any]:
        """The raw state a :meth:`delta` is computed against."""
        counters: Dict[Tuple[str, LabelItems], float] = {}
        histograms: Dict[Tuple[str, LabelItems], Tuple] = {}
        with self._lock:
            for key, inst in self._instruments.items():
                if isinstance(inst, Counter):
                    counters[key] = inst.value
                elif isinstance(inst, Histogram):
                    histograms[key] = (
                        inst.bounds, tuple(inst.bucket_counts()), inst.sum,
                    )
        return {"counters": counters, "histograms": histograms}

    def delta(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """What changed since ``before`` (a :meth:`values` snapshot).

        Returns a picklable plain-dict delta: counter increments and
        histogram bucket/sum increments.  Gauges are process-local state
        (queue depth, worker count) and intentionally do not travel.
        """
        after = self.values()
        counters = []
        for key, value in after["counters"].items():
            increment = value - before["counters"].get(key, 0.0)
            if increment:
                counters.append([key[0], dict(key[1]), increment])
        histograms = []
        for key, (bounds, buckets, total) in after["histograms"].items():
            prev = before["histograms"].get(key)
            prev_buckets = prev[1] if prev else (0,) * len(buckets)
            prev_sum = prev[2] if prev else 0.0
            increments = [b - p for b, p in zip(buckets, prev_buckets)]
            if any(increments):
                histograms.append([
                    key[0], dict(key[1]), list(bounds), increments,
                    total - prev_sum,
                ])
        delta: Dict[str, Any] = {}
        if counters:
            delta["counters"] = counters
        if histograms:
            delta["histograms"] = histograms
        return delta

    def merge_delta(self, delta: Mapping[str, Any]) -> None:
        """Fold a worker's :meth:`delta` into this registry."""
        if not delta or not _STATE.enabled:
            return
        for name, labels, increment in delta.get("counters", ()):
            self.counter(name, **labels).inc(increment)
        for name, labels, bounds, increments, total in delta.get(
            "histograms", ()
        ):
            hist = self.histogram(name, buckets=bounds, **labels)
            with self._lock:
                for index, increment in enumerate(increments):
                    hist._counts[index] += increment
                added = sum(increments)
                hist._count += added
                hist._sum += total


#: The process-wide registry every instrumented layer records into.
registry = MetricsRegistry()
