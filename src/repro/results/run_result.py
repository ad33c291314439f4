"""The typed, frozen result of one scenario run.

A :class:`RunResult` is the one shape every analysis tool consumes: a
spec hash (the cache/resume key), the grid-point overrides that produced
it, the metric columns contributed by :mod:`repro.results.metrics`
extractors, and — optionally — decimated traces.  It replaces the ad-hoc
scalar dicts the sweep runner used to ship between processes, and it
round-trips losslessly through plain-dict records, which is what the
JSONL :class:`~repro.results.store.ResultStore` persists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro import obs
from repro.errors import SpecError
from repro.results.metrics import ERROR_COLUMN, extract_metrics, result_columns

#: Record layout version; bump when the persisted shape changes.
RECORD_SCHEMA = 1

#: Error prefix marking a *worker* crash (pool/pickling/OOM) rather than
#: a scenario that deterministically failed.  Crash rows are transient:
#: they are never persisted to a store, resume recomputes them, and
#: store compaction drops any left behind by older stores.  Defined
#: here (not in the runner) so the results layer can classify rows
#: without importing the execution stack.
WORKER_FAILURE_PREFIX = "worker failed: "

#: Error prefix marking a payload quarantined after exhausting its
#: supervised retries (see ``repro.spec.runner.SupervisionPolicy``).
#: Quarantine rows are deterministic *outcomes*: they persist, resume
#: treats them as satisfied, and ranking skips them like any error row.
QUARANTINE_PREFIX = "quarantined: "


def is_worker_crash_error(error: Optional[str]) -> bool:
    """True when an error message marks a transient worker crash."""
    return error is not None and error.startswith(WORKER_FAILURE_PREFIX)


def is_quarantined_error(error: Optional[str]) -> bool:
    """True when an error message marks a quarantined poison payload."""
    return error is not None and error.startswith(QUARANTINE_PREFIX)

#: Cap on persisted trace samples: traces are evidence, not the
#: analysis substrate, so they are decimated down to a plottable size.
MAX_TRACE_SAMPLES = 2048


def content_hash(payload: Mapping[str, Any]) -> str:
    """Deterministic sha256 over a JSON-able mapping (sorted keys)."""
    try:
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=True
        )
    except (TypeError, ValueError) as error:
        raise SpecError(f"payload is not hashable as JSON: {error}") from error
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_hash(spec: Any) -> str:
    """The cache/resume key of a scenario: sha256 of its canonical dict.

    Accepts a :class:`~repro.spec.specs.ScenarioSpec` or its plain-dict
    form.  Two specs hash equal exactly when their serialized forms are
    equal — which is why reproducibility inputs (e.g. the ``seed`` field)
    must live in the spec, not beside it.
    """
    payload = spec.to_dict() if hasattr(spec, "to_dict") else spec
    if not isinstance(payload, Mapping):
        raise SpecError(
            f"spec_hash wants a ScenarioSpec or mapping, got {type(spec).__name__}"
        )
    return content_hash(payload)


def _decimate_trace(trace: Any, max_samples: int) -> Dict[str, List[float]]:
    stride = max(1, int(np.ceil(len(trace) / max_samples))) if max_samples else 1
    return {
        "times": [float(t) for t in trace.times[::stride]],
        "values": [float(v) for v in trace.values[::stride]],
    }


@dataclass(frozen=True)
class RunResult:
    """One scenario run, summarized: the pipeline's unit of exchange.

    Attributes:
        spec_hash: canonical hash of the producing spec (or, for a
            point that never resolved to a spec, of its base and
            overrides) — the dedupe/resume key.
        name: scenario name, for grouping store queries.
        overrides: the sweep-grid overrides this point applied.
        metrics: every registry column (missing ones None) plus
            ``error`` — None unless the point failed.
        traces: optional decimated traces, ``name -> {times, values}``.
        index: position in the producing grid (-1 when standalone).
        spec: the producing :class:`ScenarioSpec` when locally known;
            reattached on load when the record carries a spec payload.
    """

    spec_hash: str
    name: str
    overrides: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    traces: Optional[Dict[str, Dict[str, List[float]]]] = None
    index: int = -1
    spec: Optional[Any] = None

    # -- typed views -----------------------------------------------------

    @property
    def error(self) -> Optional[str]:
        """The failure message, or None for a run that completed."""
        return self.metrics.get(ERROR_COLUMN)

    @property
    def ok(self) -> bool:
        """True when the point ran (its metrics are meaningful)."""
        return self.error is None

    def __getitem__(self, key: str) -> Any:
        """Column access: overrides first, then metrics, then ``name``."""
        if key in self.overrides:
            return self.overrides[key]
        if key in self.metrics:
            return self.metrics[key]
        if key == "name":
            return self.name
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def trace(self, name: str = "vcc"):
        """A captured trace as a :class:`~repro.sim.probes.Trace`."""
        if not self.traces or name not in self.traces:
            raise SpecError(
                f"run {self.name!r} captured no trace {name!r}; available: "
                f"{sorted(self.traces or [])}"
            )
        from repro.sim.probes import Trace

        payload = self.traces[name]
        return Trace(name, payload["times"], payload["values"])

    # -- construction ----------------------------------------------------

    @classmethod
    def from_system_run(
        cls,
        run: Any,
        spec: Any,
        *,
        overrides: Optional[Mapping[str, Any]] = None,
        index: int = -1,
        capture_traces: tuple = (),
        key: Optional[str] = None,
    ) -> "RunResult":
        """Summarize ``run`` of ``spec``, keyed on ``key`` or its hash."""
        traces = None
        if capture_traces:
            traces = {}
            for trace_name in capture_traces:
                if trace_name not in run.traces:
                    raise SpecError(
                        f"run recorded no trace {trace_name!r}; available: "
                        f"{sorted(run.traces)}"
                    )
                traces[trace_name] = _decimate_trace(
                    run.traces[trace_name], MAX_TRACE_SAMPLES
                )
        return cls(
            spec_hash=key if key is not None else spec_hash(spec),
            name=spec.name,
            overrides=dict(overrides or {}),
            metrics=extract_metrics(run, spec),
            traces=traces,
            index=index,
            spec=spec,
        )

    @classmethod
    def failed(
        cls,
        error: str,
        *,
        spec_hash: str,
        name: str = "run",
        overrides: Optional[Mapping[str, Any]] = None,
        index: int = -1,
        spec: Optional[Any] = None,
    ) -> "RunResult":
        """An all-None summary carrying a failure message."""
        from repro.results.metrics import empty_metrics

        metrics = empty_metrics()
        metrics[ERROR_COLUMN] = error
        return cls(
            spec_hash=spec_hash,
            name=name,
            overrides=dict(overrides or {}),
            metrics=metrics,
            index=index,
            spec=spec,
        )

    # -- serialization ---------------------------------------------------

    def to_record(self) -> Dict[str, Any]:
        """The plain-dict persisted form (one JSONL line's payload)."""
        record: Dict[str, Any] = {
            "schema": RECORD_SCHEMA,
            "spec_hash": self.spec_hash,
            "name": self.name,
            "overrides": dict(self.overrides),
            "metrics": dict(self.metrics),
        }
        if self.traces:
            record["traces"] = self.traces
        if self.spec is not None and hasattr(self.spec, "to_dict"):
            record["spec"] = self.spec.to_dict()
        return record

    @classmethod
    def from_record(
        cls, record: Mapping[str, Any], spec: Optional[Any] = None
    ) -> "RunResult":
        """Rebuild from :meth:`to_record` output.

        A caller holding the producing ``spec`` passes it, and the
        record's spec payload is not parsed.  Otherwise the payload is
        revalidated through ``ScenarioSpec.from_dict``; one the current
        code no longer accepts degrades to ``spec=None`` (counted in
        ``repro_store_spec_dropped_total``) rather than poisoning the
        load — the metrics row is still queryable.
        """
        for key in ("spec_hash", "name", "metrics"):
            if key not in record:
                raise SpecError(f"result record is missing {key!r}")
        schema = record.get("schema", RECORD_SCHEMA)
        if schema != RECORD_SCHEMA:
            raise SpecError(
                f"result record schema {schema!r} is not supported "
                f"(expected {RECORD_SCHEMA})"
            )
        if spec is None and "spec" in record:
            from repro.spec.specs import ScenarioSpec

            try:
                spec = ScenarioSpec.from_dict(record["spec"])
            except SpecError:
                obs.counter("repro_store_spec_dropped_total").inc()
        return cls(
            spec_hash=record["spec_hash"],
            name=record["name"],
            overrides=dict(record.get("overrides", {})),
            metrics=dict(record["metrics"]),
            traces=record.get("traces"),
            spec=spec,
        )

    def with_context(self, *, index: int, spec: Any = None) -> "RunResult":
        """A copy re-anchored to a local grid position (resume path)."""
        return dataclasses.replace(
            self, index=index, spec=spec if spec is not None else self.spec
        )

    def columns(self) -> List[str]:
        """Override keys then the full registry column set."""
        return list(self.overrides) + result_columns()
