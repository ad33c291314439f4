"""repro.results: the unified results pipeline.

Three pieces (see DESIGN.md, "Results pipeline"):

* :mod:`repro.results.metrics` — the string-keyed metric-extractor
  registry: each layer contributes result columns via
  ``@register_metric`` instead of the sweep runner hard-coding them.
* :mod:`repro.results.run_result` — the frozen, typed :class:`RunResult`
  (spec hash + overrides + metrics + optional decimated traces) every
  analysis tool consumes, and the canonical :func:`spec_hash`.
* :mod:`repro.results.store` — :class:`ResultStore`: hash-keyed columnar
  queries with pluggable persistence, partial-write recovery and shard
  merging; the substrate of resumable sweeps.
* :mod:`repro.results.backends` — the :class:`StoreBackend` protocol and
  its implementations: append-only JSONL (portable default) and the
  sharded columnar ``.colstore`` format (fleet-scale analytics).
* :mod:`repro.results.durable` — the fsynced append, replace and
  truncate, and the JSONL torn-tail reader, that the backends and the
  service's job journal write and read through.

Only the registry loads eagerly — the rest follows the lazy-init pattern
of :mod:`repro.spec` so component modules can register extractors at
class-definition time without cycles.
"""

from repro.results.metrics import (
    ERROR_COLUMN,
    empty_metrics,
    ensure_extractors,
    extract_metrics,
    extractor_names,
    metric_columns,
    register_metric,
    result_columns,
)

_LAZY = {
    "RunResult": "repro.results.run_result",
    "spec_hash": "repro.results.run_result",
    "content_hash": "repro.results.run_result",
    "RECORD_SCHEMA": "repro.results.run_result",
    "ResultStore": "repro.results.store",
    "rankable_results": "repro.results.store",
    "StoreBackend": "repro.results.backends",
    "JsonlBackend": "repro.results.backends",
    "ColumnarBackend": "repro.results.backends",
    "MemoryBackend": "repro.results.backends",
    "make_backend": "repro.results.backends",
    "COLUMNAR_SUFFIX": "repro.results.backends",
}

__all__ = [
    "ERROR_COLUMN",
    "register_metric",
    "ensure_extractors",
    "extract_metrics",
    "extractor_names",
    "metric_columns",
    "result_columns",
    "empty_metrics",
    *_LAZY,
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.results' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)
