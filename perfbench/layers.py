"""Which entry points the traced run wraps, and the per-layer metrics.

:func:`install` wraps each layer's public entry points in one process
(the benchmark's, or the served one through ``serve_main.py``).  Work
done inside pool workers is invisible to those wrappers; it is read
from the program's own instrument registry (``repro.obs``, also served
at ``GET /metrics``) as before/after deltas by :func:`instrument_totals`.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Any, Dict, List, Mapping, Tuple

from tracer import Tracer

#: (module, class or None, attribute, span name).
WRAPPED: Tuple[Tuple[str, Any, str, str], ...] = (
    ("repro.spec.specs", "ScenarioSpec", "build", "spec.build"),
    ("repro.spec.specs", "ScenarioSpec", "with_overrides", "spec.expand"),
    ("repro.spec.runner", None, "spec_hash", "spec.expand"),
    ("repro.sim.engine", "Simulator", "run", "sim.run"),
    ("repro.power.rail", "SupplyRail", "step_chunk", "power.step_chunk"),
    ("repro.mcu.machine", "Machine", "run", "mcu.run"),
    ("repro.sim.batch", None, "run_specs_batched", "batch.run"),
    ("repro.spec.runner", "WarmPool", "run", "pool.run"),
    ("repro.results.store", "ResultStore", "add", "store.add"),
    ("repro.results.store", "ResultStore", "get", "store.query"),
    ("repro.results.store", "ResultStore", "best", "store.query"),
    ("repro.results.store", "ResultStore", "select", "store.query"),
    ("repro.explore.driver", "ExplorationDriver", "run", "explore.run"),
    ("repro.serve.client", "ServiceClient", "_json", "serve.http"),
)


class _TimedExit:
    """Wraps a context manager so that its exit is one span."""

    def __init__(self, inner: Any, tracer: Tracer, name: str):
        self.inner, self.tracer, self.name = inner, tracer, name

    def __enter__(self) -> Any:
        return self.inner.__enter__()

    def __exit__(self, *exc_info: Any) -> Any:
        with self.tracer.span(self.name):
            return self.inner.__exit__(*exc_info)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`WRAPPED`, plus the store commit."""
    for module_name, class_name, attr, name in WRAPPED:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        on_result = None
        if name == "mcu.run":
            def on_result(result: Any) -> None:
                tracer.note("mcu.instructions", result.instructions)
        elif name == "explore.run":
            def on_result(result: Any) -> None:
                tracer.note("explore.evaluations", len(result))
        tracer.wrap(owner, attr, name, on_result=on_result)
    from repro.results.store import ResultStore

    batch = ResultStore.batch

    def timed_batch(store: Any) -> _TimedExit:
        return _TimedExit(batch(store), tracer, "store.commit")

    tracer.patch(ResultStore, "batch", timed_batch)


def instrument_totals(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten a ``registry.snapshot()`` into ``name{label=value}`` sums.

    Counters keep the one label the benchmark reads (batch pass path,
    pool task mode); histograms contribute ``name.sum`` and
    ``name.count``.
    """
    totals: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for counter in snapshot.get("counters", ()):
        labels = counter.get("labels") or {}
        add(counter["name"], counter["value"])
        for label in ("path", "mode"):
            if label in labels:
                add(f"{counter['name']}{{{label}={labels[label]}}}",
                    counter["value"])
    for hist in snapshot.get("histograms", ()):
        add(hist["name"] + ".sum", hist["sum"])
        add(hist["name"] + ".count", hist["count"])
    return totals


def delta(after: Mapping[str, float],
          before: Mapping[str, float]) -> Dict[str, float]:
    """``after - before`` per key (keys missing before count as 0)."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


#: Per-layer metrics: name -> unit.  Order is the report order.
PER_LAYER: Dict[str, str] = {
    "mcu.run_s": "s", "mcu.run_calls": "count",
    "mcu.instructions": "count", "mcu.instr_per_s": "1/s",
    "batch.run_s": "s", "batch.members": "count", "batch.passes": "count",
    "batch.settled": "count", "batch.diverged": "count",
    "batch.pass.c": "count", "batch.pass.numpy": "count",
    "batch.pass.numpy-general": "count", "batch.ckernel": "count",
    "sim.run_s": "s", "sim.steps": "count", "sim.chunked_frac": "ratio",
    "sim.fallback_steps": "count", "power.step_chunk_s": "s",
    "power.step_chunk_calls": "count",
    "spec.build_s": "s", "spec.builds": "count", "spec.expand_s": "s",
    "pool.run_s": "s", "pool.tasks": "count", "pool.chunk_wait_s": "s",
    "pool.worker_busy_s": "s", "pool.retries": "count",
    "pool.serial_fallbacks": "count",
    "store.add_s": "s", "store.rows_appended": "count",
    "store.commit_s": "s", "store.query_s": "s",
    "store.dedupe_hits": "count",
    "serve.submit_ms_p50": "ms", "serve.queue_wait_s": "s",
    "serve.job_run_s": "s", "serve.http_s": "s", "serve.requests": "count",
    "explore.run_s": "s", "explore.evaluations": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer(traces: List[Mapping[str, Any]], inst: Mapping[str, float],
              jobs: Mapping[str, float], ckernel: bool,
              overhead_frac: float) -> Dict[str, float]:
    """Assemble every :data:`PER_LAYER` value.

    ``traces`` are :meth:`Tracer.snapshot` dicts (one per process that
    ran wrappers), ``inst`` an :func:`instrument_totals` delta over the
    traced phase, ``jobs`` the client-side job-record sums.
    """
    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    sums: Dict[str, float] = {}
    submit_ms: List[float] = []
    for trace in traces:
        for source, target in ((trace["self_s"], self_s),
                               (trace["calls"], calls),
                               (trace["sums"], sums)):
            for key, value in source.items():
                target[key] = target.get(key, 0.0) + value
        submit_ms.extend(trace["samples"].get("serve.submit_ms", ()))

    def i(name: str) -> float:
        return inst.get(name, 0.0)

    steps = i("repro_kernel_steps_total")
    mcu_s = self_s.get("mcu.run", 0.0)
    return {
        "mcu.run_s": mcu_s,
        "mcu.run_calls": calls.get("mcu.run", 0.0),
        "mcu.instructions": sums.get("mcu.instructions", 0.0),
        "mcu.instr_per_s": (
            sums.get("mcu.instructions", 0.0) / mcu_s if mcu_s else 0.0
        ),
        "batch.run_s": self_s.get("batch.run", 0.0),
        "batch.members": i("repro_batch_members_total"),
        "batch.passes": i("repro_batch_passes_total"),
        "batch.settled": i("repro_batch_settled_total"),
        "batch.diverged": i("repro_batch_diverged_total"),
        "batch.pass.c": i("repro_batch_pass_path_total{path=c}"),
        "batch.pass.numpy": i("repro_batch_pass_path_total{path=numpy}"),
        "batch.pass.numpy-general": i(
            "repro_batch_pass_path_total{path=numpy-general}"
        ),
        "batch.ckernel": 1.0 if ckernel else 0.0,
        "sim.run_s": self_s.get("sim.run", 0.0),
        "sim.steps": steps,
        "sim.chunked_frac": (
            i("repro_kernel_chunked_steps_total") / steps if steps else 0.0
        ),
        "sim.fallback_steps": i("repro_kernel_fallback_steps_total"),
        "power.step_chunk_s": self_s.get("power.step_chunk", 0.0),
        "power.step_chunk_calls": calls.get("power.step_chunk", 0.0),
        "spec.build_s": self_s.get("spec.build", 0.0),
        "spec.builds": calls.get("spec.build", 0.0),
        "spec.expand_s": self_s.get("spec.expand", 0.0),
        "pool.run_s": self_s.get("pool.run", 0.0),
        "pool.tasks": i("repro_pool_tasks_total{mode=pool}"),
        "pool.chunk_wait_s": i("repro_pool_chunk_wait_seconds.sum"),
        "pool.worker_busy_s": i("repro_pool_worker_busy_seconds.sum"),
        "pool.retries": i("repro_pool_retries_total"),
        "pool.serial_fallbacks": i("repro_pool_serial_fallback_total"),
        "store.add_s": self_s.get("store.add", 0.0),
        "store.rows_appended": i("repro_store_rows_appended_total"),
        "store.commit_s": self_s.get("store.commit", 0.0),
        "store.query_s": self_s.get("store.query", 0.0),
        "store.dedupe_hits": i("repro_store_dedupe_hits_total"),
        "serve.submit_ms_p50": (
            statistics.median(submit_ms) if submit_ms else 0.0
        ),
        "serve.queue_wait_s": jobs.get("queue_wait_s", 0.0),
        "serve.job_run_s": jobs.get("run_s", 0.0),
        "serve.http_s": self_s.get("serve.http", 0.0),
        "serve.requests": calls.get("serve.http", 0.0),
        "explore.run_s": self_s.get("explore.run", 0.0),
        "explore.evaluations": sums.get("explore.evaluations", 0.0),
        "trace.overhead_frac": overhead_frac,
    }
