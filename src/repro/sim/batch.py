"""Batch tasks: many grid points of one topology in one task.

A sweep with ``batch_size`` other than 1 groups its points by
:func:`topology_key` into tasks of up to ``batch_size`` members (see
:func:`repro.spec.runner.group_batch_payloads`).  A batch task amortises
the per-task costs — one worker round-trip, one progress event, one
store transaction — over its members; the members themselves run one
after another through the same per-spec body as per-point tasks
(:func:`repro.spec.runner.run_spec`), so a batched row is
byte-identical to the per-point row of the same spec.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro import obs
from repro.results.run_result import MAX_TRACE_SAMPLES, RunResult
from repro.spec.runner import run_spec
from repro.spec.specs import ScenarioSpec

#: Auto batch size (``batch_size=0``): the most points one task takes.
#: A task returns all its members' records in one message, so the cap
#: bounds that message and keeps a large grid split into several tasks.
AUTO_BATCH_SIZE = 512


def topology_key(spec: ScenarioSpec) -> str:
    """The batching-compatibility key of a spec: its non-numeric skeleton.

    Two grid points may share a batch only when they differ in *numeric*
    parameters alone.  Every string-valued axis — the kernel, the
    strategy kind, the harvester/storage/load/rectifier/converter
    families, the engine and program — stays in the key, so a grid that
    sweeps any of them partitions into separate tasks.
    """

    def strip(value: Any) -> Any:
        if isinstance(value, Mapping):
            return {key: strip(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [strip(item) for item in value]
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return None
        return value

    skeleton = strip(spec.to_dict())
    # to_dict omits default-valued fields; pin the ones that gate
    # batching so presence/absence differences cannot alias.
    skeleton["kernel"] = spec.kernel
    skeleton["stop_on_completion"] = spec.stop_on_completion
    return json.dumps(skeleton, sort_keys=True)


def batchable(spec: ScenarioSpec) -> bool:
    """Whether a spec may join a batch task at all (fast kernel only)."""
    return spec.kernel == "fast"


def run_specs_batched(
    specs: Sequence[ScenarioSpec],
    overrides_list: Optional[Sequence[Dict[str, Any]]] = None,
    capture_traces: Sequence[str] = (),
    max_trace_samples: int = MAX_TRACE_SAMPLES,
) -> List[RunResult]:
    """Run a batch task's members, one :class:`RunResult` per spec.

    Each member runs through :func:`repro.spec.runner.run_spec`, the
    body of a per-point task, so its result — an error row included —
    is the one a per-point run of the same spec produces.
    """
    if overrides_list is None:
        overrides_list = [{} for _ in specs]
    t0 = time.monotonic()
    with obs.span("batch.run", specs=len(specs)):
        results = [
            run_spec(spec, dict(overrides), capture_traces,
                     max_trace_samples)
            for spec, overrides in zip(specs, overrides_list)
        ]
    if obs.obs_enabled():
        obs.counter("repro_batch_members_total").inc(len(specs))
        obs.histogram("repro_batch_run_seconds").observe(
            time.monotonic() - t0
        )
    return results
