"""Compatibility shim: run several specs one after another.

Every grid point is its own task (see :func:`repro.spec.runner.evaluate`);
nothing in the package calls this any more.  It stays only because
``perfbench/layers.py`` still wraps it by name.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.results.run_result import MAX_TRACE_SAMPLES, RunResult
from repro.spec.runner import run_spec
from repro.spec.specs import ScenarioSpec


def run_specs_batched(
    specs: Sequence[ScenarioSpec],
    overrides_list: Optional[Sequence[Dict[str, Any]]] = None,
    capture_traces: Sequence[str] = (),
    max_trace_samples: int = MAX_TRACE_SAMPLES,
) -> List[RunResult]:
    """One :func:`repro.spec.runner.run_spec` result per spec."""
    overrides_list = overrides_list or [{} for _ in specs]
    return [
        run_spec(spec, dict(overrides), capture_traces, max_trace_samples)
        for spec, overrides in zip(specs, overrides_list)
    ]
