"""The simulation-layer metric extractor: run length and V_cc envelope.

Component layers contribute their own extractors next to the code that
owns the counters (:mod:`repro.transient.base`, :mod:`repro.power.rail`,
:mod:`repro.storage.base`, :mod:`repro.mcu.engine`,
:mod:`repro.neutral.power_neutral`); the columns every run has — the
clock and the oscilloscope channel — live here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import SimulationError
from repro.results.metrics import register_metric


@register_metric("trace", columns=("t_end", "vcc_min", "vcc_max"), order=0)
def _trace_metrics(run: Any, spec: Optional[Any]) -> Dict[str, Any]:
    """Run length and the rail's V_cc envelope
    (:class:`~repro.power.rail.RailStats`)."""
    stats = run.rail.stats
    if stats.vcc_min > stats.vcc_max:
        length = (f"duration={spec.duration!r} s at dt={spec.dt!r} s"
                  if spec is not None else f"t_end={run.t_end!r} s")
        raise SimulationError(
            f"no V_cc sample: {length} runs fewer than "
            f"decimate={stats.vcc_every} steps"
        )
    return {
        "t_end": run.t_end,
        "vcc_min": float(stats.vcc_min),
        "vcc_max": float(stats.vcc_max),
    }
