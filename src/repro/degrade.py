"""``repro.degrade`` — the explicit, observable degradation ladder.

The stack has always degraded gracefully — chunks fall back from the
runtime-compiled C loop to the Python loops, the warm pool to
in-process serial execution when multiprocessing is broken — but those
fallbacks were implicit: a slow run looked identical to a healthy one
until someone profiled it.  This module names each ladder and makes every transition
observable.

Each **domain** is one independent ladder of modes, best first::

    chunk.kernel   c -> python       (fast-kernel chunks)
    executor       pool -> serial    (payload execution)

``chunk.kernel`` is reported once per run (when the rail first
chunks), never per chunk.

Components report the mode they actually used via :func:`report`;
the module keeps the current rung per domain, exports it as the
``repro_degrade_level{domain=...}`` gauge (0 = full service, higher =
more degraded), counts transitions in
``repro_degrade_transitions_total{domain=..., mode=...}``, and drops an
instant event on the trace timeline when the rung *changes* — steady
state costs a dict lookup and an equality check per report.

:func:`snapshot` feeds the service ``/readyz`` payload so an operator
sees "running, but on the Python chunk loops" without reading
profiles.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro import obs

#: Ladder definition: domain -> modes ordered best (level 0) to worst.
LADDERS: Dict[str, tuple] = {
    "chunk.kernel": ("c", "python"),
    "executor": ("pool", "serial"),
}

_lock = threading.Lock()
#: Current mode per domain; a domain absent here has not reported yet.
_current: Dict[str, str] = {}


def level_of(domain: str, mode: str) -> int:
    """The rung index of ``mode`` on ``domain``'s ladder (0 = best)."""
    ladder = LADDERS.get(domain)
    if ladder is None or mode not in ladder:
        return 0
    return ladder.index(mode)


def report(domain: str, mode: str) -> None:
    """Record that ``domain`` is currently serving in ``mode``.

    Idempotent and cheap in steady state; only a *change* of rung
    updates the gauge, bumps the transition counter and emits a trace
    instant.
    """
    with _lock:
        if _current.get(domain) == mode:
            return
        _current[domain] = mode
    if not obs.obs_enabled():
        return
    level = level_of(domain, mode)
    obs.gauge("repro_degrade_level", domain=domain).set(level)
    obs.counter(
        "repro_degrade_transitions_total", domain=domain, mode=mode
    ).inc()
    obs.instant("degrade.transition", domain=domain, mode=mode, level=level)


def current(domain: str) -> Optional[str]:
    """The mode ``domain`` last reported (None before first report)."""
    with _lock:
        return _current.get(domain)


def snapshot() -> Dict[str, Dict[str, object]]:
    """Every reporting domain with its current mode and rung level."""
    with _lock:
        modes = dict(_current)
    return {
        domain: {"mode": mode, "level": level_of(domain, mode)}
        for domain, mode in sorted(modes.items())
    }


def reset() -> None:
    """Forget every reported mode (tests)."""
    with _lock:
        _current.clear()
