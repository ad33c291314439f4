"""``repro.faults`` — deterministic, seedable fault injection.

Chaos testing only works when the chaos is reproducible.  This module
is a process-wide registry of **named injection points** — places in
the stack that have agreed to fail on demand — armed with a per-point
probability and a seed.  Whether a given call site fires is a pure
function of ``(seed, point, key)``: the roll is the leading 64 bits of
``sha256(f"{seed}|{point}|{key}")`` mapped to ``[0, 1)`` and compared
against the point's probability.  Two runs with the same seed and the
same keys inject *exactly* the same faults, so a chaos failure found in
CI replays locally, byte for byte.

Injection points
----------------

======================== ==================================================
``worker.crash``         a pool/serial worker raises before touching the
                         payload (exercises retry + quarantine)
``worker.hang``          a worker sleeps ``hang_s`` seconds (exercises
                         deadlines + hung-worker reaping; only reapable
                         under pool execution)
``store.append_fail``    a result-store append raises
                         :class:`InjectedIOError` (an ``OSError``)
``store.torn_write``     a result-store append writes a *partial* record
                         and then raises — simulating death mid-write
                         (exercises torn-tail recovery on reopen)
``ckernel.compile_fail`` the runtime C-kernel build reports failure
                         (exercises the compile circuit breaker and the
                         c → numpy degradation rung)
``io.slow``              an I/O path sleeps ``slow_s`` seconds before
                         proceeding (latency, not failure)
======================== ==================================================

Arming
------

Via environment (inherited by spawned pool workers)::

    REPRO_FAULTS="worker.crash:0.2,io.slow:0.1" \
    REPRO_FAULTS_SEED=7 repro sweep ...

or programmatically (tests, the ``repro chaos`` command)::

    with faults.active({"worker.crash": 0.3}, seed=7):
        ...

Pool workers are separate processes: the warm pool also ships the
current :func:`state_snapshot` with every chunk and the worker
:func:`install`\\ s it, so programmatic arming reaches workers that were
spawned before the faults were configured.

Disarmed (the default), every helper is one attribute check — the
module costs nothing in production paths.  Every fired injection bumps
``repro_faults_injected_total{point=...}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional

from repro import obs
from repro.errors import ReproError

#: The named injection points call sites may roll against.
POINTS = (
    "worker.crash",
    "worker.hang",
    "store.append_fail",
    "store.torn_write",
    "ckernel.compile_fail",
    "io.slow",
)

#: Environment variables the registry arms itself from at import.
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"
ENV_HANG_S = "REPRO_FAULTS_HANG_S"
ENV_SLOW_S = "REPRO_FAULTS_SLOW_S"

#: How long a ``worker.hang`` injection sleeps.  Long enough that any
#: sane task deadline expires first (the supervisor reaps the sleeping
#: worker), short enough that an *unsupervised* hang still ends.
DEFAULT_HANG_S = 30.0

#: How long an ``io.slow`` injection sleeps — latency, not death.
DEFAULT_SLOW_S = 0.05

#: Points that raise an :class:`InjectedIOError` (an ``OSError``) so
#: call sites with OS-level error handling exercise it.
_IO_POINTS = frozenset({"store.append_fail"})


class FaultInjected(Exception):
    """An injected fault fired.  Never raised when disarmed."""


class InjectedIOError(FaultInjected, OSError):
    """An injected fault presenting as an ``OSError`` (I/O failure)."""


class _FaultState:
    """One armed configuration (immutable once installed)."""

    __slots__ = ("probabilities", "seed", "hang_s", "slow_s")

    def __init__(
        self,
        probabilities: Mapping[str, float],
        seed: int,
        hang_s: float,
        slow_s: float,
    ):
        self.probabilities = dict(probabilities)
        self.seed = int(seed)
        self.hang_s = float(hang_s)
        self.slow_s = float(slow_s)


#: ``None`` = disarmed (the production state).
_state: Optional[_FaultState] = None


def parse_spec(text: str) -> Dict[str, float]:
    """Parse ``"point:prob,point:prob,..."`` into a probability map.

    The :data:`ENV_SPEC` / ``repro chaos --faults`` syntax.  Unknown
    point names and probabilities outside ``[0, 1]`` are configuration
    errors, not silently ignored chaos.
    """
    probabilities: Dict[str, float] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        point, sep, raw = entry.partition(":")
        point = point.strip()
        if not sep:
            raise ReproError(
                f"fault spec entry {entry!r} wants point:probability"
            )
        if point not in POINTS:
            raise ReproError(
                f"unknown fault point {point!r}; known: {', '.join(POINTS)}"
            )
        try:
            probability = float(raw)
        except ValueError:
            raise ReproError(
                f"fault point {point!r} has non-numeric probability {raw!r}"
            ) from None
        if not 0.0 <= probability <= 1.0:
            raise ReproError(
                f"fault point {point!r} probability {probability} is "
                "outside [0, 1]"
            )
        probabilities[point] = probability
    return probabilities


def configure(
    probabilities: Mapping[str, float],
    seed: int = 0,
    hang_s: Optional[float] = None,
    slow_s: Optional[float] = None,
) -> None:
    """Arm the registry with per-point probabilities and a seed."""
    for point in probabilities:
        if point not in POINTS:
            raise ReproError(
                f"unknown fault point {point!r}; known: {', '.join(POINTS)}"
            )
    global _state
    _state = _FaultState(
        probabilities,
        seed=seed,
        hang_s=DEFAULT_HANG_S if hang_s is None else hang_s,
        slow_s=DEFAULT_SLOW_S if slow_s is None else slow_s,
    )


def clear() -> None:
    """Disarm every injection point (the production state)."""
    global _state
    _state = None


def is_armed() -> bool:
    """True when any injection point is configured."""
    return _state is not None


@contextmanager
def active(
    probabilities: Mapping[str, float],
    seed: int = 0,
    hang_s: Optional[float] = None,
    slow_s: Optional[float] = None,
) -> Iterator[None]:
    """Arm for the duration of a ``with`` block, then restore."""
    global _state
    previous = _state
    configure(probabilities, seed=seed, hang_s=hang_s, slow_s=slow_s)
    try:
        yield
    finally:
        _state = previous


def state_snapshot() -> Optional[Dict[str, Any]]:
    """The armed configuration as a picklable dict (None = disarmed).

    Shipped to pool workers with each task chunk so programmatic arming
    (tests, ``repro chaos``) reaches worker processes that inherited a
    disarmed environment.
    """
    if _state is None:
        return None
    return {
        "probabilities": dict(_state.probabilities),
        "seed": _state.seed,
        "hang_s": _state.hang_s,
        "slow_s": _state.slow_s,
    }


def install(snapshot: Optional[Mapping[str, Any]]) -> None:
    """Adopt a :func:`state_snapshot` (worker side of the shipment)."""
    global _state
    if snapshot is None:
        _state = None
        return
    _state = _FaultState(
        snapshot["probabilities"],
        seed=snapshot["seed"],
        hang_s=snapshot["hang_s"],
        slow_s=snapshot["slow_s"],
    )


def _roll(state: _FaultState, point: str, key: str) -> float:
    digest = hashlib.sha256(
        f"{state.seed}|{point}|{key}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def fire(point: str, key: str) -> bool:
    """Roll the injection point; True when the fault should fire.

    Deterministic in ``(seed, point, key)``.  A firing roll bumps
    ``repro_faults_injected_total{point=...}`` and, when a trace is
    being captured, drops an instant event on the timeline.
    """
    state = _state
    if state is None:
        return False
    probability = state.probabilities.get(point)
    if not probability:
        return False
    if probability < 1.0 and _roll(state, point, key) >= probability:
        return False
    obs.counter("repro_faults_injected_total", point=point).inc()
    obs.instant("fault.injected", point=point, key=key)
    return True


def inject(point: str, key: str, message: Optional[str] = None) -> None:
    """Raise if the injection point fires (no-op when disarmed).

    ``store.append_fail`` raises :class:`InjectedIOError` (an
    ``OSError``, so OS-level error handling sees a realistic failure);
    everything else raises plain :class:`FaultInjected`.
    """
    if not fire(point, key):
        return
    text = message or f"injected fault {point} (key {key!r})"
    if point in _IO_POINTS:
        raise InjectedIOError(text)
    raise FaultInjected(text)


def maybe_hang(key: str) -> bool:
    """Sleep ``hang_s`` seconds if ``worker.hang`` fires.

    Under pool execution the supervisor's task deadline expires first
    and the sleeping worker is reaped; under serial execution the sleep
    runs its course (hangs are only *reapable* across a process
    boundary), which is why chaos runs exercising hangs use the pool.
    """
    state = _state
    if state is None or not fire("worker.hang", key):
        return False
    time.sleep(state.hang_s)
    return True


def maybe_delay(key: str) -> bool:
    """Sleep ``slow_s`` seconds if ``io.slow`` fires (latency fault)."""
    state = _state
    if state is None or not fire("io.slow", key):
        return False
    time.sleep(state.slow_s)
    return True


def payload_key(
    payload: Mapping[str, Any], base_hash: Optional[str] = None
) -> str:
    """A stable roll key for a worker task payload.

    Derived from the scenario the payload resolves to — the base's
    ``base_hash`` plus the payload's ``spec_overrides`` — and its
    supervision ``fault_attempt`` counter, so a payload whose roll
    fires on attempt 0 re-rolls on attempt 1 (a *transient* injected
    crash), while a given ``(payload, attempt)`` pair always rolls the
    same way run over run.
    """
    scenario = {"base": base_hash, "overrides": payload.get("spec_overrides")}
    return json.dumps(
        [scenario, payload.get("fault_attempt", 0)],
        sort_keys=True,
        default=str,
    )


def _load_env() -> None:
    spec = os.environ.get(ENV_SPEC)
    if not spec:
        return
    configure(
        parse_spec(spec),
        seed=int(os.environ.get(ENV_SEED, "0")),
        hang_s=float(os.environ.get(ENV_HANG_S, DEFAULT_HANG_S)),
        slow_s=float(os.environ.get(ENV_SLOW_S, DEFAULT_SLOW_S)),
    )


_load_env()
