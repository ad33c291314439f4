"""Parallel, resumable execution of scenario-spec parameter grids.

:class:`SweepRunner` expands a grid over a base :class:`ScenarioSpec`,
runs every point — in parallel across processes by default, since frozen
plain-data specs pickle for free — and collects one typed
:class:`~repro.results.run_result.RunResult` per point into a tabular
:class:`SweepResult`.

Results flow through the unified pipeline (:mod:`repro.results`): the
summary columns are whatever the metric-extractor registry contributes,
not a hard-coded list, and pointing the runner at a persistent
:class:`~repro.results.store.ResultStore` makes sweeps *resumable* — a
re-run skips every grid point whose spec hash the store already holds,
so an interrupted sweep recomputes only the missing points, and shards
computed on separate machines merge by hash.

The workers (:func:`run_point_payload` / :func:`run_scenario_payload`)
are module-level functions so they pickle under every
``multiprocessing`` start method; they take and return plain dicts,
keeping the inter-process traffic tiny regardless of how many probe
samples a run records.

Execution goes through a *warm-worker* pool (:class:`WarmPool`): worker
processes initialise once from a shared base spec, tasks ship only
override dicts (not full pickled spec payloads), and submission is
chunked so a large grid costs a handful of round-trips instead of one
per point.  The pool object survives across batches — an exploration
driver reuses the same warm workers for every optimizer round.
"""

from __future__ import annotations

import atexit
import math
import os
import random
import sys
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import degrade, faults, obs
from repro.errors import SpecError
from repro.results.metrics import empty_metrics, result_columns
from repro.results.run_result import (
    MAX_TRACE_SAMPLES,
    QUARANTINE_PREFIX,
    WORKER_FAILURE_PREFIX,
    RunResult,
    spec_hash,
)
from repro.results.store import ResultStore
from repro.spec.specs import ScenarioSpec, expand_grid


def __getattr__(name: str):
    # Back-compat: these used to be hand-maintained module constants and
    # drifted apart; both now derive from the metric-extractor registry.
    if name == "RESULT_COLUMNS":
        return result_columns()
    if name == "_EMPTY_SUMMARY":
        return empty_metrics()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_scenario_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: build, run and summarise one bare scenario.

    Takes/returns plain dicts so it is picklable and cheap to ship.
    Framework errors (an infeasible grid point, e.g. a capacitance too
    small for its strategy's Eq. (4) threshold) come back as the
    summary's ``error`` field instead of killing the whole sweep.
    """
    return run_point_payload({"spec": payload})["metrics"]


#: The shared base spec a warm worker resolves override-only tasks
#: against: parsed once per worker process (or per serial batch), not
#: once per task.  ``None`` until :func:`_install_shared_base` runs.
_SHARED_BASE: Optional[ScenarioSpec] = None
#: Its raw dict form (for failure keys), kept in lockstep.
_SHARED_BASE_DICT: Optional[Dict[str, Any]] = None


def _install_shared_base(base_dict: Optional[Dict[str, Any]]) -> None:
    """Worker initializer: parse the shared base spec exactly once."""
    global _SHARED_BASE, _SHARED_BASE_DICT
    _SHARED_BASE_DICT = base_dict
    _SHARED_BASE = (
        ScenarioSpec.from_dict(base_dict) if base_dict is not None else None
    )


def _task_failure_key(
    payload: Dict[str, Any], base_spec: Optional[Dict[str, Any]]
) -> str:
    """The one error-row key for a task that never resolved to a spec.

    Shared by the in-worker resolution-failure path and the
    worker-crash fallback so both produce the same key for the same
    payload — a stored error row under one scheme must be findable by
    the other.
    """
    if "spec" in payload:
        return spec_hash(payload["spec"])
    from repro.results.run_result import content_hash

    return content_hash({
        "base": spec_hash(base_spec) if base_spec is not None else None,
        "overrides": payload.get("spec_overrides"),
    })


def _payload_spec(payload: Dict[str, Any]) -> ScenarioSpec:
    """Resolve a task payload to its runnable spec.

    A payload either carries a full ``"spec"`` dict (self-contained
    tasks) or a ``"spec_overrides"`` dict applied to the worker's shared
    base spec (warm-worker tasks).  Both resolutions are deterministic,
    so the resulting spec — and therefore its hash, the results
    pipeline's cache key — is identical to the one the submitting
    process computed.
    """
    if "spec" in payload:
        return ScenarioSpec.from_dict(payload["spec"])
    if _SHARED_BASE is None:
        raise SpecError(
            "override-only task but no shared base spec was installed"
        )
    return _SHARED_BASE.with_overrides(payload["spec_overrides"])


def _run_batch_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker body for a whole-batch task: M grid points in one payload.

    Members resolve against the shared base spec exactly like
    override-only point tasks, then run together through the batched
    SoA kernel (:func:`repro.sim.batch.run_specs_batched`) — identical
    spec hashes, metrics and traces per member, one worker round-trip
    for the whole batch.  Returns ``{"batch": [records...], "stats":
    {...}}`` with one record per member, in member order.
    """
    from repro.sim.batch import BatchStats, run_specs_batched

    member_tasks = payload["spec_overrides_batch"]
    overrides_list = payload.get("overrides_batch") or member_tasks
    records: List[Optional[Dict[str, Any]]] = [None] * len(member_tasks)
    specs: List[ScenarioSpec] = []
    spec_overrides: List[Dict[str, Any]] = []
    positions: List[int] = []
    for index, task in enumerate(member_tasks):
        try:
            spec = _payload_spec({"spec_overrides": task})
        except Exception as error:
            records[index] = RunResult.failed(
                f"{type(error).__name__}: {error}",
                spec_hash=_task_failure_key(
                    {"spec_overrides": task}, _SHARED_BASE_DICT
                ),
                overrides=dict(overrides_list[index]),
            ).to_record()
            continue
        specs.append(spec)
        spec_overrides.append(dict(overrides_list[index]))
        positions.append(index)
    stats = BatchStats()
    results = run_specs_batched(
        specs,
        overrides_list=spec_overrides,
        capture_traces=tuple(payload.get("traces", ())),
        max_trace_samples=payload.get(
            "max_trace_samples", MAX_TRACE_SAMPLES
        ),
        stats=stats,
    )
    for position, result in zip(positions, results):
        records[position] = result.to_record()
    return {"batch": records, "stats": stats.to_dict()}


def run_point_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: one grid point in, one result record out.

    ``payload`` is ``{"spec": <ScenarioSpec dict>, "overrides": {...},
    "traces": [probe names], "max_trace_samples": int}`` — or, for
    warm-worker tasks, ``"spec_overrides"`` (applied to the shared base
    spec) in place of ``"spec"``; the return value is a
    :meth:`RunResult.to_record` dict.

    A *batch* payload (``"spec_overrides_batch"``: a list of override
    dicts) runs all its members through the batched SoA kernel in one
    task and returns ``{"batch": [records...], "stats": {...}}``
    instead (see :func:`_run_batch_payload`).
    """
    if faults.is_armed():
        # Chaos harness: an injected crash raises out of the worker (the
        # pool pins the chunk as retryable crash rows), an injected hang
        # sleeps until the supervisor's task deadline reaps this worker.
        fault_key = faults.payload_key(payload)
        faults.inject("worker.crash", fault_key, "injected worker crash")
        faults.maybe_hang(fault_key)
    if "spec_overrides_batch" in payload:
        return _run_batch_payload(payload)
    overrides = dict(payload.get("overrides", {}))
    try:
        spec = _payload_spec(payload)
    except Exception as error:
        return RunResult.failed(
            f"{type(error).__name__}: {error}",
            spec_hash=_task_failure_key(payload, _SHARED_BASE_DICT),
            overrides=overrides,
        ).to_record()
    try:
        system = spec.build()
        run = system.run(spec.duration, decimate=spec.decimate)
        result = RunResult.from_system_run(
            run,
            spec,
            overrides=overrides,
            capture_traces=tuple(payload.get("traces", ())),
            max_trace_samples=payload.get(
                "max_trace_samples", MAX_TRACE_SAMPLES
            ),
        )
    except Exception as error:  # one bad point must not kill the sweep
        result = RunResult.failed(
            f"{type(error).__name__}: {error}",
            spec_hash=spec_hash(spec),
            name=spec.name,
            overrides=overrides,
            spec=spec,
        )
    return result.to_record()


#: Back-compat alias: a sweep point and a standalone run share one type.
PointResult = RunResult


@dataclass(frozen=True)
class BatchProgress:
    """One observability event: how a batch of evaluations was satisfied.

    Emitted by :meth:`SweepRunner.run` (once — a sweep is one batch) and
    by :class:`repro.explore.driver.ExplorationDriver` (once per
    optimizer batch), so long runs stay legible: every event says how
    many points were actually computed, how many came out of the result
    store for free, and how many pinned error rows.

    Attributes:
        label: the producing sweep/exploration (the base scenario name).
        batch: 1-based batch index within the run.
        computed: points executed by a worker in this batch.
        cached: points satisfied from the result store in this batch.
        errors: points in this batch whose row carries an error.
        total: cumulative points satisfied so far across the run.
        members: points that ran through the batched SoA kernel (None
            when batching was off for this batch).
        passes: vectorized passes the batched kernel executed.
        advanced: member-steps advanced in chunks (vectorized passes and
            scalar lane chunks).
        settled: member-steps settled scalar-side at event boundaries.
        diverged: members that ran outside the batch, through the
            per-scenario path.
        scalar_chunks: chunks lanes advanced one at a time through the
            scalar chunk loop (outside any vectorized pass).
    """

    label: str
    batch: int
    computed: int
    cached: int
    errors: int
    total: int
    members: Optional[int] = None
    passes: Optional[int] = None
    advanced: Optional[int] = None
    settled: Optional[int] = None
    diverged: Optional[int] = None
    scalar_chunks: Optional[int] = None

    def describe(self) -> str:
        """The canonical one-line rendering of this event."""
        line = (
            f"[{self.label}] batch {self.batch}: "
            f"{self.computed} computed, {self.cached} cached, "
            f"{self.errors} error(s); {self.total} total"
        )
        if self.members is not None:
            line += (
                f" [batched: {self.members} members, "
                f"{self.passes or 0} passes, "
                f"{self.scalar_chunks or 0} scalar chunks, "
                f"{self.advanced or 0} advanced, "
                f"{self.settled or 0} settled, "
                f"{self.diverged or 0} diverged]"
            )
        return line


#: The progress-hook signature accepted by runners and drivers.
ProgressHook = Callable[[BatchProgress], None]


def log_progress(event: BatchProgress) -> None:
    """A ready-made progress hook: log through :mod:`logging`.

    Attach with ``runner.run(progress=log_progress)`` (or the driver
    equivalent) and configure the ``repro.progress`` logger to taste.
    """
    import logging

    logging.getLogger("repro.progress").info("%s", event.describe())

# WORKER_FAILURE_PREFIX / QUARANTINE_PREFIX live in
# repro.results.run_result (the results layer classifies rows too) and
# are re-exported here, their historical home.


def _is_worker_crash(result: Optional[RunResult]) -> bool:
    return (
        result is not None
        and result.error is not None
        and result.error.startswith(WORKER_FAILURE_PREFIX)
    )


def is_quarantined(result: Optional[RunResult]) -> bool:
    """True for a row pinned by poison-payload quarantine.

    Quarantine rows are deterministic outcomes: persisted, treated as
    satisfied on resume, and skipped by best/pareto ranking like any
    other error row.
    """
    return (
        result is not None
        and result.error is not None
        and result.error.startswith(QUARANTINE_PREFIX)
    )


@dataclass(frozen=True)
class SupervisionPolicy:
    """How :meth:`WarmPool.run` supervises one batch of payloads.

    Attributes:
        deadline_s: per-*attempt* monotonic deadline.  A chunk whose
            worker has not finished by the deadline is pinned with
            retryable timeout rows and the pool's workers are reaped
            (killed and respawned lazily) — a hung worker costs one
            deadline window, never the whole sweep.  None = wait
            forever (the historical behaviour).
        max_retries: how many times a payload whose worker *crashed*
            (or timed out) is re-attempted.  Retries re-ship the
            payload with a bumped ``fault_attempt`` counter, so
            injected faults re-roll per attempt.  A payload still
            crashing after ``max_retries`` retries is **quarantined**:
            its crash row becomes a persistent
            :data:`QUARANTINE_PREFIX` error row carrying the attempt
            count.  0 = no retries, crash rows stay transient
            (the historical behaviour).
        backoff_base_s / backoff_cap_s / jitter: exponential backoff
            between attempts — ``min(cap, base * 2**(attempt-1))``
            stretched by up to ``jitter`` fraction of random jitter
            (thundering-herd protection; timing only, never results).
    """

    deadline_s: Optional[float] = None
    max_retries: int = 0
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.25

    @property
    def supervised(self) -> bool:
        """True when this policy changes anything about execution."""
        return self.deadline_s is not None or self.max_retries > 0

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to sleep before retry ``attempt`` (1-based)."""
        delay = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2.0 ** max(0, attempt - 1)),
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * random.random()
        return delay


def _record_is_crash(record: Any) -> bool:
    """Crash test for a raw worker record (dict form, pre-RunResult).

    A batch record counts as crashed when *any* member carries the
    crash prefix — the whole payload is the retry unit.
    """
    if not isinstance(record, dict):
        return False
    if "batch" in record:
        return any(_record_is_crash(member) for member in record["batch"])
    error = (record.get("metrics") or {}).get("error")
    return isinstance(error, str) and error.startswith(WORKER_FAILURE_PREFIX)


def _quarantine_record(record: Any, attempts: int) -> Any:
    """Convert a crash record into a persistent quarantine error row.

    The crash prefix is replaced (so the row stops being transient) and
    the attempt history rides in the message and an ``attempts`` metric
    column.  Batch records quarantine only their crashed members.
    """
    if isinstance(record, dict) and "batch" in record:
        out = dict(record)
        out["batch"] = [
            _quarantine_record(member, attempts)
            if _record_is_crash(member) else member
            for member in record["batch"]
        ]
        return out
    out = dict(record)
    metrics = dict(out.get("metrics") or {})
    last = metrics.get("error") or ""
    if last.startswith(WORKER_FAILURE_PREFIX):
        last = last[len(WORKER_FAILURE_PREFIX):]
    metrics["error"] = (
        f"{QUARANTINE_PREFIX}{attempts} attempt(s) crashed; last: {last}"
    )
    metrics["attempts"] = attempts
    out["metrics"] = metrics
    return out


def _worker_failure(
    payload: Dict[str, Any], error: BaseException, base_spec=None
) -> Dict[str, Any]:
    """The error record pinned to a payload whose worker crashed.

    A batch payload comes back as ``{"batch": [...]}`` with one crash
    record per member — keyed exactly like the member's own
    resolution-failure path, so either scheme finds the other's rows.
    """
    if "spec_overrides_batch" in payload:
        name = (base_spec or {}).get("name", "scenario")
        member_tasks = payload["spec_overrides_batch"]
        overrides_list = payload.get("overrides_batch") or member_tasks
        return {
            "batch": [
                RunResult.failed(
                    f"{WORKER_FAILURE_PREFIX}{type(error).__name__}: {error}",
                    spec_hash=_task_failure_key(
                        {"spec_overrides": task}, base_spec
                    ),
                    name=name,
                    overrides=dict(overrides),
                ).to_record()
                for task, overrides in zip(member_tasks, overrides_list)
            ]
        }
    if "spec" in payload:
        name = payload["spec"].get("name", "scenario")
    else:
        name = (base_spec or {}).get("name", "scenario")
    return RunResult.failed(
        f"{WORKER_FAILURE_PREFIX}{type(error).__name__}: {error}",
        spec_hash=_task_failure_key(payload, base_spec),
        name=name,
        overrides=payload.get("overrides", {}),
    ).to_record()


def _run_payload_batch(
    worker: Callable[[Dict[str, Any]], Dict[str, Any]],
    base_dict: Optional[Dict[str, Any]],
    tasks: List[Dict[str, Any]],
    obs_opts: Optional[Dict[str, Any]] = None,
    fault_state: Optional[Dict[str, Any]] = None,
) -> Any:
    """Pool-side batch body: one IPC round-trip for many tasks.

    ``base_dict`` is the shared base spec the chunk's override-only
    tasks resolve against; it is installed only when it differs from
    what the worker already holds, so a pool serving one sweep parses
    its base exactly once per worker while a *session-wide* pool (the
    ``repro serve`` job executor) can switch bases between jobs at the
    cost of one re-parse per worker per switch.

    ``obs_opts`` (set by :meth:`WarmPool.run` when instrumentation is
    enabled) switches the return value from a bare record list to an
    ``{"records": [...], "obs": {...}}`` envelope carrying what this
    chunk produced in *this worker process* — the counter/histogram
    delta accumulated while the chunk ran, the spans it recorded (when
    the parent is tracing), the chunk's wall time, and the wall-clock
    instant work started (the parent derives queue wait from it).  The
    shipment rides the existing result pickle; the parent folds it into
    its own registry/trace buffer so ``/metrics`` and ``--trace-out``
    reflect kernel activity wherever it physically ran.
    """
    if base_dict is not None and base_dict != _SHARED_BASE_DICT:
        _install_shared_base(base_dict)
    # The chunk carries the submitter's fault configuration: workers
    # spawned before the faults were armed programmatically (or after
    # they were cleared) sync to the parent on their next chunk.
    if fault_state is not None or faults.is_armed():
        faults.install(fault_state)

    def one(task: Dict[str, Any]) -> Dict[str, Any]:
        # Mirror the serial path: an exception escaping the worker body
        # (which already converts scenario failures) pins a retryable
        # crash record for *this* task, not the whole chunk.  Real
        # process death still surfaces as BrokenExecutor on the future.
        try:
            return worker(task)
        except Exception as error:
            return _worker_failure(task, error, _SHARED_BASE_DICT)

    if not obs_opts:
        return [one(task) for task in tasks]
    start_wall = time.time()
    start_mono = time.monotonic()
    before = obs.registry.values()
    trace = bool(obs_opts.get("trace"))
    if trace:
        obs.enable_tracing()
    try:
        records = [one(task) for task in tasks]
    finally:
        if trace:
            spans = obs.drain()
            obs.disable_tracing()
        else:
            spans = []
    return {
        "records": records,
        "obs": {
            "pid": os.getpid(),
            "tasks": len(tasks),
            "start_wall": start_wall,
            "wall_s": time.monotonic() - start_mono,
            "metrics": obs.registry.delta(before),
            "spans": spans,
        },
    }


#: Submission chunks per worker: small enough for load balancing across
#: unevenly sized points, large enough that IPC stays amortised.
_CHUNKS_PER_WORKER = 4

#: Minimum detected CPU cores for pool speedup to be *enforced* rather
#: than recorded-only.  The canonical copy — the perf gate
#: (``benchmarks/perf/perf_sweep.py``) and the service ``/metrics``
#: pool-status report both read it from here, so CI and a running
#: service describe the same policy.
POOL_GATE_MIN_CPUS = 2


def pool_gate_status(cpus: Optional[int] = None) -> Dict[str, Any]:
    """How the pool-vs-serial perf gate applies on this host.

    Returns ``{"cpus", "min_cpus", "enforced"}``: with fewer than
    :data:`POOL_GATE_MIN_CPUS` detected cores the pool speedup floor is
    recorded but not enforced (a single-core runner cannot demonstrate
    parallel speedup).  Surfaced in the service ``/metrics`` payload so
    the gate's posture is visible outside CI job summaries.
    """
    detected = cpus if cpus is not None else (os.cpu_count() or 1)
    return {
        "cpus": detected,
        "min_cpus": POOL_GATE_MIN_CPUS,
        "enforced": detected >= POOL_GATE_MIN_CPUS,
    }


#: Every WarmPool not yet closed.  A weak set: a pool that is simply
#: garbage-collected drops out on its own; the set exists so process
#: teardown (atexit) and termination signals can close *live* pools —
#: long sweeps and ``repro serve`` must never leak worker processes.
_LIVE_POOLS: "weakref.WeakSet[WarmPool]" = weakref.WeakSet()

#: Callbacks to run before pools are reaped on shutdown (registered by
#: long-running callers, e.g. the service marking in-flight jobs
#: interrupted).  Run in registration order.
_SHUTDOWN_HOOKS: List[Callable[[], None]] = []


def register_shutdown_hook(hook: Callable[[], None]) -> Callable[[], None]:
    """Run ``hook`` before worker pools are closed at process shutdown.

    Returns the hook so callers can :func:`unregister_shutdown_hook` it.
    """
    _SHUTDOWN_HOOKS.append(hook)
    return hook


def unregister_shutdown_hook(hook: Callable[[], None]) -> None:
    """Remove a previously registered shutdown hook (idempotent)."""
    while hook in _SHUTDOWN_HOOKS:
        _SHUTDOWN_HOOKS.remove(hook)


def shutdown_all_pools() -> None:
    """Run the shutdown hooks, then close every live :class:`WarmPool`.

    Idempotent and safe to call from ``atexit`` or a signal handler:
    hooks that raise are swallowed (shutdown must make progress), and a
    pool already closed is a no-op.
    """
    hooks, _SHUTDOWN_HOOKS[:] = list(_SHUTDOWN_HOOKS), []
    for hook in hooks:
        try:
            hook()
        except Exception:
            pass
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


#: atexit covers normal interpreter exit; install_signal_handlers()
#: (called by long-running entry points like ``repro serve``) extends
#: the same cleanup to SIGTERM/SIGINT delivery.
atexit.register(shutdown_all_pools)


def install_signal_handlers(signals: Optional[Sequence[int]] = None) -> bool:
    """Route SIGTERM/SIGINT through :func:`shutdown_all_pools`.

    The handler runs the shutdown hooks, closes every live pool, then
    chains to the previously installed handler (so an application's own
    SIGINT behaviour — ``KeyboardInterrupt`` — is preserved; for the
    default SIGTERM disposition it exits with the conventional
    ``128 + signum``).  Returns False when handlers cannot be installed
    (not the main thread); pool cleanup then still happens via atexit.
    """
    import signal as signal_module

    if signals is None:
        signals = (signal_module.SIGTERM, signal_module.SIGINT)
    if threading.current_thread() is not threading.main_thread():
        return False
    for signum in signals:
        previous = signal_module.getsignal(signum)

        def _handler(num, frame, _previous=previous):
            shutdown_all_pools()
            if callable(_previous):
                _previous(num, frame)
            elif num == signal_module.SIGINT:
                raise KeyboardInterrupt
            else:
                raise SystemExit(128 + num)

        try:
            signal_module.signal(signum, _handler)
        except (ValueError, OSError):
            return False
    return True


class WarmPool:
    """A persistent warm-worker process pool for spec payloads.

    Workers fork/spawn once — importing the framework and parsing the
    shared ``base_spec`` in the initializer — and then serve any number
    of :meth:`run` batches.  Tasks referencing the shared base ship only
    their override dicts; submission is chunked
    (:data:`_CHUNKS_PER_WORKER` chunks per worker per batch) so an
    N-point grid costs a handful of pickled messages rather than N.

    The pool is lazy (created on the first :meth:`run`) and degrades
    gracefully: when process pools are unavailable (restricted
    sandboxes) or a batch has a single task, it runs in-process with
    identical results.  Use as a context manager, or call
    :meth:`close` when done.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        base_spec: Optional[Dict[str, Any]] = None,
        policy: Optional[SupervisionPolicy] = None,
    ):
        self.base_spec = base_spec
        self.max_workers = max_workers or (os.cpu_count() or 1)
        #: Default supervision for every :meth:`run` (per-call policies
        #: override).  None = unsupervised, the historical behaviour.
        self.policy = policy
        self._pool: Optional[ProcessPoolExecutor] = None
        self._broken = False
        # Track from birth so shutdown_all_pools() reaps pools whose
        # worker processes spawn later (lazily, on the first run()).
        _LIVE_POOLS.add(self)

    # -- lifecycle -------------------------------------------------------

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        if self._pool is None and not self._broken:
            _LIVE_POOLS.add(self)  # a closed pool can be re-driven
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_install_shared_base,
                    initargs=(self.base_spec,),
                )
            except (OSError, PermissionError):
                # Environments without working multiprocessing
                # primitives still get correct, serial results.
                self._broken = True
        return self._pool

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        _LIVE_POOLS.discard(self)

    def _reap_workers(self) -> int:
        """Kill every worker process and drop the executor.

        The hung-worker escape hatch: a worker stuck past its task
        deadline cannot be interrupted cooperatively, so the whole
        worker set is terminated (SIGTERM, then SIGKILL for any
        survivor) and the executor discarded — the next :meth:`run`
        respawns fresh workers through the pool initializer.  Returns
        the number of processes reaped.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return 0
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - pre-3.9 signature
            pool.shutdown(wait=False)
        for process in processes:
            try:
                process.join(0.2)
                if process.is_alive():
                    process.kill()
            except Exception:
                pass
        if processes:
            obs.counter("repro_pool_workers_reaped_total").inc(
                len(processes)
            )
            obs.instant("pool.reap", workers=len(processes))
        return len(processes)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -------------------------------------------------------

    @staticmethod
    def _absorb_chunk(result: Any, submit_wall: float) -> List[Dict[str, Any]]:
        """Unwrap one chunk result, folding its obs shipment into us.

        A chunk run with ``obs_opts`` comes back as an ``{"records",
        "obs"}`` envelope (see :func:`_run_payload_batch`); a bare list
        means instrumentation was off at submit time.  Worker counter/
        histogram deltas merge only when they were produced by a
        *different* process — a shipment stamped with our own pid would
        double-count increments the in-process path already recorded.
        """
        if not (isinstance(result, dict) and "records" in result):
            return result
        shipment = result.get("obs") or {}
        if shipment.get("pid") != os.getpid():
            obs.registry.merge_delta(shipment.get("metrics") or {})
        if shipment.get("spans"):
            obs.absorb(shipment["spans"])
        start_wall = shipment.get("start_wall")
        if start_wall is not None:
            obs.histogram("repro_pool_chunk_wait_seconds").observe(
                max(0.0, start_wall - submit_wall)
            )
        if shipment.get("wall_s") is not None:
            obs.histogram("repro_pool_worker_busy_seconds").observe(
                shipment["wall_s"]
            )
        return result["records"]

    def _run_serial(
        self,
        payloads: List[Dict[str, Any]],
        base_spec: Optional[Dict[str, Any]] = None,
        deadline: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        worker = sys.modules[__name__].run_point_payload
        global _SHARED_BASE, _SHARED_BASE_DICT
        saved = (_SHARED_BASE, _SHARED_BASE_DICT)
        _install_shared_base(
            base_spec if base_spec is not None else self.base_spec
        )
        # In-process execution: kernel instrumentation lands directly in
        # this process's registry/trace buffer — no shipment envelope.
        obs.counter("repro_pool_tasks_total", mode="serial").inc(
            len(payloads)
        )
        try:
            with obs.span("pool.serial", tasks=len(payloads)):
                records = []
                for payload in payloads:
                    # In-process a running payload cannot be reaped;
                    # the deadline bounds how much *further* work
                    # starts once the budget is spent.
                    if deadline is not None and time.monotonic() > deadline:
                        records.append(_worker_failure(
                            payload,
                            TimeoutError("task deadline exceeded"),
                            _SHARED_BASE_DICT,
                        ))
                        continue
                    try:
                        records.append(worker(payload))
                    except Exception as error:
                        records.append(
                            _worker_failure(payload, error, _SHARED_BASE_DICT)
                        )
                return records
        finally:
            _SHARED_BASE, _SHARED_BASE_DICT = saved

    def run(
        self,
        payloads: List[Dict[str, Any]],
        base_spec: Optional[Dict[str, Any]] = None,
        policy: Optional[SupervisionPolicy] = None,
        serial: bool = False,
    ) -> List[Dict[str, Any]]:
        """Run one batch; failures become error records, never raises.

        A worker raising (as opposed to a scenario failing *inside* the
        worker, which :func:`run_point_payload` already converts) is an
        infrastructure failure; it is pinned to every payload of its
        submission chunk as a :data:`WORKER_FAILURE_PREFIX` error record
        so the rest of the batch still lands.

        ``base_spec`` overrides the pool's own base spec for this batch:
        override-only payloads resolve against it instead.  A persistent
        pool serving many scenarios (the ``repro serve`` executor) ships
        the active base with each chunk; workers re-parse only when it
        actually changes.

        ``policy`` (default: the pool's own) supervises the batch: each
        attempt gets a per-attempt deadline (hung workers are reaped
        at expiry), crashed payloads are retried with exponential
        backoff up to ``max_retries`` times, and payloads still
        crashing after that are quarantined as persistent error rows.
        ``serial=True`` runs attempts in-process (supervision minus
        reaping) — used by ``execute_payloads(parallel=False)``.
        """
        batch_base = base_spec if base_spec is not None else self.base_spec
        policy = policy if policy is not None else self.policy
        if serial:
            def attempt_fn(tasks, deadline):
                return self._run_serial(
                    tasks, base_spec=batch_base, deadline=deadline
                )
        else:
            def attempt_fn(tasks, deadline):
                return self._run_pool_once(tasks, batch_base, deadline)
        if policy is None or not policy.supervised:
            return attempt_fn(payloads, None)
        return self._supervise(payloads, policy, attempt_fn)

    def _supervise(
        self,
        payloads: List[Dict[str, Any]],
        policy: SupervisionPolicy,
        attempt_fn: Callable[
            [List[Dict[str, Any]], Optional[float]], List[Dict[str, Any]]
        ],
    ) -> List[Dict[str, Any]]:
        """The retry/quarantine loop around per-attempt execution.

        Attempt 0 runs every payload; each later attempt re-runs only
        the payloads whose previous record was a crash (worker death or
        deadline timeout), shipping them with a bumped
        ``fault_attempt`` counter so injected faults re-roll.  Results
        are position-stable: retried payloads overwrite their own slot.
        """
        final: List[Any] = [None] * len(payloads)
        indices = list(range(len(payloads)))
        current = list(payloads)
        attempt = 0
        while True:
            deadline = (
                time.monotonic() + policy.deadline_s
                if policy.deadline_s is not None else None
            )
            for position, record in zip(
                indices, attempt_fn(current, deadline)
            ):
                final[position] = record
            crashed = [
                position for position in indices
                if _record_is_crash(final[position])
            ]
            if not crashed:
                break
            if attempt >= policy.max_retries:
                if policy.max_retries > 0:
                    # Poison payloads: stop burning attempts on them
                    # and pin a persistent, rank-excluded outcome row
                    # carrying the attempt history.
                    for position in crashed:
                        final[position] = _quarantine_record(
                            final[position], attempt + 1
                        )
                    obs.counter("repro_pool_quarantined_total").inc(
                        len(crashed)
                    )
                    obs.instant(
                        "pool.quarantine", payloads=len(crashed),
                        attempts=attempt + 1,
                    )
                break
            attempt += 1
            obs.counter("repro_pool_retries_total").inc(len(crashed))
            obs.instant(
                "pool.retry", attempt=attempt, payloads=len(crashed)
            )
            delay = policy.backoff_delay(attempt)
            if delay > 0:
                time.sleep(delay)
            indices = crashed
            current = [
                dict(payloads[position], fault_attempt=attempt)
                for position in crashed
            ]
        return final

    def _run_pool_once(
        self,
        payloads: List[Dict[str, Any]],
        batch_base: Optional[Dict[str, Any]],
        deadline: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """One unsupervised attempt across the process pool.

        ``deadline`` (monotonic) bounds how long this attempt waits for
        its futures: a chunk not finished by then is pinned with
        retryable timeout rows and, once every finished chunk has been
        collected, the worker set is reaped (see :meth:`_reap_workers`)
        so the hang cannot leak into the next attempt.
        """
        # A deadline needs the process boundary: an in-process hang
        # cannot be reaped, so even a single payload goes to the pool.
        if len(payloads) <= 1 and deadline is None:
            return self._run_serial(
                payloads, base_spec=batch_base, deadline=deadline
            )
        pool = self._ensure_pool()
        if pool is None:
            obs.counter("repro_pool_serial_fallback_total").inc()
            degrade.report("executor", "serial")
            return self._run_serial(
                payloads, base_spec=batch_base, deadline=deadline
            )
        # Resolved in the submitting process so tests (and callers) can
        # substitute the worker; it is pickled by reference per chunk.
        worker = sys.modules[__name__].run_point_payload
        # Under a deadline the chunk is the timeout blast radius: a hang
        # pins every chunk-mate with a retryable timeout row, burning
        # their retry budgets on someone else's fault.  One payload per
        # future keeps the radius to (roughly) the hung task itself; the
        # extra IPC is the price of supervision, paid only when armed.
        if deadline is not None:
            chunk_size = 1
        else:
            chunk_size = max(
                1,
                math.ceil(
                    len(payloads) / (self.max_workers * _CHUNKS_PER_WORKER)
                ),
            )
        chunks = [
            payloads[i : i + chunk_size]
            for i in range(0, len(payloads), chunk_size)
        ]
        # When instrumentation is on, workers wrap each chunk in an obs
        # envelope (see _run_payload_batch); tracing in *this* process
        # asks workers to capture and ship their spans too.
        obs_opts = None
        if obs.obs_enabled():
            obs_opts = {"trace": obs.tracing_enabled()}
        fault_state = faults.state_snapshot()
        with obs.span(
            "pool.run", tasks=len(payloads), chunks=len(chunks),
            workers=self.max_workers,
        ):
            submit_wall = time.time()
            try:
                futures = [
                    pool.submit(
                        _run_payload_batch, worker, batch_base, chunk,
                        obs_opts, fault_state,
                    )
                    for chunk in chunks
                ]
            except (OSError, PermissionError):
                self._broken = True
                self.close()
                obs.counter("repro_pool_serial_fallback_total").inc()
                degrade.report("executor", "serial")
                return self._run_serial(
                    payloads, base_spec=batch_base, deadline=deadline
                )
            from concurrent.futures import BrokenExecutor
            from concurrent.futures import TimeoutError as _FutureTimeout

            degrade.report("executor", "pool")
            obs.counter("repro_pool_tasks_total", mode="pool").inc(
                len(payloads)
            )
            obs.counter("repro_pool_chunks_submitted_total").inc(len(chunks))
            records: List[Dict[str, Any]] = []
            pool_died = False
            timed_out = 0
            for chunk, future in zip(chunks, futures):
                try:
                    if deadline is None:
                        error = future.exception()
                    else:
                        error = future.exception(
                            timeout=max(0.0, deadline - time.monotonic())
                        )
                except _FutureTimeout:
                    # Past the deadline: this chunk's worker is hung
                    # (or the queue behind a hung worker).  Pin
                    # retryable timeout rows; the reap below clears
                    # the worker set.
                    timed_out += 1
                    error = TimeoutError(
                        "task deadline exceeded; hung worker reaped"
                    )
                if error is None:
                    records.extend(
                        self._absorb_chunk(future.result(), submit_wall)
                    )
                else:
                    if isinstance(error, BrokenExecutor):
                        pool_died = True
                    obs.counter("repro_pool_worker_failures_total").inc(
                        len(chunk)
                    )
                    records.extend(
                        _worker_failure(payload, error, batch_base)
                        for payload in chunk
                    )
            if timed_out:
                obs.counter("repro_pool_deadline_timeouts_total").inc(
                    timed_out
                )
                self._reap_workers()
        if pool_died:
            # A dead worker poisons the whole executor: every later
            # submit would raise.  Drop it so the next batch gets a
            # fresh pool (matching the resilience of the old
            # pool-per-call design) instead of crashing the run.
            self.close()
        return records


def execute_payloads(
    payloads: List[Dict[str, Any]],
    parallel: bool = True,
    max_workers: Optional[int] = None,
    base_spec: Optional[Dict[str, Any]] = None,
    pool: Optional[WarmPool] = None,
    policy: Optional[SupervisionPolicy] = None,
) -> List[Dict[str, Any]]:
    """Run worker payloads; failures become error records, never raises.

    The shared execution core of :class:`SweepRunner` and
    :class:`repro.explore.driver.ExplorationDriver`: each payload goes
    through :func:`run_point_payload` — across a warm-worker process
    pool by default, in-process when ``parallel=False`` or the sandbox
    lacks multiprocessing primitives.  Pass ``base_spec`` (a spec dict)
    to let payloads ship ``"spec_overrides"`` instead of full specs, and
    ``pool`` to reuse a caller-managed :class:`WarmPool` across batches
    (the pool is left open; ``base_spec`` rides along per batch, so a
    session-wide pool can serve callers with different base scenarios).
    ``policy`` supervises the batch (deadlines, retries, quarantine —
    see :class:`SupervisionPolicy`); with ``parallel=False`` the same
    loop runs in-process, minus hung-worker reaping.
    """
    if pool is not None:
        if parallel:
            return pool.run(payloads, base_spec=base_spec, policy=policy)
        if policy is not None and policy.supervised:
            return pool.run(
                payloads, base_spec=base_spec, policy=policy, serial=True
            )
        return pool._run_serial(payloads, base_spec=base_spec)
    workers = min(
        max_workers or (os.cpu_count() or 1), max(1, len(payloads))
    )
    transient = WarmPool(max_workers=workers, base_spec=base_spec)
    try:
        if parallel:
            return transient.run(payloads, policy=policy)
        if policy is not None and policy.supervised:
            return transient.run(payloads, policy=policy, serial=True)
        return transient._run_serial(payloads)
    finally:
        transient.close()


def group_batch_payloads(
    payloads: List[Dict[str, Any]],
    specs: Sequence[ScenarioSpec],
    batch_size: Optional[int],
) -> Tuple[List[Dict[str, Any]], List[int]]:
    """Regroup per-point payloads into batched-kernel payloads.

    Points whose specs share a topology (same component skeleton, fast
    kernel — see :func:`repro.sim.batch.topology_key`) merge into batch
    payloads of up to ``batch_size`` members; everything else (full-spec
    payloads, non-batchable specs, singleton groups) passes through
    untouched.  ``batch_size`` semantics: ``None`` or ``1`` disables
    grouping, ``0`` (or negative) picks
    :data:`repro.sim.batch.AUTO_BATCH_SIZE`.

    Returns:
        ``(grouped, order)`` — ``grouped`` is the payload list to
        execute, and ``order[k]`` is the index into ``payloads`` of the
        k-th record after :func:`flatten_batch_records` (batch payloads
        contribute one record per member, in member order).
    """
    identity = list(range(len(payloads)))
    if batch_size is None or batch_size == 1 or len(payloads) < 2:
        return list(payloads), identity
    from repro.sim.batch import AUTO_BATCH_SIZE, batchable, topology_key

    size = batch_size if batch_size > 1 else AUTO_BATCH_SIZE
    groups: Dict[str, List[int]] = {}
    solo: List[int] = []
    for index, (payload, spec) in enumerate(zip(payloads, specs)):
        if "spec_overrides" in payload and batchable(spec):
            groups.setdefault(topology_key(spec), []).append(index)
        else:
            solo.append(index)
    grouped: List[Dict[str, Any]] = []
    order: List[int] = []
    for indices in groups.values():
        if len(indices) < 2:
            solo.extend(indices)
            continue
        for begin in range(0, len(indices), size):
            chunk = indices[begin : begin + size]
            if len(chunk) < 2:
                solo.extend(chunk)
                continue
            first = payloads[chunk[0]]
            batch_payload: Dict[str, Any] = {
                "spec_overrides_batch": [
                    payloads[i]["spec_overrides"] for i in chunk
                ],
                "overrides_batch": [
                    payloads[i].get("overrides", {}) for i in chunk
                ],
                "traces": list(first.get("traces", ())),
            }
            if "max_trace_samples" in first:
                batch_payload["max_trace_samples"] = first[
                    "max_trace_samples"
                ]
            grouped.append(batch_payload)
            order.extend(chunk)
    for index in sorted(solo):
        grouped.append(payloads[index])
        order.append(index)
    return grouped, order


def flatten_batch_records(
    records: List[Dict[str, Any]],
) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Expand batch worker records back to one record per point.

    The inverse of :func:`group_batch_payloads`'s regrouping: batch
    records (``{"batch": [...], "stats": {...}}``) contribute their
    members in order, point records pass through — so the flattened list
    lines up with the ``order`` index list.  Batch stats sum across all
    batches into the returned totals dict (empty when nothing batched).
    """
    flat: List[Dict[str, Any]] = []
    totals: Dict[str, int] = {}
    for record in records:
        if isinstance(record, dict) and "batch" in record:
            flat.extend(record["batch"])
            for key, value in (record.get("stats") or {}).items():
                totals[key] = totals.get(key, 0) + int(value)
            totals.setdefault("members", 0)
        else:
            flat.append(record)
    return flat, totals


@dataclass(frozen=True)
class SweepResult:
    """All grid points of one sweep, in grid order.

    ``computed``/``cached`` split how each point was satisfied when the
    sweep ran against a persistent store (both zero-cost views of the
    same list otherwise).
    """

    base_name: str
    grid_keys: List[str]
    points: List[RunResult] = field(default_factory=list)
    computed: int = 0
    cached: int = 0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def columns(self) -> List[str]:
        return list(self.grid_keys) + result_columns()

    def rows(self) -> List[List[Any]]:
        """One row per point: override values then the metric columns."""
        return [
            [point.overrides.get(key) for key in self.grid_keys]
            + [point.metrics.get(column) for column in result_columns()]
            for point in self.points
        ]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Each point as one flat record (overrides merged with metrics)."""
        return [dict(p.overrides, **p.metrics) for p in self.points]

    def best(self, metric: str, minimize: bool = True) -> RunResult:
        """The point optimising ``metric``, ignoring points lacking it.

        Error rows, non-finite values and sub-full-fidelity rows are
        skipped with a warning, matching :meth:`ResultStore.best`.
        """
        from repro.results.store import rankable_results

        candidates = rankable_results(
            self.points, (metric,), describe=f"best({metric!r})",
            noun="point",
        )
        if not candidates:
            raise SpecError(f"no sweep point recorded metric {metric!r}")
        return (min if minimize else max)(candidates, key=lambda p: p[metric])

    def format(self, floatfmt: str = "{:.4g}") -> str:
        """Render the sweep as an aligned text table, one row per point."""
        from repro.analysis.report import format_table

        def fmt(value: Any) -> str:
            if value is None:
                return "-"
            if isinstance(value, bool):
                return "yes" if value else "no"
            if isinstance(value, float):
                return floatfmt.format(value)
            return str(value)

        rows = [[fmt(cell) for cell in row] for row in self.rows()]
        return format_table(self.columns(), rows)


class SweepRunner:
    """Expand a parameter grid over a base spec and run every point.

    Args:
        base: the scenario to vary.
        grid: mapping of override key (see
            :meth:`ScenarioSpec.with_override`) to the values to sweep.
        max_workers: process-pool width; defaults to
            ``min(len(points), cpu_count)``.

    Use ``run(parallel=False)`` for in-process serial execution (same
    results, deterministic by construction — handy under debuggers and in
    tests asserting serial/parallel equivalence).  Pass ``store=`` (a
    :class:`ResultStore`) to persist results as they arrive, and
    ``resume=True`` to skip points the store already holds.
    """

    def __init__(
        self,
        base: ScenarioSpec,
        grid: Mapping[str, Sequence[Any]],
        max_workers: Optional[int] = None,
    ):
        self.base = base
        self.grid = dict(grid)
        self.max_workers = max_workers
        self.overrides = expand_grid(self.grid)
        # Expand eagerly: a bad override key fails here, not mid-pool.
        self.specs = [base.with_overrides(point) for point in self.overrides]
        self.hashes = [spec_hash(spec) for spec in self.specs]

    def __len__(self) -> int:
        return len(self.specs)

    def _payloads(
        self, indices: Sequence[int], capture_traces: Sequence[str]
    ) -> List[Dict[str, Any]]:
        # Warm-worker tasks: only the override dicts travel; every
        # worker resolves them against the shared base spec it parsed
        # once at initialisation.
        return [
            {
                "spec_overrides": self.overrides[i],
                "overrides": self.overrides[i],
                "traces": list(capture_traces),
            }
            for i in indices
        ]

    def _execute(
        self,
        payloads: List[Dict[str, Any]],
        parallel: bool,
        pool: Optional[WarmPool] = None,
        policy: Optional[SupervisionPolicy] = None,
    ) -> List[Dict[str, Any]]:
        """Run payloads through the shared :func:`execute_payloads` core."""
        return execute_payloads(
            payloads,
            parallel=parallel,
            max_workers=self.max_workers,
            base_spec=self.base.to_dict(),
            pool=pool,
            policy=policy,
        )

    def run(
        self,
        parallel: bool = True,
        store: Optional[Union[ResultStore, str, "os.PathLike[str]"]] = None,
        resume: bool = False,
        capture_traces: Sequence[str] = (),
        progress: Optional[ProgressHook] = None,
        pool: Optional[WarmPool] = None,
        store_backend: Optional[str] = None,
        batch_size: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SweepResult:
        """Execute the grid; rows come back in grid order.

        Args:
            parallel: fan points out across a process pool.
            store: persist/dedupe results through this store.  A path
                opens one — a ``.colstore`` suffix selects the sharded
                columnar backend, anything else JSONL.
            resume: skip points whose spec hash ``store`` already holds
                (requires ``store``); only the gap is recomputed.
            store_backend: override backend selection when ``store`` is
                a path (``"jsonl"`` or ``"columnar"``).
            capture_traces: probe names whose (decimated) traces each
                computed point should carry.
            progress: optional hook receiving one :class:`BatchProgress`
                event (a sweep is one batch) once the grid is satisfied.
            pool: a caller-managed :class:`WarmPool` to execute on (left
                open); this sweep's base spec rides along per batch.
            batch_size: group points sharing a topology into batched
                SoA-kernel tasks of up to this many members (``0`` =
                :data:`repro.sim.batch.AUTO_BATCH_SIZE`; ``None``/``1``
                = per-point execution).  Results are identical either
                way — same spec hashes, metrics and store rows.
            policy: supervise execution (per-attempt deadlines with
                hung-worker reaping, bounded retries with backoff,
                poison-payload quarantine) — see
                :class:`SupervisionPolicy`.  None = unsupervised.
        """
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store, backend=store_backend)
        if resume and store is None:
            raise SpecError("resume=True needs a result store to resume from")
        sweep_span = obs.span(
            "sweep.run", label=self.base.name, points=len(self.specs),
            parallel=parallel,
        )
        sweep_span.__enter__()
        pending = [
            i for i in range(len(self.specs))
            # A stored worker-crash row (older stores may hold them) is
            # not a satisfied point: resume retries it.
            if not (resume and self.hashes[i] in store
                    and not _is_worker_crash(store.get(self.hashes[i])))
        ]
        payloads = self._payloads(pending, capture_traces)
        batch_stats: Dict[str, int] = {}
        if batch_size is not None and batch_size != 1:
            grouped, order = group_batch_payloads(
                payloads, [self.specs[i] for i in pending], batch_size
            )
            raw = self._execute(grouped, parallel, pool=pool, policy=policy)
            flat, batch_stats = flatten_batch_records(raw)
            records: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
            for position, record in zip(order, flat):
                records[position] = record
            for position, record in enumerate(records):
                if record is None:  # a worker returned a short batch
                    records[position] = _worker_failure(
                        payloads[position],
                        RuntimeError("batch worker returned no record"),
                        self.base.to_dict(),
                    )
        else:
            records = self._execute(
                payloads, parallel, pool=pool, policy=policy
            )
        computed: Dict[int, RunResult] = {}
        # One batched store transaction: appends buffer and hit the disk
        # with a single fsync instead of one per point.
        with (store.batch() if store is not None else nullcontext()):
            for i, record in zip(pending, records):
                result = RunResult.from_record(record).with_context(
                    index=i, spec=self.specs[i]
                )
                computed[i] = result
                # Deterministic outcomes (successes *and* infeasible-
                # scenario error rows) are cacheable; worker crashes are
                # transient and must stay recomputable on the next resume.
                if store is not None and not _is_worker_crash(result):
                    store.add(result, overwrite=True)
        points = []
        for i in range(len(self.specs)):
            if i in computed:
                points.append(computed[i])
            else:
                cached = store.get(self.hashes[i])
                points.append(cached.with_context(index=i, spec=self.specs[i]))
        # One shared progress stream: the event always flows through the
        # obs layer (metrics + trace instant), then to any caller hook.
        event = BatchProgress(
            label=self.base.name,
            batch=1,
            computed=len(computed),
            cached=len(points) - len(computed),
            errors=sum(1 for p in points if p.error is not None),
            total=len(points),
            members=batch_stats.get("members")
            if batch_stats else None,
            passes=batch_stats.get("passes"),
            advanced=batch_stats.get("advanced"),
            settled=batch_stats.get("settled"),
            diverged=batch_stats.get("diverged"),
            scalar_chunks=batch_stats.get("scalar_chunks"),
        )
        obs.record_progress(event)
        if progress is not None:
            progress(event)
        sweep_span.annotate(
            computed=len(computed), cached=len(points) - len(computed),
        )
        sweep_span.__exit__(None, None, None)
        return SweepResult(
            base_name=self.base.name,
            grid_keys=list(self.grid),
            points=points,
            computed=len(computed),
            cached=len(points) - len(computed),
        )
