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

The worker (:func:`run_point_payload`) is a module-level function so
it pickles under every ``multiprocessing`` start method; it takes and
returns plain dicts, keeping the inter-process traffic tiny regardless
of how many probe samples a run records.

Sweeps, explorations and service jobs all evaluate through
:func:`evaluate` on a *warm-worker* pool (:class:`WarmPool`): every
task is an override dict against the base spec that ships with its
batch, a worker parses that base once (on the first chunk that brings
it), and submission is chunked so a large grid costs a handful of
round-trips instead of one per point.  Every point is its own task:
the submission chunk is the only grouping, so a crash, retry,
quarantine or deadline applies to exactly one point.  The pool object
survives across batches — an exploration driver reuses the same warm
workers for every optimizer round.
``parallel=False`` runs on :func:`run_in_process` instead.
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
from repro.core.system import check_trace_names
from repro.errors import SpecError
from repro.results.metrics import result_columns
from repro.results.run_result import (
    QUARANTINE_PREFIX,
    WORKER_FAILURE_PREFIX,
    RunResult,
    content_hash,
    is_worker_crash_error,
    spec_hash,
)
from repro.results.store import ResultStore
from repro.spec.specs import ScenarioSpec, expand_grid


#: The base spec this process resolves task overrides against: parsed
#: once per worker process (or per serial batch), not once per task.
#: ``None`` until :func:`_install_shared_base` runs.
_SHARED_BASE: Optional[ScenarioSpec] = None
#: Its raw dict form (for failure keys), kept in lockstep.
_SHARED_BASE_DICT: Optional[Dict[str, Any]] = None


def _install_shared_base(base_dict: Optional[Dict[str, Any]]) -> None:
    """Parse ``base_dict`` as the base later tasks resolve against."""
    global _SHARED_BASE, _SHARED_BASE_DICT
    _SHARED_BASE_DICT = base_dict
    _SHARED_BASE = (
        ScenarioSpec.from_dict(base_dict) if base_dict is not None else None
    )


def _task_failure_key(
    payload: Dict[str, Any], base_spec: Dict[str, Any]
) -> str:
    """The one error-row key for a task that never resolved to a spec.

    Shared by the in-worker resolution-failure path and the
    worker-crash fallback so both produce the same key for the same
    payload — a stored error row under one scheme must be findable by
    the other.
    """
    return content_hash({
        "base": spec_hash(base_spec),
        "overrides": payload.get("spec_overrides"),
    })


def run_spec(
    spec: ScenarioSpec,
    overrides: Dict[str, Any],
    capture_traces: Sequence[str] = (),
) -> RunResult:
    """Build and run one spec: the body of every point.

    Records only the traces named in ``capture_traces``, none by
    default.  A spec that fails to build or run becomes an error row
    keyed by its spec hash, so one bad point cannot kill the sweep.
    """
    try:
        system = spec.build()
        system.install_probes(spec.decimate, names=tuple(capture_traces))
        run = system.run(spec.duration, decimate=spec.decimate)
        return RunResult.from_system_run(
            run,
            spec,
            overrides=overrides,
            capture_traces=tuple(capture_traces),
        )
    except Exception as error:  # one bad point must not kill the sweep
        return RunResult.failed(
            f"{type(error).__name__}: {error}",
            spec_hash=spec_hash(spec),
            name=spec.name,
            overrides=overrides,
            spec=spec,
        )


def run_point_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Process-pool worker: one grid point in, one result record out.

    ``payload`` is ``{"spec_overrides": {...}, "overrides": {...},
    "traces": [probe names]}``: ``spec_overrides`` applied to the
    installed base spec give the point's spec (deterministically, so
    its hash — the results pipeline's cache key — equals the one the
    submitting process computed), ``overrides`` label its row.  The
    return value is a :meth:`RunResult.to_record` dict.
    """
    if faults.is_armed():
        # Chaos harness: an injected crash raises out of the worker (the
        # pool pins the chunk as retryable crash rows), an injected hang
        # sleeps until the supervisor's task deadline reaps this worker.
        fault_key = faults.payload_key(payload, spec_hash(_SHARED_BASE_DICT))
        faults.inject("worker.crash", fault_key, "injected worker crash")
        faults.maybe_hang(fault_key)
    overrides = dict(payload.get("overrides", {}))
    try:
        spec = _SHARED_BASE.with_overrides(payload["spec_overrides"])
    except Exception as error:
        return RunResult.failed(
            f"{type(error).__name__}: {error}",
            spec_hash=_task_failure_key(payload, _SHARED_BASE_DICT),
            overrides=overrides,
        ).to_record()
    return run_spec(
        spec, overrides, capture_traces=tuple(payload.get("traces", ()))
    ).to_record()


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
    """

    label: str
    batch: int
    computed: int
    cached: int
    errors: int
    total: int

    def describe(self) -> str:
        """The canonical one-line rendering of this event."""
        return (
            f"[{self.label}] batch {self.batch}: "
            f"{self.computed} computed, {self.cached} cached, "
            f"{self.errors} error(s); {self.total} total"
        )


#: The progress-hook signature accepted by runners and drivers.
ProgressHook = Callable[[BatchProgress], None]

# WORKER_FAILURE_PREFIX / QUARANTINE_PREFIX live in
# repro.results.run_result (the results layer classifies rows too) and
# are re-exported here, their historical home.


def stored_outcome(
    store: Optional[ResultStore], key: str
) -> Optional[RunResult]:
    """The row ``store`` holds for ``key`` if it counts on resume.

    Every stored row does except a worker crash: that one is transient
    and must recompute.
    """
    stored = store.get(key) if store is not None else None
    if stored is None or is_worker_crash_error(stored.error):
        return None
    return stored


#: The one retry backoff schedule, for pool payload retries and service
#: job retries alike: ``min(cap, base * 2**(attempt-1))`` seconds,
#: stretched by up to ``BACKOFF_JITTER`` fraction of random jitter
#: (thundering-herd protection; timing only, never results).
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
BACKOFF_JITTER = 0.25


def backoff_delay(attempt: int) -> float:
    """Seconds to sleep before retry ``attempt`` (1-based)."""
    delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2.0 ** max(0, attempt - 1)))
    return delay * (1.0 + BACKOFF_JITTER * random.random())


@dataclass(frozen=True)
class SupervisionPolicy:
    """How an executor (:meth:`WarmPool.run`, :func:`run_in_process`)
    supervises one batch of payloads.

    Attributes:
        deadline_s: per-*attempt* monotonic deadline.  A chunk whose
            worker has not finished by the deadline is pinned with
            retryable timeout rows and the pool's workers are reaped
            (killed and respawned lazily) — a hung worker costs one
            deadline window, never the whole sweep.  None = wait
            forever (the historical behaviour).
        max_retries: how many times a payload whose worker *crashed*
            (or timed out) is re-attempted, after :func:`backoff_delay`.
            Retries re-ship the payload with a bumped ``fault_attempt``
            counter, so injected faults re-roll per attempt.  A payload still
            crashing after ``max_retries`` retries is **quarantined**:
            its crash row becomes a persistent
            :data:`QUARANTINE_PREFIX` error row carrying the attempt
            count.  0 = no retries, crash rows stay transient
            (the historical behaviour).

    Both are validated when the policy is built — the deadline is None
    or a finite number of seconds > 0, the retry budget an int >= 0 —
    and a bad one raises :class:`SpecError`, so CLI flags, service
    requests and service defaults share one rule.
    """

    deadline_s: Optional[float] = None
    max_retries: int = 0

    def __post_init__(self) -> None:
        deadline_s = self.deadline_s
        if deadline_s is not None:
            if isinstance(deadline_s, bool) or not isinstance(
                deadline_s, (int, float)
            ) or not math.isfinite(deadline_s) or deadline_s <= 0:
                raise SpecError(
                    "'deadline_s' must be a positive, finite number of "
                    f"seconds, got {deadline_s!r}"
                )
            object.__setattr__(self, "deadline_s", float(deadline_s))
        max_retries = self.max_retries
        if isinstance(max_retries, bool) or not isinstance(max_retries, int) \
                or max_retries < 0:
            raise SpecError(
                "'max_retries' must be a non-negative integer, got "
                f"{max_retries!r}"
            )

    @property
    def supervised(self) -> bool:
        """True when this policy changes anything about execution."""
        return self.deadline_s is not None or self.max_retries > 0


def _quarantine_record(record: Any, attempts: int) -> Any:
    """Convert a crash record into a persistent quarantine error row.

    The crash prefix is replaced (so the row stops being transient) and
    the attempt history rides in the message and an ``attempts`` metric
    column.
    """
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
    payload: Dict[str, Any], error: BaseException, base_spec: Dict[str, Any]
) -> Dict[str, Any]:
    """The error record pinned to a payload whose worker crashed."""
    return RunResult.failed(
        f"{WORKER_FAILURE_PREFIX}{type(error).__name__}: {error}",
        spec_hash=_task_failure_key(payload, base_spec),
        name=base_spec.get("name", "scenario"),
        overrides=payload.get("overrides", {}),
    ).to_record()


def _run_payload_chunk(
    worker: Callable[[Dict[str, Any]], Dict[str, Any]],
    base_dict: Dict[str, Any],
    tasks: List[Dict[str, Any]],
    obs_opts: Optional[Dict[str, Any]] = None,
    fault_state: Optional[Dict[str, Any]] = None,
) -> Any:
    """Pool-side chunk body: one IPC round-trip for many tasks.

    ``base_dict`` is the base spec the chunk's tasks resolve against;
    it is installed only when it differs from what the worker already
    holds, so the first chunk a worker runs parses the base and a pool
    serving one sweep parses it exactly once per worker, while a
    *session-wide* pool (the ``repro serve`` job executor) can switch
    bases between jobs at the cost of one re-parse per worker per
    switch.

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
    if base_dict != _SHARED_BASE_DICT:
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


def _run_in_process(
    payloads: List[Dict[str, Any]],
    base_spec: Dict[str, Any],
    deadline: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """One unsupervised attempt in this process, in payload order."""
    worker = sys.modules[__name__].run_point_payload
    global _SHARED_BASE, _SHARED_BASE_DICT
    saved = (_SHARED_BASE, _SHARED_BASE_DICT)
    _install_shared_base(base_spec)
    # In-process execution: kernel instrumentation lands directly in
    # this process's registry/trace buffer — no shipment envelope.
    obs.counter("repro_pool_tasks_total", mode="serial").inc(len(payloads))
    try:
        with obs.span("pool.serial", tasks=len(payloads)):
            records = []
            for payload in payloads:
                # In-process a running payload cannot be reaped; the
                # deadline bounds how much *further* work starts once
                # the budget is spent.
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


def _supervise(
    payloads: List[Dict[str, Any]],
    policy: Optional[SupervisionPolicy],
    attempt_fn: Callable[
        [List[Dict[str, Any]], Optional[float]], List[Dict[str, Any]]
    ],
) -> List[Dict[str, Any]]:
    """The retry/quarantine loop around per-attempt execution.

    Without a supervising ``policy`` this is one attempt with no
    deadline.  Otherwise attempt 0 runs every payload; each later
    attempt re-runs only the payloads whose previous record was a crash
    (worker death or deadline timeout), shipping them with a bumped
    ``fault_attempt`` counter so injected faults re-roll.  Results are
    position-stable: retried payloads overwrite their own slot.
    """
    if policy is None or not policy.supervised:
        return attempt_fn(payloads, None)
    final: List[Any] = [None] * len(payloads)
    indices = list(range(len(payloads)))
    current = list(payloads)
    attempt = 0
    while True:
        deadline = (
            time.monotonic() + policy.deadline_s
            if policy.deadline_s is not None else None
        )
        for position, record in zip(indices, attempt_fn(current, deadline)):
            final[position] = record
        crashed = [
            position for position in indices
            if is_worker_crash_error(final[position]["metrics"].get("error"))
        ]
        if not crashed:
            break
        if attempt >= policy.max_retries:
            if policy.max_retries > 0:
                # Poison payloads: stop burning attempts on them and
                # pin a persistent, rank-excluded outcome row carrying
                # the attempt history.
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
        obs.instant("pool.retry", attempt=attempt, payloads=len(crashed))
        delay = backoff_delay(attempt)
        if delay > 0:
            time.sleep(delay)
        indices = crashed
        current = [
            dict(payloads[position], fault_attempt=attempt)
            for position in crashed
        ]
    return final


def run_in_process(
    payloads: List[Dict[str, Any]],
    base_spec: Dict[str, Any],
    policy: Optional[SupervisionPolicy] = None,
) -> List[Dict[str, Any]]:
    """The in-process executor: :meth:`WarmPool.run` without a pool.

    What ``parallel=False`` runs on: same signature, same records, same
    supervision loop, minus hung-worker reaping — a deadline only stops
    further payloads from starting once it has passed.
    """
    return _supervise(
        payloads, policy,
        lambda tasks, deadline: _run_in_process(tasks, base_spec, deadline),
    )


#: What :func:`evaluate` runs payloads on: :meth:`WarmPool.run` or
#: :func:`run_in_process`, one record per payload, in payload order.
Executor = Callable[..., List[Dict[str, Any]]]


class WarmPool:
    """A persistent warm-worker process pool for spec payloads.

    Workers fork/spawn once — importing the framework — and then serve
    any number of :meth:`run` batches.  Each batch names its base spec;
    a worker parses it on the first chunk that brings it, and tasks ship
    only their override dicts.  Submission is chunked
    (:data:`_CHUNKS_PER_WORKER` chunks per worker per batch) so an
    N-point grid costs a handful of pickled messages rather than N.

    The pool is lazy (created on the first :meth:`run`) and degrades
    gracefully: when process pools are unavailable (restricted
    sandboxes) or a batch has a single task, it runs in-process with
    identical results.  Use as a context manager, or call
    :meth:`close` when done.
    """

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers or (os.cpu_count() or 1)
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
                    max_workers=self.max_workers
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
        respawns fresh workers, which re-parse the base on their first
        chunk.  Returns the number of processes reaped.
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
        pool.shutdown(wait=False, cancel_futures=True)
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
        "obs"}`` envelope (see :func:`_run_payload_chunk`); a bare list
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

    def run(
        self,
        payloads: List[Dict[str, Any]],
        base_spec: Dict[str, Any],
        policy: Optional[SupervisionPolicy] = None,
    ) -> List[Dict[str, Any]]:
        """Run one batch; failures become error records, never raises.

        A worker raising (as opposed to a scenario failing *inside* the
        worker, which :func:`run_point_payload` already converts) is an
        infrastructure failure; it is pinned to every payload of its
        submission chunk as a :data:`WORKER_FAILURE_PREFIX` error record
        so the rest of the batch still lands.

        ``base_spec`` is the base the payloads' overrides resolve
        against; it ships with each chunk, and workers re-parse only
        when it changes, so a persistent pool serving many scenarios
        (the ``repro serve`` executor) switches bases between batches.

        ``policy`` supervises the batch (see :func:`_supervise`): each
        attempt gets a per-attempt deadline (hung workers are reaped
        at expiry), crashed payloads are retried with exponential
        backoff up to ``max_retries`` times, and payloads still
        crashing after that are quarantined as persistent error rows.
        """
        return _supervise(
            payloads, policy,
            lambda tasks, deadline: self._run_pool_once(
                tasks, base_spec, deadline
            ),
        )

    def _run_pool_once(
        self,
        payloads: List[Dict[str, Any]],
        batch_base: Dict[str, Any],
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
            return _run_in_process(payloads, batch_base, deadline)
        pool = self._ensure_pool()
        if pool is None:
            obs.counter("repro_pool_serial_fallback_total").inc()
            degrade.report("executor", "serial")
            return _run_in_process(payloads, batch_base, deadline)
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
        # envelope (see _run_payload_chunk); tracing in *this* process
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
                        _run_payload_chunk, worker, batch_base, chunk,
                        obs_opts, fault_state,
                    )
                    for chunk in chunks
                ]
            except (OSError, PermissionError):
                self._broken = True
                self.close()
                obs.counter("repro_pool_serial_fallback_total").inc()
                degrade.report("executor", "serial")
                return _run_in_process(payloads, batch_base, deadline)
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


@dataclass(frozen=True)
class EvaluationStats:
    """How one :func:`evaluate` call satisfied its points: the positions
    that ran on the executor."""

    computed: Tuple[int, ...]

    def progress(
        self, label: str, batch: int, results: Sequence[RunResult], *,
        computed: int, total: int,
    ) -> BatchProgress:
        """The event for ``results``, ``computed`` of which cost work."""
        return BatchProgress(
            label=label, batch=batch, computed=computed,
            cached=len(results) - computed,
            errors=sum(1 for result in results if result.error is not None),
            total=total,
        )


def evaluate(
    base: ScenarioSpec,
    points: Sequence[Tuple[ScenarioSpec, Dict[str, Any], Dict[str, Any]]],
    *,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    executor: Executor = run_in_process,
    policy: Optional[SupervisionPolicy] = None,
    traces: Sequence[str] = (),
) -> Tuple[List[RunResult], EvaluationStats]:
    """Satisfy ``points`` against ``base``: the one evaluation core.

    Each point is ``(spec, task overrides, label overrides)``: the task
    overrides reproduce ``spec`` against ``base`` in a warm worker, the
    label overrides tag its result row.  With ``resume``, a stored row
    is reused unless it is a worker crash; a spec hash listed twice
    computes once; the rest run on ``executor`` under ``policy``, one
    payload per point, and are written back in one ``store.batch()``
    — worker crashes excepted, so they stay recomputable.  Returns one
    result per point, anchored to its position and spec, and the call's
    :class:`EvaluationStats`.  Trace names outside the standard probes
    raise :class:`SpecError` before any point runs or is stored.
    """
    check_trace_names(traces)
    base_dict = base.to_dict()
    hashes = [spec_hash(spec) for spec, _, _ in points]
    outcome: Dict[str, Optional[RunResult]] = {}
    pending: List[int] = []
    for position, key in enumerate(hashes):
        if key in outcome:
            continue
        outcome[key] = stored_outcome(store, key) if resume else None
        if outcome[key] is None:
            pending.append(position)
    payloads = [
        {"spec_overrides": points[position][1],
         "overrides": points[position][2], "traces": list(traces)}
        for position in pending
    ]
    records = executor(payloads, base_spec=base_dict, policy=policy)
    if len(records) != len(payloads):
        raise RuntimeError(
            f"executor returned {len(records)} record(s) for "
            f"{len(payloads)} payload(s)"
        )
    # One batched store transaction: appends buffer and hit the disk
    # with a single fsync instead of one per point.
    with (store.batch() if store is not None else nullcontext()):
        for position, record in zip(pending, records):
            result = RunResult.from_record(record).with_context(
                index=position, spec=points[position][0]
            )
            outcome[hashes[position]] = result
            if store is not None and not is_worker_crash_error(result.error):
                store.add(result, overwrite=True)
    results = [
        outcome[key].with_context(index=position, spec=point[0])
        for position, (key, point) in enumerate(zip(hashes, points))
    ]
    return results, EvaluationStats(tuple(pending))


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

    def format(self) -> str:
        """Render the sweep as an aligned text table, one row per point."""
        from repro.analysis.report import format_cell, format_table

        rows = [[format_cell(cell) for cell in row] for row in self.rows()]
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

    def _run_transient(
        self,
        payloads: List[Dict[str, Any]],
        base_spec: Dict[str, Any],
        policy: Optional[SupervisionPolicy] = None,
    ) -> List[Dict[str, Any]]:
        """Run on a pool owned by this call, no wider than its payloads."""
        workers = min(
            self.max_workers or (os.cpu_count() or 1), max(1, len(payloads))
        )
        with WarmPool(max_workers=workers) as pool:
            return pool.run(payloads, base_spec, policy=policy)

    def run(
        self,
        parallel: bool = True,
        store: Optional[Union[ResultStore, str, "os.PathLike[str]"]] = None,
        resume: bool = False,
        capture_traces: Sequence[str] = (),
        progress: Optional[ProgressHook] = None,
        pool: Optional[WarmPool] = None,
        batch_size: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
    ) -> SweepResult:
        """Execute the grid; rows come back in grid order.

        Args:
            parallel: fan points out across a process pool.
            store: persist/dedupe results through this store.  A path
                opens one; its format follows the path (see
                :class:`ResultStore`).
            resume: skip points whose spec hash ``store`` already holds
                (requires ``store``); only the gap is recomputed.
            capture_traces: standard probe names (``vcc``, ``state``,
                ``frequency``) whose decimated traces each computed
                point should carry; none are recorded by default.
            progress: optional hook receiving one :class:`BatchProgress`
                event (a sweep is one batch) once the grid is satisfied.
            pool: a caller-managed :class:`WarmPool` to execute on (left
                open); this sweep's base spec rides along per batch.
            batch_size: accepted and ignored; every point is its own
                task (kept for callers written against batch tasks).
            policy: supervise execution (per-attempt deadlines with
                hung-worker reaping, bounded retries with backoff,
                poison-payload quarantine) — see
                :class:`SupervisionPolicy`.  None = unsupervised.

        Points are evaluated by :func:`evaluate`, so a grid value listed
        twice computes once.
        """
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        if resume and store is None:
            raise SpecError("resume=True needs a result store to resume from")
        if not parallel:
            executor: Executor = run_in_process
        elif pool is not None:
            executor = pool.run
        else:
            executor = self._run_transient
        with obs.span(
            "sweep.run", label=self.base.name, points=len(self.specs),
            parallel=parallel,
        ) as sweep_span:
            # Warm-worker tasks: only the override dicts travel.
            points, stats = evaluate(
                self.base,
                [
                    (spec, overrides, overrides)
                    for spec, overrides in zip(self.specs, self.overrides)
                ],
                store=store,
                resume=resume,
                executor=executor,
                policy=policy,
                traces=capture_traces,
            )
            computed = len(stats.computed)
            # One shared progress stream: the event always flows through
            # the obs layer (metrics + trace instant), then to any hook.
            event = stats.progress(
                self.base.name, 1, points, computed=computed,
                total=len(points),
            )
            obs.record_progress(event)
            if progress is not None:
                progress(event)
            sweep_span.annotate(
                computed=computed, cached=len(points) - computed
            )
        return SweepResult(
            base_name=self.base.name,
            grid_keys=list(self.grid),
            points=points,
            computed=computed,
            cached=len(points) - computed,
        )
