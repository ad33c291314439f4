"""The simulation service: validated requests in, store-backed jobs out.

:class:`SimulationService` is the engine behind the HTTP API (and
directly usable in-process, which is how the tests and benchmarks drive
it).  It owns the long-lived resources one process shares across every
client:

* one :class:`~repro.results.store.ResultStore` — the compute cache.
  Every job runs with ``resume=True`` against it, so overlapping
  requests from independent clients compute each grid point exactly
  once and all later requests are cache hits;
* one :class:`~repro.spec.runner.WarmPool` — the worker processes.
  Jobs ship their base spec per batch (see ``WarmPool.run``), so the
  same warm workers serve every scenario the service sees;
* one :class:`~repro.serve.queue.JobQueue` — FIFO execution with
  persisted status and streamable progress.

Validation happens **at submission** on the caller's thread: a bad spec
dict, unknown component, malformed grid or invalid axis raises the same
:class:`~repro.errors.ReproError` subclasses the CLI turns into one-line
exit-2 messages — the HTTP layer maps them to 400 responses.  Execution
failures (an infeasible corner mid-sweep) never fail the *job*; they pin
error rows exactly as sweeps always have.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Mapping, Optional

from repro import degrade, obs
from repro.analysis.crossover import series_from_store
from repro.analysis.pareto import pareto_from_store
from repro.core.system import check_trace_names
from repro.errors import ReproError, SpecError
from repro.explore import (
    ExplorationDriver,
    Objective,
    SearchSpace,
    available_optimizers,
)
from repro.results.store import ResultStore
from repro.serve.jobs import JobRecord, JobStore
from repro.serve.queue import JobQueue
from repro.spec import ScenarioSpec, SweepRunner, preset, preset_names
from repro.spec.runner import (
    BatchProgress,
    SupervisionPolicy,
    WarmPool,
    backoff_delay,
    pool_gate_status,
    register_shutdown_hook,
    unregister_shutdown_hook,
)

#: Event cap for the service's always-on trace window: ``GET /v1/trace``
#: returns the most recent window of spans, old events evicted beyond it.
SERVICE_TRACE_EVENT_LIMIT = 100_000


def _require_mapping(payload: Any, what: str) -> Dict[str, Any]:
    if not isinstance(payload, Mapping):
        raise SpecError(f"{what} must be a JSON object, got "
                        f"{type(payload).__name__}")
    return dict(payload)


class SimulationService:
    """Everything ``repro serve`` does, minus the HTTP framing.

    Args:
        store_path: the shared result store (None: in-memory — the
            cache then lives and dies with the process, as do the job
            records).  Its format follows the path (see
            :class:`ResultStore`); job status persists beside it in
            ``<store_path>.jobs``.
        max_workers: warm-pool width (defaults to the CPU count).
        parallel: fan grid points across the pool; ``False`` runs every
            point on the executor thread (sandboxes, deterministic tests).
        default_deadline_s: wall-clock budget applied to jobs whose
            request does not set ``deadline_s`` (None: no deadline).
        default_max_retries: job-retry budget applied to jobs whose
            request does not set ``max_retries``.

    The defaults are validated as a :class:`SupervisionPolicy` here, so
    a bad one fails at startup rather than on every later request.
    """

    def __init__(
        self,
        store_path: Optional[str] = None,
        max_workers: Optional[int] = None,
        parallel: bool = True,
        default_deadline_s: Optional[float] = None,
        default_max_retries: int = 0,
    ):
        defaults = SupervisionPolicy(default_deadline_s, default_max_retries)
        self.default_deadline_s = defaults.deadline_s
        self.default_max_retries = defaults.max_retries
        self.store = ResultStore(store_path)
        self.parallel = parallel
        self.max_workers = max_workers
        self.pool = WarmPool(max_workers=max_workers) if parallel else None
        jobs_path = f"{store_path}.jobs" if store_path is not None else None
        self.queue = JobQueue(JobStore(jobs_path), execute=self._execute_job)
        self.started_s = time.time()
        self.requests_served = 0
        self._closed = False
        # The process-teardown contract: SIGTERM/SIGINT/atexit reach
        # close(), which marks in-flight jobs interrupted and reaps the
        # worker pool — a killed service never leaks either.
        self._shutdown_hook = register_shutdown_hook(self.close)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SimulationService":
        """Start executing queued jobs; returns self for chaining.

        Also turns on the bounded span-trace window backing
        ``GET /v1/trace`` (unless tracing was already enabled by the
        embedding process, whose window is then left alone).
        """
        self._owns_tracing = not obs.tracing_enabled()
        if self._owns_tracing:
            obs.enable_tracing(limit=SERVICE_TRACE_EVENT_LIMIT)
        self.queue.start()
        return self

    def close(self) -> None:
        """Stop the executor, mark in-flight jobs interrupted, reap the
        pool, and compact the job file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if getattr(self, "_owns_tracing", False):
            obs.disable_tracing()
        unregister_shutdown_hook(self._shutdown_hook)
        self.queue.stop()
        if self.pool is not None:
            self.pool.close()
        self.queue.store.compact()

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request validation + submission ---------------------------------

    def submit(self, kind: str, payload: Any) -> JobRecord:
        """Validate and enqueue one request; raises ``ReproError`` on a
        malformed request (the HTTP 400 path)."""
        payload = _require_mapping(payload, f"{kind} request")
        if kind == "run":
            self._validate_run(payload)
        elif kind == "sweep":
            self._validate_sweep(payload)
        elif kind == "exploration":
            self._validate_exploration(payload)
        else:
            raise SpecError(
                f"unknown job kind {kind!r}; expected run, sweep, "
                "or exploration"
            )
        # The job's (deadline_s, max_retries), service defaults for
        # unset keys, validated by the one policy rule.
        supervision = SupervisionPolicy(
            deadline_s=payload.get("deadline_s", self.default_deadline_s),
            max_retries=payload.get("max_retries", self.default_max_retries),
        )
        record, _ = self.queue.submit(
            kind, payload, deadline_s=supervision.deadline_s,
            max_retries=supervision.max_retries,
        )
        return record

    def _base_spec(self, payload: Mapping[str, Any]) -> ScenarioSpec:
        """The request's base scenario: a full spec dict or a preset."""
        if ("spec" in payload) == ("preset" in payload):
            raise SpecError(
                "request needs exactly one of 'spec' (a ScenarioSpec "
                "object) or 'preset' (one of: "
                + ", ".join(preset_names()) + ")"
            )
        if "spec" in payload:
            base = ScenarioSpec.from_dict(
                _require_mapping(payload["spec"], "'spec'")
            )
        else:
            base = preset(payload["preset"])
        overrides = payload.get("overrides")
        if overrides is not None:
            base = base.with_overrides(
                _require_mapping(overrides, "'overrides'")
            )
        return base

    def _traces(self, payload: Mapping[str, Any]) -> List[str]:
        traces = payload.get("traces", [])
        if not isinstance(traces, (list, tuple)) or not all(
            isinstance(name, str) for name in traces
        ):
            raise SpecError("'traces' must be a list of probe names")
        check_trace_names(traces)
        return list(traces)

    def _validate_run(self, payload: Mapping[str, Any]) -> None:
        self._base_spec(payload)
        self._traces(payload)

    def _sweep_runner(self, payload: Mapping[str, Any]) -> SweepRunner:
        base = self._base_spec(payload)
        grid = _require_mapping(payload.get("grid"), "'grid'")
        if not grid:
            raise SpecError("'grid' must map at least one override key "
                            "to a list of values")
        # SweepRunner validates keys/values eagerly (unknown knobs,
        # empty value lists, ambiguous keys) — exactly the errors the
        # API must reject at submission time.
        return SweepRunner(base, grid, max_workers=self.max_workers)

    def _validate_sweep(self, payload: Mapping[str, Any]) -> None:
        self._sweep_runner(payload)
        self._traces(payload)

    def _explore_driver(
        self,
        payload: Mapping[str, Any],
        record: Optional[JobRecord] = None,
        policy: Optional[SupervisionPolicy] = None,
    ) -> ExplorationDriver:
        base = self._base_spec(payload)
        space_payload = _require_mapping(payload.get("space"), "'space'")
        if "axes" not in space_payload:
            # API shorthand: {"capacitance": {"kind": "log", ...}} maps
            # each key to a named axis (the canonical {"axes": [...]}
            # form is accepted verbatim).
            space_payload = {"axes": [
                dict(_require_mapping(axis, f"axis {name!r}"), name=name)
                for name, axis in space_payload.items()
            ]}
        if not space_payload.get("axes"):
            raise SpecError("'space' must define at least one axis")
        space = SearchSpace.from_dict(space_payload)
        objectives = payload.get("objectives", ["completion_time"])
        if isinstance(objectives, str):
            objectives = [objectives]
        if not isinstance(objectives, (list, tuple)) or not objectives:
            raise SpecError("'objectives' must be a non-empty list of "
                            "'metric[:min|max]' strings")
        require = payload.get("require")
        parsed = [
            Objective.parse(text, require=require) if isinstance(text, str)
            else Objective.from_dict(_require_mapping(text, "objective"))
            for text in objectives
        ]
        optimizer = payload.get("optimizer", "successive-halving")
        if optimizer not in available_optimizers():
            raise SpecError(
                f"unknown optimizer {optimizer!r}; available: "
                + ", ".join(available_optimizers())
            )
        budget = payload.get("budget")
        if not isinstance(budget, int) or isinstance(budget, bool) \
                or budget <= 0:
            raise SpecError("'budget' must be a positive integer "
                            "(total evaluation count)")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecError("'seed' must be an integer")
        return ExplorationDriver(
            base,
            space,
            parsed,
            optimizer=optimizer,
            optimizer_params=dict(payload.get("optimizer_params") or {}),
            store=self.store if record is not None else None,
            resume=True,
            parallel=self.parallel,
            max_workers=self.max_workers,
            seed=seed,
            progress=self._progress_hook(record) if record else None,
            pool=self.pool,
            policy=policy,
        )

    def _validate_exploration(self, payload: Mapping[str, Any]) -> None:
        self._explore_driver(payload)

    # -- execution (runs on the queue's executor thread) -----------------

    def _progress_hook(self, record: JobRecord):
        def hook(event: BatchProgress) -> None:
            # Counter mutation happens under the queue condition lock
            # (reentrant), the same lock JobQueue.stats() snapshots
            # under — /metrics can never observe a half-applied batch.
            with self.queue._cond:
                record.batches = event.batch
                record.points_computed += event.computed
                record.points_cached += event.cached
                record.points_errors += event.errors
                record.points_total = max(record.points_total, event.total)
            self.queue.emit(record, event.describe())
            self.queue.transition(record)

        return hook

    def _job_policy(self, record: JobRecord) -> SupervisionPolicy:
        """The task-level supervision this job runs under.

        The job's remaining wall budget becomes the per-attempt task
        deadline (so a hung worker is reaped before the job's clock
        runs out) and the job's ``max_retries`` doubles as the
        per-payload retry budget for transient worker crashes.  A job
        with neither gets an idle policy: one unsupervised attempt.
        """
        remaining = record.deadline_remaining()
        return SupervisionPolicy(
            deadline_s=max(0.001, remaining) if remaining is not None
            else None,
            max_retries=record.max_retries,
        )

    def _fail_deadline(self, record: JobRecord) -> None:
        record.status = "failed"
        record.error = (
            f"deadline of {record.deadline_s:g}s exceeded before execution"
        )
        record.finished_s = time.time()
        obs.counter(
            "repro_jobs_deadline_exceeded_total", kind=record.kind
        ).inc()
        obs.instant("job.deadline_exceeded", job_id=record.job_id)
        self.queue.emit(record, f"failed: {record.error}")
        self.queue.transition(record)

    def _execute_job(self, record: JobRecord) -> None:
        remaining = record.deadline_remaining()
        if remaining is not None and remaining <= 0:
            # The budget ran out while the job waited in the queue
            # (or between retry attempts): fail without running.
            self._fail_deadline(record)
            return
        record.status = "running"
        record.started_s = time.time()
        self.queue.emit(record, f"running ({record.kind})")
        self.queue.transition(record)
        policy = self._job_policy(record)
        retry_delay: Optional[float] = None
        with obs.span("job.run", kind=record.kind) as jspan:
            try:
                if record.kind == "run":
                    record.result = self._run_job(record, policy)
                elif record.kind == "sweep":
                    record.result = self._sweep_job(record, policy)
                else:
                    record.result = self._exploration_job(record, policy)
                record.status = "done"
                record.finished_s = time.time()
                self.queue.emit(
                    record,
                    f"done: {record.points_computed} computed, "
                    f"{record.points_cached} cached, "
                    f"{record.points_errors} error(s)",
                )
            except Exception as error:
                # Defensive: submission already validated the request, so
                # this is an unexpected engine failure, not a client error
                # — possibly transient, which is what the job's retry
                # budget is for.
                record.attempts += 1
                record.error = f"{type(error).__name__}: {error}"
                remaining = record.deadline_remaining()
                if record.attempts <= record.max_retries and (
                    remaining is None or remaining > 0
                ):
                    retry_delay = backoff_delay(record.attempts)
                    if remaining is not None:
                        retry_delay = min(retry_delay, remaining)
                else:
                    record.status = "failed"
                    record.finished_s = time.time()
                    self.queue.emit(record, f"failed: {record.error}")
            jspan.annotate(
                status="retrying" if retry_delay is not None
                else record.status
            )
        if retry_delay is not None:
            self.queue.emit(
                record,
                f"attempt {record.attempts} failed ({record.error}); "
                f"retrying in {retry_delay:.2f}s",
            )
            self.queue.requeue(record, retry_delay)
            return
        obs.histogram(
            "repro_jobs_run_seconds", kind=record.kind
        ).observe(max(0.0, record.finished_s - record.started_s))
        self.queue.transition(record)

    def _run_job(
        self,
        record: JobRecord,
        policy: Optional[SupervisionPolicy] = None,
    ) -> Dict[str, Any]:
        # A single run is a one-point sweep: same store dedupe, same
        # resume semantics, same worker path.
        base = self._base_spec(record.request)
        runner = SweepRunner(base, {}, max_workers=self.max_workers)
        record.points_total = 1
        sweep = runner.run(
            parallel=self.parallel,
            store=self.store,
            resume=True,
            capture_traces=self._traces(record.request),
            progress=self._progress_hook(record),
            pool=self.pool,
            policy=policy,
        )
        point = sweep.points[0]
        return {
            "spec_hash": point.spec_hash,
            "name": point.name,
            "metrics": dict(point.metrics),
        }

    def _sweep_job(
        self,
        record: JobRecord,
        policy: Optional[SupervisionPolicy] = None,
    ) -> Dict[str, Any]:
        runner = self._sweep_runner(record.request)
        record.points_total = len(runner)
        sweep = runner.run(
            parallel=self.parallel,
            store=self.store,
            resume=True,
            capture_traces=self._traces(record.request),
            progress=self._progress_hook(record),
            pool=self.pool,
            policy=policy,
        )
        return {
            "points": len(sweep),
            "computed": sweep.computed,
            "cached": sweep.cached,
            "errors": sum(1 for p in sweep if p.error is not None),
            "grid_keys": list(sweep.grid_keys),
            "spec_hashes": list(runner.hashes),
        }

    def _exploration_job(
        self,
        record: JobRecord,
        policy: Optional[SupervisionPolicy] = None,
    ) -> Dict[str, Any]:
        driver = self._explore_driver(record.request, record, policy)
        outcome = driver.run(budget=record.request["budget"])
        best = None
        if outcome.best is not None:
            objective = driver.objectives[0]
            best = {
                "overrides": dict(outcome.best.candidate.overrides),
                "objective": objective.describe(),
                "value": objective.value(outcome.best.result),
                "spec_hash": outcome.best.result.spec_hash,
            }
        return {
            "evaluations": len(outcome),
            "computed": outcome.computed,
            "computed_full": outcome.computed_full,
            "cached": outcome.cached,
            "errors": outcome.errors,
            "batches": outcome.batches,
            "best": best,
            "frontier": [
                dict(e.candidate.overrides) for e in outcome.frontier
            ],
        }

    # -- queries (served on HTTP handler threads) ------------------------

    def results_query(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The ``GET /v1/results`` body for one query-parameter set.

        Supported parameters: ``best=<metric>`` (+``maximize``),
        ``pareto=<cost>,<benefit>``, ``series=<x>,<y>`` (+``name``
        filter), ``limit=<n>`` raw rows.  Defaults to a store summary.
        Every answer reads the live store's query index under its lock,
        so one body describes one prefix of the rows even while the
        executor thread adds more.
        """
        name = params.get("name")
        maximize = _truthy(params.get("maximize"))
        metric = params.get("best")
        best = frontier = series = rows = limit = None
        store = self.store
        with store.lock:
            body: Dict[str, Any] = {
                "rows": len(store),
                "failed": store.count_failed(),
                "columns": store.columns(),
            }
            if metric:
                best = store.best(metric, minimize=not maximize)
            if params.get("pareto"):
                pareto = _pair(params["pareto"], "pareto")
                frontier = pareto_from_store(store, *pareto)
            if params.get("series"):
                series = _pair(params["series"], "series")
                filters = {"name": name} if name else {}
                xs, ys, _rows = series_from_store(store, *series, **filters)
            if params.get("limit"):
                try:
                    limit = int(params["limit"])
                except (TypeError, ValueError):
                    raise SpecError("'limit' must be an integer")
                rows = store.results()
        if best is not None:
            body["best"] = {
                "metric": metric,
                "maximize": maximize,
                "name": best.name,
                "overrides": dict(best.overrides),
                "value": best[metric],
                "spec_hash": best.spec_hash,
            }
        if frontier is not None:
            cost, benefit = pareto
            body["pareto"] = [
                {
                    "name": r.name,
                    "overrides": dict(r.overrides),
                    cost: r[cost],
                    benefit: r[benefit],
                }
                for r in frontier
            ]
        if series is not None:
            body["series"] = {"x": series[0], "y": series[1],
                              "xs": xs, "ys": ys}
        if rows is not None:
            if name:
                rows = [r for r in rows if r.name == name]
            body["results"] = [
                {
                    "spec_hash": r.spec_hash,
                    "name": r.name,
                    "overrides": dict(r.overrides),
                    "metrics": dict(r.metrics),
                }
                for r in rows[:limit]
            ]
        return body

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` body: queue, cache and pool statistics.

        Consistency guarantee: the queue/job counters come from one
        :meth:`JobQueue.stats` snapshot taken under the queue condition
        lock — the same lock every submit, status transition, and
        progress-hook counter update holds — so the reported job counts
        and point totals describe a single instant and can never show a
        half-applied progress batch.  The store/pool/instrument sections
        are each internally consistent reads taken immediately after.
        """
        queue_stats = self.queue.stats()
        points = queue_stats["points"]
        computed = points["computed"]
        cached = points["cached"]
        satisfied = computed + cached
        return {
            "uptime_s": round(time.time() - self.started_s, 3),
            "requests_served": self.requests_served,
            "cpus": os.cpu_count() or 1,
            "jobs": queue_stats["jobs"],
            "queue_depth": queue_stats["queue_depth"],
            "points": {
                "computed": computed,
                "cache_hits": cached,
                "errors": points["errors"],
                "cache_hit_ratio": (
                    round(cached / satisfied, 4) if satisfied else None
                ),
            },
            "store": {
                "rows": len(self.store),
                "path": self.store.path,
            },
            "pool": {
                "parallel": self.parallel,
                "max_workers": (
                    self.pool.max_workers if self.pool is not None
                    else 1
                ),
                "live": (
                    self.pool is not None and self.pool._pool is not None
                ),
                "broken": (
                    self.pool._broken if self.pool is not None else False
                ),
                # The pool-vs-serial perf gate's posture on this host
                # (previously visible only in CI job summaries).
                "gate": pool_gate_status(),
            },
            # The process-wide instrument registry: kernel/pool/store/
            # HTTP counters and histograms (see repro.obs).
            "instruments": obs.registry.snapshot(),
        }

    def metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: text exposition (0.0.4).

        Service-level state (uptime, job counts, queue depth, store
        rows, pool posture) is folded into gauges right before the
        render, so one scrape carries both the event-driven instruments
        and the point-in-time service view.
        """
        stats = self.queue.stats()
        gauge = obs.registry.gauge
        gauge("repro_service_uptime_seconds").set(
            time.time() - self.started_s
        )
        gauge("repro_service_requests_served").set(self.requests_served)
        gauge("repro_service_cpus").set(os.cpu_count() or 1)
        for status, count in stats["jobs"].items():
            gauge("repro_jobs", status=status).set(count)
        gauge("repro_jobs_queue_depth").set(stats["queue_depth"])
        gauge("repro_store_rows").set(len(self.store))
        gate = pool_gate_status()
        gauge("repro_pool_gate_enforced").set(1 if gate["enforced"] else 0)
        gauge("repro_pool_max_workers").set(
            self.pool.max_workers if self.pool is not None else 1
        )
        return obs.registry.render_prometheus()

    def trace(self) -> Dict[str, Any]:
        """The ``GET /v1/trace`` body: the live Chrome-trace window.

        Returns (without draining) the most recent
        :data:`SERVICE_TRACE_EVENT_LIMIT` span events plus a metrics
        snapshot under ``otherData.metrics`` — load it in
        ``about:tracing``/Perfetto, or feed it to ``repro obs``.
        """
        return obs.chrome_trace(metrics=obs.registry.snapshot())

    def healthz(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body: **liveness** (cheap: no store
        traversal).  "The process is up and answering" — nothing more.
        Readiness (can it actually take and execute work?) is the
        separate :meth:`readyz` probe."""
        return {
            "status": "shutting-down" if self._closed else "ok",
            "jobs": self.queue.counts(),
        }

    def readyz(self) -> Dict[str, Any]:
        """The ``GET /readyz`` body: **readiness**.

        Ready means the service can accept and execute jobs at full
        capacity: it is not shutting down, the executor thread is
        alive, and (when parallel) the warm pool is not broken.  The
        body also carries the degradation ladder's current rungs (see
        :mod:`repro.degrade`), so an operator sees "running, but on
        the numpy kernel / serial executor" without profiling.
        """
        executor = self.queue._thread
        checks = {
            "accepting": not self._closed,
            "executor": executor is not None and executor.is_alive(),
            "pool": (
                not self.parallel
                or (self.pool is not None and not self.pool._broken)
            ),
        }
        return {
            "ready": all(checks.values()),
            "checks": checks,
            "degrade": degrade.snapshot(),
        }


def _truthy(value: Any) -> bool:
    return str(value).lower() in ("1", "true", "yes", "on")


def _pair(value: Any, what: str) -> "tuple[str, str]":
    parts = [p.strip() for p in str(value).split(",") if p.strip()]
    if len(parts) != 2:
        raise SpecError(f"'{what}' wants two comma-separated columns, "
                        f"got {value!r}")
    return parts[0], parts[1]
