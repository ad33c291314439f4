"""The exploration driver: budgeted optimisation over real simulations.

:class:`ExplorationDriver` closes the loop between an ask/tell
:class:`~repro.explore.optimizers.Optimizer` and the rest of the
framework:

* candidate overrides become runnable specs via
  :meth:`ScenarioSpec.with_overrides`, with sub-full fidelity mapped to
  the fast kernel over a proportionally shortened horizon
  (:meth:`spec_for` — the engine's entire fidelity model);
* batches evaluate through the same process-pool worker a sweep uses
  (:func:`repro.spec.runner.execute_payloads`), so scenario failures pin
  error rows instead of killing the exploration;
* every evaluation persists as a :class:`RunResult` in a
  :class:`ResultStore`, keyed by spec hash — re-asked points (within a
  run or across resumed runs) cost a dictionary lookup, which is why an
  immediate re-run of a seeded exploration recomputes *nothing*;
* per-batch :class:`BatchProgress` events keep long explorations
  legible (computed vs cached vs error counts).
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExploreError
from repro import obs
from repro.explore.objectives import Objective, normalize_objectives, scores
from repro.explore.optimizers import (
    FULL_FIDELITY,
    Candidate,
    Evaluation,
    Optimizer,
    create_optimizer,
)
from repro.explore.space import SearchSpace
from repro.results.metrics import result_columns
from repro.results.run_result import RunResult, spec_hash
from repro.results.store import ResultStore
from repro.spec.runner import (
    BatchProgress,
    ProgressHook,
    WarmPool,
    _is_worker_crash,
    execute_payloads,
    flatten_batch_records,
    group_batch_payloads,
)
from repro.spec.specs import ScenarioSpec


@dataclass(frozen=True)
class ExplorationResult:
    """Everything one exploration run produced, summarised.

    Attributes:
        name: the base scenario's name.
        objectives: the objectives candidates were scored on.
        evaluations: every evaluation, in ask order.
        best: the feasible evaluation minimising the score tuple, or
            None when nothing was feasible.
        frontier: non-dominated feasible evaluations (multi-objective
            explorations; a single objective collapses it to ``best``).
        computed / cached: how evaluations were satisfied (in-run and
            store dedupe both count as cached).
        computed_full: *computed* evaluations at full fidelity — the
            currency multi-fidelity search economises (each one is a
            full-horizon reference simulation).
        errors: evaluations whose row carries an error (infeasible
            corners, worker crashes).
        batches: optimizer ask/tell round-trips.
        budget: the evaluation budget the run was given.
    """

    name: str
    objectives: Tuple[Objective, ...]
    evaluations: List[Evaluation] = field(default_factory=list)
    best: Optional[Evaluation] = None
    frontier: List[Evaluation] = field(default_factory=list)
    computed: int = 0
    cached: int = 0
    computed_full: int = 0
    errors: int = 0
    batches: int = 0
    budget: int = 0

    def __len__(self) -> int:
        return len(self.evaluations)

    def feasible(self) -> List[Evaluation]:
        return [e for e in self.evaluations if e.feasible]

    def columns(self) -> List[str]:
        """Table layout: axis overrides, fidelity, then objective metrics."""
        axis_names: List[str] = []
        for evaluation in self.evaluations:
            for key in evaluation.candidate.overrides:
                if key not in axis_names:
                    axis_names.append(key)
        metric_names = [
            o.metric for o in self.objectives if o.metric not in axis_names
        ]
        return axis_names + ["fidelity"] + metric_names + ["feasible"]

    def rows(self, top: Optional[int] = None) -> List[List[Any]]:
        """One row per evaluation, best-ranked first.

        ``top`` truncates to the N best; infeasible evaluations rank
        after every feasible one (and are dropped entirely when ``top``
        is given and enough feasible rows exist).
        """
        ordered = sorted(self.evaluations, key=lambda e: e.scores)
        if top is not None:
            ordered = ordered[:top]
        columns = self.columns()
        rows = []
        for evaluation in ordered:
            row: List[Any] = []
            for column in columns:
                if column == "fidelity":
                    row.append(evaluation.candidate.fidelity)
                elif column == "feasible":
                    row.append(evaluation.feasible)
                elif column in evaluation.candidate.overrides:
                    row.append(evaluation.candidate.overrides[column])
                else:
                    row.append(evaluation.result.get(column))
            rows.append(row)
        return rows

    def format(self, top: int = 10, floatfmt: str = "{:.4g}") -> str:
        """The ranked evaluation table as aligned text."""
        from repro.analysis.report import format_table

        def fmt(value: Any) -> str:
            if value is None:
                return "-"
            if isinstance(value, bool):
                return "yes" if value else "no"
            if isinstance(value, float):
                return floatfmt.format(value)
            return str(value)

        return format_table(
            self.columns(),
            [[fmt(cell) for cell in row] for row in self.rows(top=top)],
        )

    def describe(self) -> str:
        """A one-paragraph summary of how the budget was spent."""
        lines = [
            f"exploration: {self.name}, "
            f"{len(self.evaluations)} evaluation(s) in {self.batches} "
            f"batch(es) (budget {self.budget})",
            f"  {self.computed} computed ({self.computed_full} at full "
            f"fidelity), {self.cached} cached, {self.errors} error(s)",
        ]
        if self.best is None:
            lines.append("  no feasible evaluation")
        else:
            objective = self.objectives[0]
            value = objective.value(self.best.result)
            lines.append(
                f"  best ({objective.describe()}): "
                f"{self.best.candidate.overrides} -> {value:.6g}"
            )
        if len(self.objectives) > 1 and self.frontier:
            lines.append(
                f"  frontier: {len(self.frontier)} non-dominated point(s)"
            )
        return "\n".join(lines)


class ExplorationDriver:
    """Evaluate optimizer candidates against real (memoised) simulations.

    Args:
        base: the scenario every candidate perturbs.
        space: the search space; validated against ``base`` eagerly.
        objectives: Objectives (or ``"metric[:min|max]"`` strings) to
            score evaluations on; metrics must be registry columns or
            search-axis overrides.
        optimizer: registry name (see
            :func:`~repro.explore.optimizers.available_optimizers`) or a
            ready :class:`Optimizer` instance.
        optimizer_params: extra keyword arguments for a by-name
            optimizer.
        store: persist every evaluation here; with ``resume`` (the
            default) previously stored rows satisfy re-asked candidates
            for free.  A path opens one — ``.colstore`` selects the
            sharded columnar backend, anything else JSONL
            (``store_backend`` overrides).
        resume: reuse rows the store already holds (stored worker-crash
            rows are never reused).
        parallel / max_workers: process-pool knobs, as for
            :class:`SweepRunner`.
        seed: optimizer RNG seed — fix it and a re-run asks the
            identical candidate sequence (the cache-hit guarantee).
        progress: optional per-batch :class:`BatchProgress` hook.
        pool: a caller-managed :class:`WarmPool` to evaluate on.  The
            driver then leaves lifecycle to the caller (the pool stays
            open after :meth:`run`) — how the ``repro serve`` executor
            shares one warm pool across every job.
        batch_size: evaluate each ask-batch through the batched SoA
            kernel, grouping same-topology candidates into batches of up
            to this many members (``0`` = auto, ``None``/``1`` =
            per-candidate execution).  Results and spec hashes are
            identical either way.
    """

    def __init__(
        self,
        base: ScenarioSpec,
        space: SearchSpace,
        objectives: Sequence[Any],
        *,
        optimizer: Union[str, Optimizer] = "successive-halving",
        optimizer_params: Optional[Dict[str, Any]] = None,
        store: Optional[Union[ResultStore, str, "os.PathLike[str]"]] = None,
        resume: bool = True,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        seed: int = 0,
        progress: Optional[ProgressHook] = None,
        pool: Optional[WarmPool] = None,
        store_backend: Optional[str] = None,
        batch_size: Optional[int] = None,
    ):
        self.base = base
        self.space = space
        space.validate_against(base)
        self.objectives = normalize_objectives(objectives)
        known = list(space.names()) + result_columns()
        for objective in self.objectives:
            objective.validate(known)
            # A categorical axis can never score (values are not
            # numbers): fail before the first simulation, not after the
            # whole budget scored +inf.
            if objective.metric in space.names() and \
                    space.axis(objective.metric).kind == "categorical":
                raise ExploreError(
                    f"objective {objective.metric!r} is a categorical "
                    "axis; objectives need numeric columns — make the "
                    "category an axis and optimise a metric instead"
                )
        if isinstance(optimizer, Optimizer) and optimizer_params:
            raise ExploreError(
                "optimizer_params only apply when the optimizer is "
                "given by name"
            )
        self.optimizer = optimizer
        self.optimizer_params = dict(optimizer_params or {})
        if store is not None and not isinstance(store, ResultStore):
            # A path selects its backend by suffix (`.colstore` ->
            # columnar) unless store_backend overrides it.
            store = ResultStore(store, backend=store_backend)
        self.store = store
        self.resume = resume
        self.parallel = parallel
        self.max_workers = max_workers
        self.seed = seed
        self.progress = progress
        self.batch_size = batch_size
        #: A caller-owned pool shared across runs (never closed here).
        self._external_pool = pool
        #: The warm-worker pool serving the current run(), if parallel.
        self._pool: Optional[WarmPool] = None
        #: Batched-kernel stats from the most recent _evaluate() call
        #: (empty when nothing batched); surfaced on progress events.
        self._last_batch_stats: Dict[str, int] = {}

    # -- the fidelity model ----------------------------------------------

    def spec_for(self, candidate: Candidate) -> ScenarioSpec:
        """The runnable spec for one candidate: overrides plus fidelity.

        Full fidelity is the base spec with the candidate's overrides —
        full horizon, the base's own kernel.  Sub-full fidelity
        substitutes the fast kernel and scales the *candidate's* horizon
        (so a searched ``duration`` axis keeps its per-candidate value,
        just shortened) by the fidelity: cheap, monotone (raising
        fidelity only extends the horizon), and honest — the fast
        kernel matches the reference to 1e-9, so the *only* information
        lost is whatever happens after the shortened horizon.  Because
        fidelity lands in ``duration``/``kernel``, it participates in
        the spec hash: evaluations at different fidelities cache
        independently.
        """
        spec = self.base.with_overrides(candidate.overrides)
        if candidate.fidelity < FULL_FIDELITY:
            spec = spec.with_override(
                "duration", spec.duration * candidate.fidelity
            )
            spec = spec.with_override("kernel", "fast")
        return spec

    # -- evaluation ------------------------------------------------------

    def _make_optimizer(self, budget: Optional[int]) -> Optimizer:
        if isinstance(self.optimizer, Optimizer):
            if budget is not None and budget != self.optimizer.budget:
                raise ExploreError(
                    "pass the budget either to run() or to the optimizer "
                    "instance, not two different values"
                )
            if self.optimizer._asked:
                # A consumed instance would make run() return an empty
                # evaluation list alongside the stale best/frontier of
                # its first drive — self-contradictory numbers.
                raise ExploreError(
                    "this optimizer instance was already driven; pass a "
                    "fresh instance (or the optimizer by name, which is "
                    "rebuilt per run) to explore again"
                )
            return self.optimizer
        if budget is None:
            raise ExploreError(
                "run() needs a budget when the optimizer is given by name"
            )
        return create_optimizer(
            self.optimizer,
            self.space,
            self.objectives,
            budget,
            seed=self.seed,
            **self.optimizer_params,
        )

    def _build_specs(
        self, batch: Sequence[Candidate], seen: Dict[str, RunResult]
    ) -> Tuple[List[Optional[ScenarioSpec]], List[str], List[int]]:
        """Specs and cache keys per candidate; build failures pin rows.

        Individual axis values are validated eagerly
        (:meth:`SearchSpace.validate_against`), but a cross-axis
        *combination* can still be unbuildable (a strategy choice
        rejecting another axis's strategy param).  Those are
        deterministic outcomes: they become error rows keyed by the
        candidate's content hash — cached and persisted like any
        infeasible scenario — instead of killing the exploration
        mid-budget.  The returned indices are the batch positions whose
        failure row was pinned *fresh* here (counted as computed work;
        store- or seen-satisfied failures count as cached).
        """
        from repro.errors import SpecError
        from repro.results.run_result import content_hash

        specs: List[Optional[ScenarioSpec]] = []
        keys: List[str] = []
        fresh_failures: List[int] = []
        for i, candidate in enumerate(batch):
            try:
                spec = self.spec_for(candidate)
                key = spec_hash(spec)
            except SpecError as error:
                spec = None
                key = content_hash({
                    "base": spec_hash(self.base),
                    "overrides": candidate.overrides,
                    "fidelity": candidate.fidelity,
                })
                if key not in seen:
                    stored = (self.store.get(key)
                              if self.resume and self.store is not None
                              else None)
                    if stored is not None and not _is_worker_crash(stored):
                        seen[key] = stored
                    else:
                        failed = RunResult.failed(
                            f"{type(error).__name__}: {error}",
                            spec_hash=key,
                            name=self.base.name,
                            overrides=dict(candidate.overrides),
                        )
                        seen[key] = failed
                        fresh_failures.append(i)
                        if self.store is not None:
                            self.store.add(failed, overwrite=True)
            specs.append(spec)
            keys.append(key)
        return specs, keys, fresh_failures

    def _evaluate(
        self, batch: Sequence[Candidate], seen: Dict[str, RunResult],
        index_base: int,
    ) -> Tuple[List[Evaluation], int, int]:
        """Satisfy one batch; returns (evaluations, computed, full)."""
        specs, hashes, fresh_failures = self._build_specs(batch, seen)
        to_compute: List[int] = []
        for i, key in enumerate(hashes):
            if key in seen:
                continue
            if self.resume and self.store is not None:
                stored = self.store.get(key)
                if stored is not None and not _is_worker_crash(stored):
                    seen[key] = stored.with_context(
                        index=index_base + i, spec=specs[i]
                    )
                    continue
            if key not in {hashes[j] for j in to_compute}:
                to_compute.append(i)
        payloads = []
        for i in to_compute:
            overrides = dict(batch[i].overrides)
            if batch[i].fidelity != FULL_FIDELITY:
                overrides["fidelity"] = batch[i].fidelity
            # Warm-worker task: ship only the override dict that
            # reproduces spec_for(candidate) against the shared base —
            # the candidate's axes plus, at sub-full fidelity, the
            # already-scaled horizon and the fast kernel.
            task = dict(batch[i].overrides)
            if batch[i].fidelity < FULL_FIDELITY:
                task["duration"] = specs[i].duration
                task["kernel"] = specs[i].kernel
            payloads.append({
                "spec_overrides": task,
                "overrides": overrides,
            })
        self._last_batch_stats = {}
        if (self.batch_size is not None and self.batch_size != 1
                and len(payloads) > 1):
            grouped, order = group_batch_payloads(
                payloads, [specs[i] for i in to_compute], self.batch_size
            )
            raw = execute_payloads(
                grouped,
                parallel=self.parallel,
                max_workers=self.max_workers,
                base_spec=self.base.to_dict(),
                pool=self._pool,
            )
            flat, self._last_batch_stats = flatten_batch_records(raw)
            records: List[Optional[Dict[str, Any]]] = [None] * len(payloads)
            for position, record in zip(order, flat):
                records[position] = record
            from repro.spec.runner import WORKER_FAILURE_PREFIX

            records = [
                record if record is not None else RunResult.failed(
                    f"{WORKER_FAILURE_PREFIX}batch worker returned no "
                    "record",
                    spec_hash=hashes[to_compute[position]],
                    name=self.base.name,
                    overrides=dict(batch[to_compute[position]].overrides),
                ).to_record()
                for position, record in enumerate(records)
            ]
        else:
            records = execute_payloads(
                payloads,
                parallel=self.parallel,
                max_workers=self.max_workers,
                base_spec=self.base.to_dict(),
                pool=self._pool,
            )
        computed_full = 0
        transient: Dict[str, RunResult] = {}
        store_batch = (
            self.store.batch() if self.store is not None
            else nullcontext()
        )
        with store_batch:
            for i, record in zip(to_compute, records):
                result = RunResult.from_record(record).with_context(
                    index=index_base + i, spec=specs[i]
                )
                if batch[i].fidelity == FULL_FIDELITY:
                    computed_full += 1
                # Deterministic outcomes (successes and infeasible-
                # scenario error rows) are cacheable; worker crashes stay
                # transient — out of the store AND the in-run map, so a
                # later re-ask of the point retries it, exactly as
                # SweepRunner's resume does.
                if _is_worker_crash(result):
                    transient[hashes[i]] = result
                else:
                    seen[hashes[i]] = result
                    if self.store is not None:
                        self.store.add(result, overwrite=True)
        evaluations = []
        computed_indices = set(to_compute) | set(fresh_failures)
        for j, (candidate, key) in enumerate(zip(batch, hashes)):
            result = seen.get(key, transient.get(key))
            evaluations.append(Evaluation(
                candidate=candidate,
                result=result,
                scores=scores(self.objectives, result),
                # Per-evaluation accounting matches the run totals: only
                # the occurrence that paid for the outcome (a worker run,
                # or pinning a fresh build-failure row) is non-cached;
                # in-batch duplicates and store hits are cache hits.
                cached=j not in computed_indices,
            ))
        return evaluations, len(computed_indices), computed_full

    def run(self, budget: Optional[int] = None) -> ExplorationResult:
        """Drive the optimizer until it finishes or exhausts the budget."""
        optimizer = self._make_optimizer(budget)
        seen: Dict[str, RunResult] = {}
        evaluations: List[Evaluation] = []
        computed = cached = computed_full = batches = 0
        # One warm pool for the whole exploration: workers initialise
        # from the base spec once and serve every optimizer batch.  A
        # caller-owned pool takes precedence and outlives the run.
        owns_pool = self._external_pool is None and self.parallel
        self._pool = self._external_pool or (
            WarmPool(
                max_workers=self.max_workers,
                base_spec=self.base.to_dict(),
            )
            if self.parallel else None
        )
        explore_span = obs.span("explore.run", label=self.base.name)
        explore_span.__enter__()
        try:
            while not optimizer.done:
                batch = optimizer.ask()
                if not batch:
                    break
                batch_evals, batch_computed, batch_full = self._evaluate(
                    batch, seen, index_base=len(evaluations)
                )
                optimizer.tell(batch_evals)
                evaluations.extend(batch_evals)
                computed += batch_computed
                computed_full += batch_full
                cached += len(batch_evals) - batch_computed
                batches += 1
                # Progress always flows through the obs layer first (one
                # shared stream), then to any caller hook.
                stats = self._last_batch_stats
                event = BatchProgress(
                    label=self.base.name,
                    batch=batches,
                    computed=batch_computed,
                    cached=len(batch_evals) - batch_computed,
                    errors=sum(
                        1 for e in batch_evals
                        if e.result.error is not None
                    ),
                    total=len(evaluations),
                    members=stats.get("members") if stats else None,
                    passes=stats.get("passes"),
                    advanced=stats.get("advanced"),
                    settled=stats.get("settled"),
                    diverged=stats.get("diverged"),
                    scalar_chunks=stats.get("scalar_chunks"),
                )
                obs.record_progress(event)
                if self.progress is not None:
                    self.progress(event)
        finally:
            explore_span.annotate(batches=batches, computed=computed)
            explore_span.__exit__(None, None, None)
            if self._pool is not None and owns_pool:
                self._pool.close()
            self._pool = None
        frontier = optimizer.frontier()
        return ExplorationResult(
            name=self.base.name,
            objectives=self.objectives,
            evaluations=evaluations,
            best=optimizer.best(),
            frontier=frontier,
            computed=computed,
            cached=cached,
            computed_full=computed_full,
            errors=sum(1 for e in evaluations if e.result.error is not None),
            batches=batches,
            budget=optimizer.budget,
        )
