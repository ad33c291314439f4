"""The exploration driver: budgeted optimisation over real simulations.

:class:`ExplorationDriver` closes the loop between an ask/tell
:class:`~repro.explore.optimizers.Optimizer` and the rest of the
framework:

* candidate overrides become runnable specs via
  :meth:`ScenarioSpec.with_overrides`, with sub-full fidelity mapped to
  the fast kernel over a proportionally shortened horizon
  (:meth:`spec_for` — the engine's entire fidelity model);
* batches evaluate through the same core a sweep uses
  (:func:`repro.spec.runner.evaluate`), so scenario failures pin error
  rows instead of killing the exploration, and the supervision policy
  (``policy=``) applies the same way in-process and on a pool;
* every evaluation persists as a :class:`RunResult` in a
  :class:`ResultStore`, keyed by spec hash — re-asked points (within a
  run or across resumed runs) cost a dictionary lookup, which is why an
  immediate re-run of a seeded exploration recomputes *nothing*;
* per-batch :class:`BatchProgress` events keep long explorations
  legible (computed vs cached vs error counts).
"""

from __future__ import annotations

import os
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
from repro.results.run_result import (
    RunResult,
    is_worker_crash_error,
    spec_hash,
)
from repro.results.store import ResultStore
from repro.spec.runner import (
    EvaluationStats,
    Executor,
    ProgressHook,
    SupervisionPolicy,
    WarmPool,
    evaluate,
    run_in_process,
    stored_outcome,
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

    def format(self, top: int = 10) -> str:
        """The ranked evaluation table as aligned text."""
        from repro.analysis.report import format_cell, format_table

        return format_table(
            self.columns(),
            [[format_cell(cell) for cell in row]
             for row in self.rows(top=top)],
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
            for free.  A path opens one; its format follows the path
            (see :class:`ResultStore`).
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
        policy: supervise every batch (deadlines, retries, quarantine
            — see :class:`SupervisionPolicy`), in-process and on a pool
            alike.  None = unsupervised.
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
        policy: Optional[SupervisionPolicy] = None,
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
            store = ResultStore(store)
        self.store = store
        self.resume = resume
        self.parallel = parallel
        self.max_workers = max_workers
        self.seed = seed
        self.progress = progress
        self.policy = policy
        #: A caller-owned pool shared across runs (never closed here).
        self.pool = pool

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
                    stored = (stored_outcome(self.store, key)
                              if self.resume else None)
                    if stored is not None:
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
        self,
        batch: Sequence[Candidate],
        seen: Dict[str, RunResult],
        executor: Executor,
    ) -> Tuple[List[Evaluation], int, int, EvaluationStats]:
        """Satisfy one batch.

        Returns ``(evaluations, computed, computed_full, stats)``.
        Candidates already in ``seen`` (this run's non-crash rows) are
        cache hits; the rest go through :func:`evaluate`.
        """
        specs, hashes, fresh_failures = self._build_specs(batch, seen)
        todo = [i for i, key in enumerate(hashes) if key not in seen]
        points = []
        for i in todo:
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
            points.append((specs[i], task, overrides))
        results, stats = evaluate(
            self.base,
            points,
            store=self.store,
            resume=self.resume,
            executor=executor,
            policy=self.policy,
        )
        fresh = dict(zip(todo, results))
        for i, result in fresh.items():
            # Worker crashes stay transient — out of the in-run map as
            # well as the store — so a later re-ask retries them.
            if not is_worker_crash_error(result.error):
                seen.setdefault(hashes[i], result)
        computed = {todo[p] for p in stats.computed} | set(fresh_failures)
        computed_full = sum(
            1 for p in stats.computed
            if batch[todo[p]].fidelity == FULL_FIDELITY
        )
        evaluations = []
        for j, candidate in enumerate(batch):
            result = fresh[j] if j in fresh else seen[hashes[j]]
            evaluations.append(Evaluation(
                candidate=candidate,
                result=result,
                scores=scores(self.objectives, result),
                # Per-evaluation accounting matches the run totals: only
                # the occurrence that paid for the outcome (a worker run,
                # or pinning a fresh build-failure row) is non-cached;
                # in-batch duplicates and store hits are cache hits.
                cached=j not in computed,
            ))
        return evaluations, len(computed), computed_full, stats

    def run(self, budget: Optional[int] = None) -> ExplorationResult:
        """Drive the optimizer until it finishes or exhausts the budget."""
        optimizer = self._make_optimizer(budget)
        seen: Dict[str, RunResult] = {}
        evaluations: List[Evaluation] = []
        computed = cached = computed_full = batches = 0
        # One warm pool for the whole exploration: workers parse the
        # base spec on their first chunk and serve every optimizer
        # batch.  A caller-owned pool takes precedence and outlives the
        # run.
        pool, owned = self.pool, None
        if self.parallel and pool is None:
            pool = owned = WarmPool(max_workers=self.max_workers)
        executor = pool.run if self.parallel else run_in_process
        explore_span = obs.span("explore.run", label=self.base.name)
        explore_span.__enter__()
        try:
            while not optimizer.done:
                batch = optimizer.ask()
                if not batch:
                    break
                batch_evals, batch_computed, batch_full, stats = (
                    self._evaluate(batch, seen, executor)
                )
                optimizer.tell(batch_evals)
                evaluations.extend(batch_evals)
                computed += batch_computed
                computed_full += batch_full
                cached += len(batch_evals) - batch_computed
                batches += 1
                # Progress always flows through the obs layer first (one
                # shared stream), then to any caller hook.
                event = stats.progress(
                    self.base.name, batches, [e.result for e in batch_evals],
                    computed=batch_computed, total=len(evaluations),
                )
                obs.record_progress(event)
                if self.progress is not None:
                    self.progress(event)
        finally:
            explore_span.annotate(batches=batches, computed=computed)
            explore_span.__exit__(None, None, None)
            if owned is not None:
                owned.close()
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
