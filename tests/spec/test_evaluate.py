"""The one evaluation core: sweeps and explorations agree row for row.

:class:`GridSearch` is documented as the optimizer equivalent of handing
:meth:`SearchSpace.grid` to :class:`SweepRunner`.  Both callers now reach
:func:`repro.spec.runner.evaluate`, so they must write identical
``(spec_hash, metrics)`` rows on every execution path, and share one
resume rule: stored worker crashes recompute, stored deterministic
outcomes (infeasible rows included) are reused.
"""

import pytest

from repro import obs
from repro.explore import Axis, ExplorationDriver, SearchSpace
from repro.results.run_result import WORKER_FAILURE_PREFIX, RunResult
from repro.results.store import ResultStore
from repro.spec import SweepRunner
from repro.spec.presets import fig7_spec

#: 8e-6 F is below the Eq. (4) threshold (an infeasible error row); the
#: other grid points complete.
SPACE = SearchSpace.of(Axis.log("capacitance", 8e-6, 68e-6))
RESOLUTION = 4


def small_base():
    return fig7_spec(fft_size=64, duration=0.25).with_override(
        "kernel", "fast"
    )


def grid_values():
    return [point["capacitance"] for point in SPACE.grid(RESOLUTION)]


def run_caller(caller, store, resume=False, parallel=False, batch_size=None,
               progress=None):
    """Evaluate the grid through ``caller``; (results, computed).

    ``batch_size`` reaches only the sweep, whose ``run`` accepts and
    ignores it.
    """
    if caller == "sweep":
        sweep = SweepRunner(
            small_base(), {"capacitance": grid_values()}, max_workers=2
        ).run(
            parallel=parallel, store=store, resume=resume,
            batch_size=batch_size, progress=progress,
        )
        return list(sweep.points), sweep.computed
    outcome = ExplorationDriver(
        small_base(), SPACE, ["completion_time"],
        optimizer="grid", optimizer_params={"resolution": RESOLUTION},
        store=store, resume=resume, parallel=parallel, max_workers=2,
        progress=progress,
    ).run(budget=RESOLUTION)
    return [e.result for e in outcome.evaluations], outcome.computed


def pool_tasks():
    """Payloads submitted to a worker pool so far."""
    return sum(
        row["value"] for row in obs.registry.snapshot()["counters"]
        if row["name"] == "repro_pool_tasks_total"
        and dict(row["labels"]) == {"mode": "pool"}
    )


def store_rows(store):
    return sorted(
        ((row.spec_hash, row.metrics) for row in store), key=lambda r: r[0]
    )


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("batch_size", [1, 0])
def test_sweep_and_grid_exploration_write_identical_rows(
    tmp_path, batch_size, parallel
):
    sweep_store = ResultStore(str(tmp_path / "sweep.jsonl"))
    explore_store = ResultStore(str(tmp_path / "explore.jsonl"))
    events = []
    before = pool_tasks()
    run_caller(
        "sweep", sweep_store, parallel=parallel, batch_size=batch_size,
        progress=events.append,
    )
    # Whatever the ignored batch_size (0 was once "auto", which ran a
    # one-topology grid as a single in-process payload), a parallel
    # sweep submits every point to the pool as its own task.
    assert pool_tasks() - before == (RESOLUTION if parallel else 0)
    run_caller(
        "exploration", explore_store, parallel=parallel,
        progress=events.append,
    )
    # One event per caller (the grid is one optimizer batch).
    assert len(events) == 2
    rows = store_rows(sweep_store)
    assert len(rows) == RESOLUTION
    assert sum(1 for _, metrics in rows if metrics["error"]) == 1
    assert rows == store_rows(explore_store)


@pytest.mark.parametrize("caller", ["sweep", "exploration"])
def test_resume_recomputes_crash_rows_and_reuses_infeasible_rows(
    tmp_path, caller
):
    clean, _ = run_caller(caller, ResultStore())
    infeasible = next(r for r in clean if r.error is not None)
    feasible = next(r for r in clean if r.error is None)
    store = ResultStore(str(tmp_path / "resume.jsonl"))
    store.add(RunResult.failed(
        f"{WORKER_FAILURE_PREFIX}RuntimeError: worker died",
        spec_hash=feasible.spec_hash, name=feasible.name,
        overrides=dict(feasible.overrides),
    ))
    # A distinct message proves the stored row is the one returned.
    store.add(RunResult.failed(
        "SpecError: stored infeasible row",
        spec_hash=infeasible.spec_hash, name=infeasible.name,
        overrides=dict(infeasible.overrides),
    ))

    results, computed = run_caller(caller, store, resume=True)

    assert computed == RESOLUTION - 1
    by_hash = {r.spec_hash: r for r in results}
    assert by_hash[infeasible.spec_hash].error == (
        "SpecError: stored infeasible row"
    )
    assert by_hash[feasible.spec_hash].metrics == feasible.metrics
    assert store.get(feasible.spec_hash).metrics == feasible.metrics


def test_sweep_computes_a_repeated_grid_value_once():
    """A grid value listed twice is one spec hash: computed once, and
    returned at both grid positions."""
    sweep = SweepRunner(
        small_base(), {"capacitance": [22e-6, 22e-6]}
    ).run(parallel=False)
    assert (sweep.computed, sweep.cached) == (1, 1)
    assert [p.index for p in sweep] == [0, 1]
    assert sweep.points[0].metrics == sweep.points[1].metrics
