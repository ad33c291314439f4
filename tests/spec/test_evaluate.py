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


def test_a_serial_point_costs_one_resolution_one_validation_one_hash(
    monkeypatch, tmp_path
):
    """Engagement guard for the compiled spec layer: a serial N-point
    sweep validates each point once and hashes it once (the hash rides
    the payload onto the row), nothing parses a record's spec back, and
    the process parses the base at most once across jobs.  A point's
    spec is serialized twice, for its hash and for its store append;
    the base once per instance."""
    from repro.results import run_result as run_result_mod
    from repro.spec import runner as runner_mod
    from repro.spec.specs import ScenarioSpec

    base = small_base()
    points = 6
    counts = {"hash": 0, "validate": 0, "to_dict": 0}
    parsed = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    real_hash = run_result_mod.spec_hash
    real_from_dict = ScenarioSpec.from_dict.__func__

    def from_dict(cls, payload):
        parsed.append(payload)
        return real_from_dict(cls, payload)

    monkeypatch.setattr(runner_mod, "spec_hash", counting("hash", real_hash))
    monkeypatch.setattr(run_result_mod, "spec_hash",
                        counting("hash", real_hash))
    monkeypatch.setattr(ScenarioSpec, "__post_init__",
                        counting("validate", ScenarioSpec.__post_init__))
    monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(from_dict))
    monkeypatch.setattr(ScenarioSpec, "to_dict",
                        counting("to_dict", ScenarioSpec.to_dict))
    store = ResultStore(str(tmp_path / "runs.jsonl"))
    for job, frequency in enumerate(([4.7, 9.4], [5.5, 7.5])):
        grid = {"capacitance": [22e-6, 33e-6, 47e-6], "frequency": frequency}
        runner = SweepRunner(base, grid)
        assert counts == {"hash": points, "validate": points,
                          "to_dict": points + (job == 0)}
        counts.update(hash=0, validate=0, to_dict=0)
        del parsed[:]
        result = runner.run(parallel=False, store=store)
        assert counts["to_dict"] == points  # the store appends
        # Only the base may be parsed, and only by the first job.
        assert parsed in ([base.to_dict()] if job == 0 else [], [])
        assert counts["hash"] == 0
        assert counts["validate"] == len(parsed)
        assert [row.spec_hash for row in result] == runner.hashes
        assert all(row.spec is spec
                   for row, spec in zip(result, runner.specs))
        counts.update(hash=0, validate=0, to_dict=0)
        del parsed[:]
