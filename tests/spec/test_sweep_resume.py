"""Resumable sweeps and sweep failure paths (the results pipeline)."""

import pytest

from repro.errors import SpecError
from repro.results import ResultStore, spec_hash
from repro.spec import SweepRunner, preset
from repro.spec.presets import fig7_spec
from repro.spec import runner as runner_mod


def small_base():
    return fig7_spec(fft_size=64, duration=0.4)


GRID = {"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]}


def counting_worker(monkeypatch):
    """Route the serial path's worker through an invocation counter."""
    calls = []
    real = runner_mod.run_point_payload

    def worker(payload):
        calls.append(payload["overrides"])
        return real(payload)

    monkeypatch.setattr(runner_mod, "run_point_payload", worker)
    return calls


def test_resume_recomputes_only_missing_points(tmp_path, monkeypatch):
    """The acceptance criterion: an interrupted sweep re-invoked with
    resume runs the workers only for the points the store lacks."""
    calls = counting_worker(monkeypatch)
    path = tmp_path / "sweep.jsonl"
    runner = SweepRunner(small_base(), GRID)

    # 'Interrupted' run: only the first two points landed in the store.
    partial = ResultStore(path)
    first_two = SweepRunner(small_base(), {"capacitance": GRID["capacitance"],
                                           "frequency": [4.7]})
    first_two.run(parallel=False, store=partial)
    assert len(calls) == 2 and len(partial) == 2

    resumed = runner.run(
        parallel=False, store=ResultStore(path), resume=True
    )
    # Exactly the two missing (frequency=9.4) points were computed.
    assert len(calls) == 4
    assert [c["frequency"] for c in calls[2:]] == [9.4, 9.4]
    assert resumed.computed == 2 and resumed.cached == 2
    assert len(resumed) == 4

    # A second resume is a pure cache hit: zero worker invocations.
    again = runner.run(parallel=False, store=ResultStore(path), resume=True)
    assert len(calls) == 4
    assert again.computed == 0 and again.cached == 4
    assert [p.metrics for p in again] == [p.metrics for p in resumed]


def test_resumed_rows_equal_fresh_rows(tmp_path):
    """Cache-satisfied points carry bit-identical metrics and keep their
    grid order, index and spec attribution."""
    path = tmp_path / "sweep.jsonl"
    runner = SweepRunner(small_base(), GRID)
    fresh = runner.run(parallel=False)
    runner.run(parallel=False, store=ResultStore(path))
    resumed = runner.run(parallel=False, store=ResultStore(path), resume=True)
    assert resumed.cached == 4 and resumed.computed == 0
    assert [p.metrics for p in resumed] == [p.metrics for p in fresh]
    assert [p.overrides for p in resumed] == [p.overrides for p in fresh]
    assert [p.index for p in resumed] == [0, 1, 2, 3]
    assert all(p.spec == runner.specs[p.index] for p in resumed)


def test_resume_requires_a_store():
    with pytest.raises(SpecError, match="needs a result store"):
        SweepRunner(small_base(), GRID).run(parallel=False, resume=True)


def test_sweep_points_are_hash_keyed():
    runner = SweepRunner(small_base(), GRID)
    assert len(set(runner.hashes)) == len(runner)
    assert runner.hashes == [spec_hash(s) for s in runner.specs]


def test_worker_raising_becomes_error_row(monkeypatch):
    """A worker crash (not a scenario failure) pins an error record to
    its point instead of killing the sweep."""
    real = runner_mod.run_point_payload

    def flaky(payload):
        if payload["overrides"].get("frequency") == 9.4:
            raise RuntimeError("worker exploded")
        return real(payload)

    monkeypatch.setattr(runner_mod, "run_point_payload", flaky)
    result = SweepRunner(small_base(), GRID).run(parallel=False)
    errors = [p.error for p in result]
    assert errors[0] is None and errors[2] is None
    assert "worker exploded" in errors[1] and "RuntimeError" in errors[1]
    # Failed points keep their overrides so the grid stays analysable.
    assert result.points[1].overrides["frequency"] == 9.4


def test_worker_raising_in_process_pool_is_isolated(monkeypatch):
    """Same contract through the pool path: submit-level failures land
    as per-point error rows."""
    monkeypatch.setattr(
        runner_mod, "run_point_payload", _unpicklable_worker_factory()
    )
    result = SweepRunner(small_base(), {"frequency": [4.7, 9.4]}).run(
        parallel=True
    )
    assert len(result) == 2
    for point in result:
        assert point.error is not None


def _unpicklable_worker_factory():
    # A closure cannot be pickled to a worker process, so every submit
    # fails at the infrastructure layer — exactly the path under test.
    def worker(payload):  # pragma: no cover - never actually runs
        raise AssertionError("should not execute")

    return worker


def test_malformed_grid_values_rejected_eagerly():
    with pytest.raises(SpecError, match="non-empty"):
        SweepRunner(small_base(), {"capacitance": []})
    with pytest.raises(SpecError, match="non-empty"):
        SweepRunner(small_base(), {"capacitance": 22e-6})  # not a sequence
    with pytest.raises(SpecError, match="matches nothing"):
        SweepRunner(small_base(), {"not_a_knob": [1, 2]})
    base = small_base()
    twin_harvesters = base.__class__.from_dict(
        dict(base.to_dict(), harvesters=[h.to_dict() for h in base.harvesters] * 2)
    )
    with pytest.raises(SpecError, match="ambiguous"):
        # Two signal-generators: bare 'frequency' could land on either.
        SweepRunner(twin_harvesters, {"frequency": [4.7, 9.4]})


def test_infeasible_value_is_error_row_not_crash():
    # A negative capacitance passes name resolution but fails the
    # factory inside the worker: per-point error, sweep completes.
    result = SweepRunner(
        small_base(), {"capacitance": [-1e-6, 22e-6]}
    ).run(parallel=False)
    assert result.points[0].error is not None
    assert result.points[1].error is None


def test_store_without_resume_recomputes_and_overwrites(tmp_path, monkeypatch):
    calls = counting_worker(monkeypatch)
    path = tmp_path / "sweep.jsonl"
    grid = {"frequency": [4.7, 9.4]}
    SweepRunner(small_base(), grid).run(parallel=False, store=ResultStore(path))
    SweepRunner(small_base(), grid).run(parallel=False, store=ResultStore(path))
    assert len(calls) == 4  # no resume: both runs compute both points
    assert len(ResultStore(path)) == 2  # but the store stays deduped


def test_capture_traces_through_the_sweep(tmp_path):
    path = tmp_path / "sweep.jsonl"
    result = SweepRunner(small_base(), {"frequency": [4.7]}).run(
        parallel=False, store=ResultStore(path), capture_traces=("vcc",)
    )
    trace = result.points[0].trace("vcc")
    assert len(trace) > 0
    # And the trace survives persistence.
    assert ResultStore(path).results()[0].trace("vcc").values.tolist() == \
        trace.values.tolist()


def test_worker_crash_rows_are_not_cached(tmp_path, monkeypatch):
    """A worker crash is transient: its row is never persisted, and a
    resume retries the point (unlike deterministic scenario errors)."""
    path = tmp_path / "sweep.jsonl"
    real = runner_mod.run_point_payload
    crash = {"enabled": True}

    def flaky(payload):
        if crash["enabled"] and payload["overrides"].get("frequency") == 9.4:
            raise RuntimeError("transient infrastructure failure")
        return real(payload)

    monkeypatch.setattr(runner_mod, "run_point_payload", flaky)
    grid = {"frequency": [4.7, 9.4]}
    first = SweepRunner(small_base(), grid).run(
        parallel=False, store=ResultStore(path), resume=True
    )
    assert first.points[1].error is not None
    assert len(ResultStore(path)) == 1  # crash row not persisted

    crash["enabled"] = False  # the infrastructure recovered
    second = SweepRunner(small_base(), grid).run(
        parallel=False, store=ResultStore(path), resume=True
    )
    assert second.computed == 1 and second.cached == 1
    assert all(p.error is None for p in second)
    assert len(ResultStore(path)) == 2


def test_stored_crash_rows_from_old_stores_are_retried(tmp_path):
    """Defensive path: a store that somehow holds a worker-crash row
    (older format) retries that point instead of trusting it."""
    from repro.results import RunResult

    path = tmp_path / "sweep.jsonl"
    grid = {"frequency": [4.7]}
    runner = SweepRunner(small_base(), grid)
    poisoned = ResultStore(path)
    poisoned.add(RunResult.failed(
        runner_mod.WORKER_FAILURE_PREFIX + "BrokenProcessPool: died",
        spec_hash=runner.hashes[0],
        overrides={"frequency": 4.7},
    ))
    result = runner.run(parallel=False, store=ResultStore(path), resume=True)
    assert result.computed == 1 and result.cached == 0
    assert result.points[0].error is None
    assert ResultStore(path).get(runner.hashes[0]).error is None


def test_identical_rerun_does_not_rewrite_the_store(tmp_path, monkeypatch):
    """Deterministic re-runs over a populated store cost no writes."""
    path = tmp_path / "sweep.jsonl"
    grid = {"frequency": [4.7, 9.4]}
    SweepRunner(small_base(), grid).run(parallel=False,
                                        store=ResultStore(path))
    store = ResultStore(path)
    monkeypatch.setattr(
        type(store), "_rewrite",
        lambda self: (_ for _ in ()).throw(AssertionError("rewrote file")),
    )
    again = SweepRunner(small_base(), grid).run(parallel=False, store=store)
    assert again.computed == 2  # recomputed (no resume) but byte-identical
    assert len(ResultStore(path)) == 2


def test_sweep_progress_hook_reports_computed_vs_cached(tmp_path):
    """The observability satellite: one BatchProgress event per run with
    honest computed/cached/error splits."""
    path = tmp_path / "sweep.jsonl"
    events = []
    runner = SweepRunner(small_base(), {"capacitance": [-1e-6, 22e-6]})
    runner.run(parallel=False, store=ResultStore(path),
               progress=events.append)
    assert len(events) == 1
    event = events[0]
    assert event.label == small_base().name and event.batch == 1
    assert event.computed == 2 and event.cached == 0
    assert event.errors == 1  # the negative capacitance pins an error row
    assert event.total == 2
    assert "2 computed, 0 cached, 1 error(s)" in event.describe()

    resumed_events = []
    runner.run(parallel=False, store=ResultStore(path), resume=True,
               progress=resumed_events.append)
    assert resumed_events[0].computed == 0
    assert resumed_events[0].cached == 2
    assert resumed_events[0].errors == 1  # the cached error row still counts


def test_unknown_trace_name_is_rejected_before_any_point(tmp_path,
                                                         monkeypatch):
    """A misspelled trace name fails the call up front: no point runs,
    and the store gets no error row that a later resume would return
    in place of the physics."""
    calls = counting_worker(monkeypatch)
    store = ResultStore(tmp_path / "sweep.jsonl")
    runner = SweepRunner(
        preset("crossover-quickrecall").with_overrides(
            {"kernel": "fast", "duration": 0.5}
        ),
        {"frequency": [5.0]},
    )
    with pytest.raises(SpecError, match="unknown trace name.*'bogus'"):
        runner.run(parallel=False, store=store, capture_traces=("bogus",))
    assert calls == []
    assert len(store) == 0
    resumed = runner.run(parallel=False, store=store, resume=True)
    assert resumed.points[0].ok, resumed.points[0].error
