"""End-to-end instrumentation: real runs populate metrics and spans.

The acceptance test for the observability layer lives here: one traced
store-backed sweep must produce spans from the kernel, pool, and store
layers in a single Chrome-trace export, with the worker processes'
counters merged back into the parent registry.
"""

import json

import pytest

from repro import obs
from repro.results import ResultStore
from repro.spec.presets import fig7_spec
from repro.spec.runner import SweepRunner, pool_gate_status


def _counter_total(name):
    return sum(
        c["value"] for c in obs.registry.snapshot()["counters"]
        if c["name"] == name
    )


def test_single_run_bumps_kernel_metrics():
    fig7_spec(fft_size=64, duration=0.2).run()
    assert _counter_total("repro_kernel_runs_total") == 1
    assert _counter_total("repro_kernel_steps_total") > 0


def test_traced_sweep_covers_kernel_pool_store(tmp_path):
    """The acceptance criterion: kernel+pool+store spans in one trace."""
    store = ResultStore(str(tmp_path / "points.jsonl"))
    base = fig7_spec(fft_size=64, duration=0.2)
    runner = SweepRunner(base, {"frequency": [4.7, 9.4]})
    with obs.capture():
        result = runner.run(parallel=True, store=store)
    assert result.computed == 2

    path = tmp_path / "trace.json"
    obs.export_trace(str(path))
    body = json.loads(path.read_text())
    cats = {e["cat"] for e in body["traceEvents"] if e["ph"] == "X"}
    assert {"kernel", "pool", "store", "sweep"} <= cats

    # Worker-process kernel counters merged back into this registry.
    assert _counter_total("repro_kernel_runs_total") == 2
    assert _counter_total("repro_pool_tasks_total") == 2
    assert _counter_total("repro_store_rows_appended_total") == 2
    assert _counter_total("repro_points_computed_total") == 2

    # Chunk-wait and worker-busy histograms observed per chunk.
    hists = {h["name"]: h for h in obs.registry.snapshot()["histograms"]}
    assert hists["repro_pool_chunk_wait_seconds"]["count"] >= 1
    assert hists["repro_pool_worker_busy_seconds"]["count"] >= 1


def test_resumed_sweep_counts_cached_points(tmp_path):
    store = ResultStore(str(tmp_path / "points.jsonl"))
    base = fig7_spec(fft_size=64, duration=0.2)
    grid = {"frequency": [4.7, 9.4]}
    SweepRunner(base, grid).run(parallel=False, store=store)
    obs.registry.reset()
    result = SweepRunner(base, grid).run(
        parallel=False, store=store, resume=True
    )
    assert result.cached == 2
    assert _counter_total("repro_points_cached_total") == 2
    assert _counter_total("repro_points_computed_total") == 0


def test_serial_sweep_records_serial_mode():
    base = fig7_spec(fft_size=64, duration=0.2)
    SweepRunner(base, {"frequency": [4.7]}).run(parallel=False)
    counters = {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in obs.registry.snapshot()["counters"]
    }
    assert counters[
        ("repro_pool_tasks_total", (("mode", "serial"),))
    ] == 1


def test_store_dedupe_hits_count_rejected_adds(tmp_path):
    from repro.results import RunResult

    store = ResultStore(str(tmp_path / "points.jsonl"))
    base = fig7_spec(fft_size=64, duration=0.2)
    SweepRunner(base, {"frequency": [4.7]}).run(parallel=False, store=store)
    row = next(iter(store))
    assert store.add(row) is False  # same spec hash: dedupe
    assert _counter_total("repro_store_dedupe_hits_total") == 1


def test_a_stored_spec_that_no_longer_validates_is_counted(tmp_path):
    """A row whose stored spec the current code rejects still loads
    (spec=None, metrics queryable), and the drop is counted, not silent."""
    path = tmp_path / "points.jsonl"
    base = fig7_spec(fft_size=64, duration=0.2)
    SweepRunner(base, {"frequency": [4.7, 9.4]}).run(
        parallel=False, store=str(path)
    )
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["spec"]["storage"]["kind"] = "retired-capacitor"
    path.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    obs.registry.reset()
    rows = {row.spec_hash: row for row in ResultStore(str(path))}
    assert rows[record["spec_hash"]].spec is None
    assert rows[record["spec_hash"]].metrics == record["metrics"]
    assert sum(row.spec is None for row in rows.values()) == 1
    assert _counter_total("repro_store_spec_dropped_total") == 1


def test_disabled_obs_records_nothing_during_a_run():
    previous = obs.set_obs_enabled(False)
    try:
        fig7_spec(fft_size=64, duration=0.2).run()
    finally:
        obs.set_obs_enabled(previous)
    assert obs.registry.snapshot()["counters"] == []


def test_pool_gate_status_reports_cpu_policy():
    status = pool_gate_status(cpus=8)
    assert status == {"cpus": 8, "min_cpus": 2, "enforced": True}
    assert pool_gate_status(cpus=1)["enforced"] is False
    assert set(pool_gate_status()) == {"cpus", "min_cpus", "enforced"}


def test_fast_run_counts_fallback_steps_by_reason():
    from repro.spec.presets import preset

    spec = preset("crossover-quickrecall").with_overrides(
        {"kernel": "fast", "frequency": 40.0}
    )
    system = spec.build()
    system.run(spec.duration)
    by_reason = {
        c["labels"]["reason"]: c["value"]
        for c in obs.registry.snapshot()["counters"]
        if c["name"] == "repro_kernel_fallback_steps_by_reason_total"
    }
    assert set(by_reason) == {"event", "refused", "backoff", "unchunkable"}
    assert by_reason == system.simulator.chunk_stats.fallbacks
    assert sum(by_reason.values()) == _counter_total(
        "repro_kernel_fallback_steps_total"
    )


def _by_transition(name):
    return {
        c["labels"]["transition"]: c["value"]
        for c in obs.registry.snapshot()["counters"]
        if c["name"] == name
    }


def test_fast_run_counts_inline_and_python_transitions_once_per_run():
    """Transitions the chunk loops follow are counted once per run by
    name; every return to Python is counted under the transition it
    stopped before: here Hibernus++'s adaptation hooks."""
    import dataclasses

    from repro.spec.presets import preset

    spec = preset("crossover-hibernus", frequency=40.0).with_override(
        "kernel", "fast"
    )
    spec = dataclasses.replace(spec, platform=dataclasses.replace(
        spec.platform, strategy="hibernus++",
        strategy_params={"v_restore_initial": 3.0},
    ))
    system = spec.build()
    run = system.run(spec.duration)
    stats = system.simulator.chunk_stats
    inline = _by_transition("repro_kernel_inline_transitions_total")
    python = _by_transition("repro_kernel_fallback_transitions_total")
    assert inline == {k: v for k, v in stats.transitions.items() if v}
    assert python == {
        k: v for k, v in stats.fallback_transitions.items() if v
    }
    assert {"boot", "snapshot", "restore"} <= set(inline)
    assert {"snapshot-done", "restore-done", "brownout"} <= set(python)
    assert inline == {
        k: v for k, v in run.chunk_stats.transitions.items() if v
    }


def test_interpreter_and_checkpoint_returns_are_labelled():
    """Entering ACTIVE on the interpreter, and Mementos' checkpoint
    sites, show under their transition names."""
    import dataclasses

    from repro.spec.presets import preset

    spec = preset("fig7", fft_size=64).with_override("kernel", "fast")
    spec.build().run(spec.duration)
    python = _by_transition("repro_kernel_fallback_transitions_total")
    assert python.get("restore-done", 0) + python.get("cold-start", 0) > 0
    obs.registry.reset()
    spec = preset("crossover-hibernus").with_override("kernel", "fast")
    spec = dataclasses.replace(spec, platform=dataclasses.replace(
        spec.platform, strategy="mementos", strategy_params={},
    ))
    spec.build().run(0.2)
    python = _by_transition("repro_kernel_fallback_transitions_total")
    assert python.get("checkpoint-site", 0) > 0


def _kernel_counters():
    """Every ``repro_kernel_*`` counter by (name, labels), plus the
    run-seconds histogram's sum."""
    snapshot = obs.registry.snapshot()
    values = {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in snapshot["counters"] if c["name"].startswith("repro_kernel_")
    }
    for h in snapshot["histograms"]:
        if h["name"] == "repro_kernel_run_seconds":
            values["run_seconds"] = h["sum"]
    return values


def _expected(record, kernel, steps):
    """The counters one run of ``steps`` steps exports from its record,
    zeros dropped."""
    want = {
        ("repro_kernel_runs_total", (("kernel", kernel),)): 1,
        ("repro_kernel_steps_total", (("kernel", kernel),)): steps,
    }
    if kernel == "fast":
        want["repro_kernel_chunks_total", ()] = record.chunks
        want["repro_kernel_chunked_steps_total", ()] = record.chunked_steps
        want["repro_kernel_fallback_steps_total", ()] = record.fallback_steps
        for reason, count in record.fallbacks.items():
            want["repro_kernel_fallback_steps_by_reason_total",
                 (("reason", reason),)] = count
        for name, count in record.transitions.items():
            want["repro_kernel_inline_transitions_total",
                 (("transition", name),)] = count
        for name, count in record.fallback_transitions.items():
            want["repro_kernel_fallback_transitions_total",
                 (("transition", name),)] = count
    for part, seconds in record.parts.items():
        want["repro_kernel_part_seconds_total", (("part", part),)] = seconds
    return {
        key: pytest.approx(value, rel=1e-9, abs=1e-12)
        if isinstance(value, float) else value
        for key, value in want.items() if value
    }


def _run_delta(system, duration):
    """One run's record, its steps and its counter deltas (zero deltas
    dropped, run seconds apart)."""
    before = _kernel_counters()
    steps = system.simulator.steps
    record = system.run(duration).chunk_stats
    steps = system.simulator.steps - steps
    after = _kernel_counters()
    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    seconds = delta.pop("run_seconds")
    return record, steps, {k: v for k, v in delta.items() if v}, seconds


def _assert_parts_cover(record, seconds):
    parts = record.parts
    assert set(parts) == {"prepare", "loop", "commit", "step"}
    assert all(value >= 0.0 for value in parts.values()), parts
    assert sum(parts.values()) == pytest.approx(seconds, rel=0.05), (
        parts, seconds)


@pytest.fixture(params=["python", "c"])
def rung(request, monkeypatch):
    from repro import degrade
    from repro.sim import _ckernel

    if request.param == "python":
        monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
    else:
        monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
    _ckernel.reset_cache()
    degrade.reset()
    if request.param == "c" and _ckernel.load() is None:
        pytest.skip("the compiled library does not load here")
    obs.registry.reset()
    yield request.param
    monkeypatch.undo()
    _ckernel.reset_cache()
    degrade.reset()


def _hibernus_pp_system():
    import dataclasses

    from repro.spec.presets import preset

    spec = preset("crossover-hibernus", frequency=40.0).with_override(
        "kernel", "fast"
    )
    spec = dataclasses.replace(spec, platform=dataclasses.replace(
        spec.platform, strategy="hibernus++",
        strategy_params={"v_restore_initial": 3.0},
    ))
    return spec.build()


def test_each_run_exports_its_own_record(rung):
    """Two runs of one system: each run's counter deltas are its own
    record, the simulator's statistics are their sum, and the four
    parts partition each run's wall time."""
    system = _hibernus_pp_system()
    records = []
    for duration in (0.5, 0.5):
        record, steps, delta, seconds = _run_delta(system, duration)
        assert steps == record.chunked_steps + record.fallback_steps
        assert delta == _expected(record, "fast", steps)
        _assert_parts_cover(record, seconds)
        assert all(record.parts.values()), record.parts
        records.append(record)
    first, second = records
    assert first.chunks and second.chunks
    assert sum(second.fallback_transitions.values()) > 0
    assert sum(second.transitions.values()) > 0
    stats = system.simulator.chunk_stats
    for name in ("chunks", "chunked_steps", "fallback_steps"):
        assert getattr(stats, name) == (
            getattr(first, name) + getattr(second, name)), name
    for name in ("fallbacks", "transitions", "fallback_transitions",
                 "parts"):
        assert getattr(stats, name) == {
            key: getattr(first, name)[key] + getattr(second, name)[key]
            for key in getattr(first, name)
        }, name


def test_a_reference_run_reports_only_its_step_part():
    from repro.spec.presets import preset

    spec = preset("crossover-hibernus")
    system = spec.build()
    record, steps, delta, seconds = _run_delta(system, 0.2)
    assert delta == _expected(record, "reference", steps)
    parts = {
        dict(labels)["part"]: value for (name, labels), value in delta.items()
        if name == "repro_kernel_part_seconds_total"
    }
    assert list(parts) == ["step"]
    _assert_parts_cover(record, seconds)


#: Hibernus++ on the 40 Hz Eq. (5) supply over its 30 s horizon: every
#: ``repro_kernel_*`` count, as the engine counted them when it still
#: diffed the rail's published attributes (identical on both rungs).
HIBERNUS_PP_40HZ = {
    ("repro_kernel_runs_total", (("kernel", "fast"),)): 1,
    ("repro_kernel_steps_total", (("kernel", "fast"),)): 300_000,
    ("repro_kernel_chunks_total", ()): 1204,
    ("repro_kernel_chunked_steps_total", ()): 298_797,
    ("repro_kernel_fallback_steps_total", ()): 1203,
    ("repro_kernel_fallback_steps_by_reason_total",
     (("reason", "event"),)): 1203,
    ("repro_kernel_fallback_transitions_total",
     (("transition", "brownout"),)): 1200,
    ("repro_kernel_fallback_transitions_total",
     (("transition", "restore-done"),)): 1,
    ("repro_kernel_fallback_transitions_total",
     (("transition", "snapshot-done"),)): 2,
    ("repro_kernel_inline_transitions_total", (("transition", "boot"),)): 1201,
    ("repro_kernel_inline_transitions_total",
     (("transition", "cold-start"),)): 1,
    ("repro_kernel_inline_transitions_total",
     (("transition", "restore"),)): 1,
    ("repro_kernel_inline_transitions_total",
     (("transition", "snapshot"),)): 2,
}


def test_hibernus_pp_counts_are_pinned(rung):
    system = _hibernus_pp_system()
    _, _, delta, _ = _run_delta(system, 30.0)
    counts = {key: value for key, value in delta.items()
              if key[0] != "repro_kernel_part_seconds_total"}
    assert counts == HIBERNUS_PP_40HZ
