"""Sweep-level batching: topology grouping, row identity, replay.

Covers the grouping bugfix (spec axes that change batch eligibility or
topology must partition the grid, never silently merge), the row
identity contract (batched rows == per-point rows, same hashes, same
store entries), and zero-recompute replay on a store written by a
batched sweep.
"""

import tempfile
from pathlib import Path

import pytest

import repro.sim.batch as B
from repro.sim import _ckernel
from repro.sim.batch import topology_key
from repro.spec import SweepRunner
from repro.spec.presets import fig7_spec
from repro.spec.runner import (
    BatchProgress,
    flatten_batch_records,
    group_batch_payloads,
)
from repro.results.store import ResultStore


@pytest.fixture(autouse=True)
def _small_groups(monkeypatch):
    monkeypatch.setattr(B, "_MIN_VECTOR_GROUP", 2)


def small_base(**kw):
    return fig7_spec(fft_size=64, duration=kw.pop("duration", 0.05)).\
        with_overrides({"kernel": "fast", **kw})


def test_mixed_strategy_grid_partitions_by_topology():
    """Regression (grouping bugfix): a grid whose axes change the
    platform strategy or the kernel must split into homogeneous batches
    — merging a hibernus lane with a quickrecall lane (or a reference-
    kernel point into any batch) would simulate the wrong scenario."""
    base = small_base()
    specs, payloads = [], []
    for strategy in ("hibernus", "quickrecall"):
        for cap in (22e-6, 47e-6):
            overrides = {"strategy": strategy, "capacitance": cap}
            specs.append(base.with_overrides(overrides))
            payloads.append(
                {"spec_overrides": overrides, "overrides": overrides}
            )
    # One reference-kernel point: not batchable, must pass through.
    overrides = {"kernel": "reference", "capacitance": 22e-6}
    specs.append(base.with_overrides(overrides))
    payloads.append({"spec_overrides": overrides, "overrides": overrides})

    grouped, order = group_batch_payloads(payloads, specs, batch_size=8)
    assert sorted(order) == list(range(len(payloads)))
    batches = [g for g in grouped if "spec_overrides_batch" in g]
    passthrough = [g for g in grouped if "spec_overrides_batch" not in g]
    assert len(batches) == 2  # one per strategy
    assert len(passthrough) == 1  # the reference-kernel point
    assert passthrough[0]["spec_overrides"]["kernel"] == "reference"
    flat_order = iter(order)
    for batch in batches:
        keys = set()
        for _ in batch["spec_overrides_batch"]:
            keys.add(topology_key(specs[next(flat_order)]))
        assert len(keys) == 1, "batch mixed topologies"


def test_batch_size_partitions_within_a_topology():
    """batch_size caps members per batch; leftover singletons run solo
    rather than forming a one-member batch."""
    base = small_base()
    caps = [20e-6, 30e-6, 40e-6, 50e-6, 60e-6]
    specs = [base.with_overrides({"capacitance": c}) for c in caps]
    payloads = [
        {"spec_overrides": {"capacitance": c}, "overrides": {}} for c in caps
    ]
    grouped, order = group_batch_payloads(payloads, specs, batch_size=2)
    batches = [g for g in grouped if "spec_overrides_batch" in g]
    solos = [g for g in grouped if "spec_overrides_batch" not in g]
    assert [len(b["spec_overrides_batch"]) for b in batches] == [2, 2]
    assert len(solos) == 1
    assert sorted(order) == list(range(len(payloads)))


@pytest.fixture
def pass_rung(monkeypatch):
    """Select the batched pass implementation: ``"c"`` (the compiled
    kernel; skips without a C compiler) or ``"numpy"``."""

    def select(rung):
        if rung == "numpy":
            monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
        else:
            monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
        _ckernel.reset_cache()
        if rung == "c" and _ckernel.load() is None:
            pytest.skip("no C compiler available")

    yield select
    _ckernel.reset_cache()


def _capacitance_rows(**run_kwargs):
    runner = SweepRunner(
        small_base(),
        {"capacitance": [22e-6, 33e-6, 47e-6, 68e-6]},
    )
    return runner.run(parallel=False, **run_kwargs)


def test_batched_sweep_rows_equal_per_point_rows(pass_rung):
    """The whole-stack identity contract on the compiled pass: batched
    and per-point sweeps produce identical metrics and spec hashes, row
    for row (the C pass accumulates the ledger in the scalar loop's own
    order, so even the float metrics match exactly)."""
    pass_rung("c")
    serial = _capacitance_rows()
    events = []
    batched = _capacitance_rows(batch_size=0, progress=events.append)
    assert [p.spec_hash for p in batched] == [p.spec_hash for p in serial]
    assert [p.metrics for p in batched] == [p.metrics for p in serial]
    assert len(events) == 1
    event = events[0]
    assert isinstance(event, BatchProgress)
    assert event.members == 4
    assert event.passes and event.passes > 0
    assert event.advanced and event.advanced > 0
    assert "batched:" in event.describe()


def test_batched_sweep_rows_match_per_point_rows_numpy_rung(pass_rung):
    """Without a C compiler the numpy pass keeps the documented contract:
    identical spec hashes and vcc traces, metrics within 1e-9 relative
    (its telescoped ledger re-associates the energy sums)."""
    pass_rung("numpy")
    traces = {"capture_traces": ("vcc",)}
    serial = _capacitance_rows(**traces)
    batched = _capacitance_rows(batch_size=0, **traces)
    assert [p.spec_hash for p in batched] == [p.spec_hash for p in serial]
    for row, reference in zip(batched, serial):
        assert row.traces["vcc"]["values"]
        assert (row.traces["vcc"]["values"]
                == reference.traces["vcc"]["values"])
        assert row.metrics.keys() == reference.metrics.keys()
        for key, value in row.metrics.items():
            expected = reference.metrics[key]
            if isinstance(value, float) and isinstance(expected, float):
                assert abs(value - expected) <= 1e-9 * max(
                    1.0, abs(expected)
                ), (key, value, expected)
            else:
                assert value == expected, (key, value, expected)


def test_batched_sweep_store_replays_with_zero_recomputes():
    """A store written by a batched sweep satisfies a resumed sweep
    (batched or not) entirely from cache — identical hashes means no
    point ever recomputes."""
    runner = SweepRunner(
        small_base(), {"capacitance": [22e-6, 33e-6, 47e-6]}
    )
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "sweep.jsonl"
        first = runner.run(
            parallel=False, batch_size=0, store=ResultStore(store_path)
        )
        replay = runner.run(
            parallel=False,
            batch_size=0,
            store=ResultStore(store_path),
            resume=True,
        )
        plain_replay = runner.run(
            parallel=False, store=ResultStore(store_path), resume=True
        )
    assert first.computed == 3
    assert replay.computed == 0 and replay.cached == 3
    assert plain_replay.computed == 0 and plain_replay.cached == 3
    assert [p.metrics for p in replay] == [p.metrics for p in first]


def test_flatten_batch_records_sums_stats_and_orders_members():
    records = [
        {"batch": [{"metrics": {"a": 1}}, {"metrics": {"a": 2}}],
         "stats": {"members": 2, "passes": 3}},
        {"metrics": {"a": 3}},
        {"batch": [{"metrics": {"a": 4}}],
         "stats": {"members": 1, "passes": 1}},
    ]
    flat, totals = flatten_batch_records(records)
    assert [r["metrics"]["a"] for r in flat] == [1, 2, 3, 4]
    assert totals == {"members": 3, "passes": 4}
