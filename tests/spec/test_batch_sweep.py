"""Sweep-level batching: topology grouping, row identity, replay.

Covers the grouping bugfix (spec axes that change batch eligibility or
topology must partition the grid, never silently merge), the row
identity contract (batched rows byte-identical to per-point rows across
the strategy catalog, event-heavy members and error rows), and
zero-recompute replay on a store written by a batched sweep.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.sim.batch import topology_key
from repro.spec import SweepRunner
from repro.spec.presets import fig7_spec, preset
from repro.spec.runner import (
    BatchProgress,
    flatten_batch_records,
    group_batch_payloads,
)
from repro.results.store import ResultStore
from repro.spec.specs import StorageSpec


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


def with_strategy(spec, strategy):
    platform = dataclasses.replace(
        spec.platform, strategy=strategy, strategy_params={}
    )
    return dataclasses.replace(spec, platform=platform)


def state_transitions(row):
    """``(times, states)`` at each change of platform state."""
    times = np.asarray(row.traces["state"]["times"])
    states = np.asarray(row.traces["state"]["values"])
    edges = np.r_[True, states[1:] != states[:-1]]
    return times[edges], states[edges]


def died_mid_snapshot(row):
    _, states = state_transitions(row)
    return any(
        a == 3.0 and b == 0.0  # SNAPSHOT -> OFF
        for a, b in zip(states, states[1:])
    )


def catalog_case(strategy):
    return (
        with_strategy(small_base(), strategy),
        {"capacitance": [22e-6, 40e-6, 68e-6]},
        lambda rows: None,
    )


def brownout_case():
    """An undersized explicit V_H against a large snapshot image: the
    22 uF point browns out mid-snapshot, the 33 and 47 uF points do
    not."""
    base = fig7_spec(fft_size=512, duration=0.4).with_overrides(
        {"kernel": "fast"}
    )
    base = dataclasses.replace(base, platform=dataclasses.replace(
        base.platform,
        strategy_params={"v_hibernate": 2.0, "v_restore": 2.9},
        machine_params={
            **base.platform.machine_params, "data_space_words": 60000,
        },
    ))

    def check(rows):
        assert [died_mid_snapshot(row) for row in rows] == [
            True, False, False
        ]

    return base, {"capacitance": [22e-6, 33e-6, 47e-6]}, check


def mixed_capacitance_case():
    def check(rows):
        assert all(row.traces["vcc"]["values"] for row in rows)

    grid = {"capacitance": [float(c) for c in np.linspace(22e-6, 80e-6, 6)]}
    return small_base(), grid, check


def event_timestamps_case():
    """Transition times are strictly increasing: nothing reordered or
    merged."""
    rng = np.random.default_rng(7)
    grid = {
        "capacitance": [float(c) for c in rng.uniform(15e-6, 90e-6, 4)],
        "source_resistance": [
            float(r) for r in rng.uniform(800.0, 2500.0, 2)
        ],
    }

    def check(rows):
        for row in rows:
            assert bool(np.all(np.diff(row.traces["state"]["times"]) > 0))
        assert max(len(state_transitions(row)[0]) for row in rows) > 2

    return small_base(duration=0.3), grid, check


def capacitance_grid_case():
    def check(rows):
        assert len(rows) == 4

    return small_base(), {"capacitance": [22e-6, 33e-6, 47e-6, 68e-6]}, \
        check


def crossover_case(strategy):
    """Eq. (5) crossover points (two loads) on a leaky supercapacitor
    with ESR overhead: the general chunk loop."""
    base = preset(f"crossover-{strategy}").with_overrides({
        "kernel": "fast", "engine__total_cycles": 1_000_000,
        "duration": 3.0,
    })
    base = dataclasses.replace(base, storage=StorageSpec(
        "supercapacitor", {"capacitance": 22e-6, "v_max": 3.3}
    ))

    def check(rows):
        assert sum(row.metrics["brownouts"] for row in rows) > 0

    return base, {"frequency": [2.0, 30.0], "capacitance": [10e-6, 22e-6]}, \
        check


CASES = {
    **{
        f"strategy-{strategy}": (lambda s=strategy: catalog_case(s))
        for strategy in ("hibernus", "hibernus++", "quickrecall", "nvp",
                         "mementos")
    },
    "capacitance-grid": capacitance_grid_case,
    "mid-snapshot-brownout": brownout_case,
    "mixed-capacitance": mixed_capacitance_case,
    "event-timestamps": event_timestamps_case,
    **{
        f"crossover-{strategy}": (lambda s=strategy: crossover_case(s))
        for strategy in ("hibernus", "quickrecall")
    },
}


def records(rows):
    return [json.dumps(row.to_record(), sort_keys=True) for row in rows]


@pytest.mark.parametrize("case", list(CASES))
def test_batched_sweep_rows_equal_per_point_rows(case):
    """The whole-stack identity contract, on whichever chunk-loop rung
    the environment selects: a batched sweep's rows — metrics, traces,
    spec hashes and overrides — are byte-identical to per-point rows."""
    base, grid, check = CASES[case]()
    runner = SweepRunner(base, grid)
    traces = ("vcc", "state")
    per_point = runner.run(parallel=False, capture_traces=traces)
    events = []
    batched = runner.run(
        parallel=False, batch_size=0, capture_traces=traces,
        progress=events.append,
    )
    assert records(batched) == records(per_point)
    assert all(row.error is None for row in batched)
    assert len(events) == 1 and isinstance(events[0], BatchProgress)
    assert events[0].computed == len(per_point)
    check(list(batched))


def test_batched_build_failure_row_equals_per_point_row():
    """A member whose build raises becomes the same error row — spec
    hash, error text, overrides — in a batch task as on its own."""
    runner = SweepRunner(small_base(), {"capacitance": [-1e-6, 22e-6]})
    per_point = runner.run(parallel=False, batch_size=1)
    batched = runner.run(parallel=False, batch_size=0)
    assert records(batched) == records(per_point)
    failed = batched.points[0]
    assert failed.error is not None
    assert failed.overrides == {"capacitance": -1e-6}


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


def test_flatten_batch_records_orders_members():
    records = [
        {"batch": [{"metrics": {"a": 1}}, {"metrics": {"a": 2}}]},
        {"metrics": {"a": 3}},
        {"batch": [{"metrics": {"a": 4}}]},
    ]
    flat = flatten_batch_records(records)
    assert [r["metrics"]["a"] for r in flat] == [1, 2, 3, 4]
