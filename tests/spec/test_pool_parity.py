"""Serial vs pool parity: a sweep's rows do not depend on where it ran.

Every grid point is one task, run in-process (``parallel=False``) or on
a worker pool (``parallel=True``).  Both paths go through the same
per-point body, so their rows — metrics, traces, spec hashes and
overrides — must be byte-identical across the strategy catalog,
event-heavy points, the leaky-supercapacitor crossovers and error
rows, and a store written on either path replays with zero
recomputes.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.spec import SweepRunner
from repro.spec.presets import fig7_spec, preset
from repro.spec.runner import BatchProgress
from repro.results.store import ResultStore
from repro.spec.specs import StorageSpec


def small_base(**kw):
    return fig7_spec(fft_size=64, duration=kw.pop("duration", 0.05)).\
        with_overrides({"kernel": "fast", **kw})


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


def serial_and_pool(base, grid, **kw):
    """The same sweep run in-process and on a two-worker pool."""
    runner = SweepRunner(base, grid, max_workers=2)
    return runner.run(parallel=False, **kw), runner.run(parallel=True, **kw)


@pytest.mark.parametrize("case", list(CASES))
def test_pool_sweep_rows_equal_serial_rows(case):
    """The whole-stack identity contract, on whichever chunk-loop rung
    the environment selects: pool rows are byte-identical to serial
    rows."""
    base, grid, check = CASES[case]()
    events = []
    serial, pool = serial_and_pool(
        base, grid, capture_traces=("vcc", "state"), progress=events.append,
    )
    assert records(pool) == records(serial)
    assert all(row.error is None for row in pool)
    assert len(events) == 2
    assert all(isinstance(event, BatchProgress) for event in events)
    assert [event.computed for event in events] == [len(serial)] * 2
    check(list(pool))


def test_pool_build_failure_row_equals_serial_row():
    """A point whose build raises becomes the same error row — spec
    hash, error text, overrides — on the pool as in-process."""
    serial, pool = serial_and_pool(
        small_base(), {"capacitance": [-1e-6, 22e-6]}
    )
    assert records(pool) == records(serial)
    failed = pool.points[0]
    assert failed.error is not None
    assert failed.overrides == {"capacitance": -1e-6}


@pytest.mark.parametrize("first", ["serial", "pool"])
def test_sweep_store_replays_with_zero_recomputes(first):
    """A store written on either path satisfies a resumed sweep on
    either path entirely from cache: identical hashes mean no point
    ever recomputes."""
    runner = SweepRunner(
        small_base(), {"capacitance": [22e-6, 33e-6, 47e-6]}, max_workers=2
    )
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "sweep.jsonl"
        written = runner.run(
            parallel=first == "pool", store=ResultStore(store_path)
        )
        replays = [
            runner.run(
                parallel=parallel, store=ResultStore(store_path), resume=True
            )
            for parallel in (False, True)
        ]
    assert written.computed == 3
    for replay in replays:
        assert replay.computed == 0 and replay.cached == 3
        assert records(replay) == records(written)
