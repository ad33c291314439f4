"""The strategy comparison (the ref [13] experiment) as spec points.

Each strategy is one point against a square-wave base spec, overriding
``strategy`` and ``power_model``, run through
:func:`~repro.spec.runner.evaluate` on both kernels.
"""

import pytest

from repro.core.metrics import RunReport
from repro.errors import SpecError
from repro.spec import (
    HarvesterSpec,
    LoadSpec,
    PlatformSpec,
    ScenarioSpec,
    StorageSpec,
)
from repro.spec.runner import evaluate

KERNELS = ("reference", "fast")

#: A 20 mW, 30 %-duty square wave; the bleed resistor forces real
#: brownouts in the off-phases.
BASE = ScenarioSpec(
    name="comparison",
    dt=1e-4,
    duration=4.0,
    storage=StorageSpec("capacitor", {"capacitance": 22e-6, "v_max": 3.3}),
    harvesters=(
        HarvesterSpec(
            "square-wave-power",
            {"on_power": 20e-3, "period": 0.1, "duty": 0.3},
        ),
    ),
    loads=(LoadSpec("resistive", {"resistance": 10000.0}),),
    platform=PlatformSpec(
        strategy="hibernus",
        engine="synthetic",
        engine_params={"total_cycles": 600_000, "checkpoint_interval": 2000},
        power_model="msp430-sram",
        clock_frequency=1e6,
    ),
)

POINTS = [
    {"strategy": "hibernus", "power_model": "msp430-sram"},
    {"strategy": "quickrecall", "power_model": "msp430-fram"},
    {"strategy": "null", "power_model": "msp430-sram"},
]


def compare(kernel):
    """Each strategy's row, by name."""
    base = BASE.with_override("kernel", kernel)
    rows, _ = evaluate(base, [(base.with_overrides(p), p, p) for p in POINTS])
    return {row["strategy"]: row for row in rows}


@pytest.fixture(scope="module")
def results():
    return {kernel: compare(kernel) for kernel in KERNELS}


def test_all_entries_ran(results):
    for rows in results.values():
        assert set(rows) == {"hibernus", "quickrecall", "null"}
        assert all(row.ok for row in rows.values())


def test_checkpointing_strategies_complete_null_does_not(results):
    for rows in results.values():
        assert rows["hibernus"]["completed"]
        assert rows["quickrecall"]["completed"]
        assert not rows["null"]["completed"]


def test_winner_by_overhead_is_quickrecall(results):
    # Register-only snapshots: far cheaper checkpointing overhead.
    for rows in results.values():
        completed = [row for row in rows.values() if row["completed"]]
        cheapest = min(completed, key=lambda row: row["energy_overhead"])
        assert cheapest["strategy"] == "quickrecall"


def test_two_runs_give_identical_rows(results):
    """Every point builds its own system from its spec: nothing leaks
    from one run into the next."""
    for kernel, rows in results.items():
        again = compare(kernel)
        for name, row in rows.items():
            assert again[name].spec_hash == row.spec_hash
            assert again[name].metrics == row.metrics


def test_rows_match_runreport(results):
    """A row's metrics are the numbers ``repro run``'s summary reads
    from :meth:`RunReport.from_run` of the same run."""
    for kernel, rows in results.items():
        for row in rows.values():
            spec = row.spec
            assert spec.kernel == kernel
            run = spec.build().run(spec.duration)
            report = RunReport.from_run(run.platform, run.t_end)
            metrics = row.metrics
            assert metrics["completed"] == report.completed
            assert metrics["completion_time"] == report.completion_time
            assert metrics["brownouts"] == report.brownouts
            assert metrics["snapshots"] == report.snapshots
            assert metrics["snapshots_aborted"] == report.snapshots_aborted
            assert metrics["restores"] == report.restores
            assert metrics["cycles_executed"] == report.cycles_executed
            assert metrics["energy_total"] == report.energy_total
            assert metrics["energy_overhead"] == report.energy_overhead
            assert metrics["availability"] == pytest.approx(
                report.availability
            )


def test_scenario_validation():
    # A strategy point naming no registered strategy is refused before
    # anything runs.
    with pytest.raises(SpecError, match="bogus"):
        BASE.with_overrides({"strategy": "bogus", "power_model": "msp430-sram"})
