"""Ablations over the design choices DESIGN.md calls out.

1. Snapshot trigger: voltage interrupt (Hibernus) vs compile-time sites
   (Mementos) vs register-only (QuickRecall) vs hardware (NVP) vs nothing.
2. Capacitance: how added storage moves a Hibernus system through the
   Fig. 2 storage axis (fewer, later snapshots as C grows).
3. Restore threshold V_R: active time against snapshot churn.

Every row is one point against a single spec (:data:`BASE`), run through
:func:`~repro.spec.runner.evaluate` on both kernels: a strategy point
overrides ``strategy`` and ``power_model``, the others ``capacitance`` or
``v_restore``.
"""

from types import SimpleNamespace

import pytest

from repro.analysis.report import format_table, print_section
from repro.spec import (
    HarvesterSpec,
    LoadSpec,
    PlatformSpec,
    ScenarioSpec,
    StorageSpec,
)
from repro.spec.runner import evaluate

from conftest import KERNELS, once

WORKLOAD = 600_000  # cycles at 1 MHz: 0.6 s of compute
DURATION = 6.0

#: Hibernus on a 20 mW, 30 %-duty square-wave supply.  The bleed is
#: sized so the off-phases genuinely brown the rail out on
#: decoupling-scale capacitance: the supply is truly intermittent.
BASE = ScenarioSpec(
    name="ablation",
    dt=1e-4,
    duration=DURATION,
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
        engine_params={"total_cycles": WORKLOAD, "checkpoint_interval": 2000},
        power_model="msp430-sram",
        clock_frequency=1e6,
    ),
)


def run_points(kernel, points):
    """One report per override dict, each a row's metrics by attribute."""
    base = BASE.with_override("kernel", kernel)
    rows, _ = evaluate(base, [(base.with_overrides(p), p, p) for p in points])
    for row in rows:
        assert row.ok, row.error
    return [SimpleNamespace(**row.metrics) for row in rows]


@pytest.mark.parametrize("kernel", KERNELS)
def test_ablation_snapshot_trigger(benchmark, kernel):
    strategies = [
        ("null", "msp430-sram"),
        ("mementos", "msp430-sram"),
        ("hibernus", "msp430-sram"),
        ("hibernus++", "msp430-sram"),
        ("quickrecall", "msp430-fram"),
        ("nvp", "msp430-sram"),
    ]

    def run_all():
        reports = run_points(kernel, [
            {"strategy": name, "power_model": model}
            for name, model in strategies
        ])
        return {name: r for (name, _), r in zip(strategies, reports)}

    reports = once(benchmark, run_all)
    print_section(
        "Ablation: snapshot trigger mechanism (same workload, same supply)",
        format_table(
            ["strategy", "completed", "t_complete (s)", "snapshots",
             "overhead energy (uJ)", "total energy (mJ)"],
            [
                [
                    name,
                    r.completed,
                    f"{r.completion_time:.2f}" if r.completed else "-",
                    r.snapshots,
                    r.energy_overhead * 1e6,
                    r.energy_total * 1e3,
                ]
                for name, r in reports.items()
            ],
        ),
    )

    # Every checkpointing strategy finishes; the baseline does not.
    for name in ("mementos", "hibernus", "hibernus++", "quickrecall", "nvp"):
        assert reports[name].completed, name
    assert not reports["null"].completed
    # Redundant-snapshot ordering: Mementos >= Hibernus (paper downside 1).
    assert reports["mementos"].snapshots >= reports["hibernus"].snapshots
    # Overhead-energy ordering: hardware backup < register-only < full-RAM.
    assert (
        reports["nvp"].energy_overhead
        < reports["quickrecall"].energy_overhead
        < reports["hibernus"].energy_overhead
    )
    # Hand-calibrated Hibernus completes no later than self-calibrating
    # Hibernus++ on the platform it was calibrated for (the paper's
    # 'slightly less efficient' claim).
    assert reports["hibernus"].completion_time <= reports["hibernus++"].completion_time * 1.1


@pytest.mark.parametrize("kernel", KERNELS)
def test_ablation_capacitance_sweep(benchmark, kernel):
    capacitances = [15e-6, 22e-6, 47e-6, 100e-6, 220e-6]

    def run_all():
        reports = run_points(kernel, [{"capacitance": c} for c in capacitances])
        return [
            (c, r, BASE.with_override("capacitance", c).build()
             .platform.strategy.v_hibernate)
            for c, r in zip(capacitances, reports)
        ]

    rows = once(benchmark, run_all)
    print_section(
        "Ablation: rail capacitance (Hibernus)",
        format_table(
            ["C (uF)", "V_H (V)", "completed", "snapshots", "availability"],
            [
                [c * 1e6, f"{vh:.2f}", r.completed, r.snapshots,
                 f"{100 * r.availability:.0f}%"]
                for c, r, vh in rows
            ],
        ),
    )
    # Eq. (4): V_H falls as C grows.
    thresholds = [vh for _, _, vh in rows]
    assert thresholds == sorted(thresholds, reverse=True)
    # All complete; more storage never hurts snapshot counts.
    assert all(r.completed for _, r, _ in rows)
    assert rows[-1][1].snapshots <= rows[0][1].snapshots


@pytest.mark.parametrize("kernel", KERNELS)
def test_ablation_restore_threshold(benchmark, kernel):
    """V_R is the source-characterisation knob (§III item 2): too low and
    the system restores into a still-weak supply (churn); higher V_R means
    fewer, later restores."""
    v_restores = [2.5, 2.8, 3.1]

    def run_all():
        reports = run_points(kernel, [{"v_restore": vr} for vr in v_restores])
        return list(zip(v_restores, reports))

    rows = once(benchmark, run_all)
    print_section(
        "Ablation: restore threshold V_R (Hibernus)",
        format_table(
            ["V_R (V)", "completed", "t_complete (s)", "restores", "snapshots"],
            [
                [vr, r.completed, f"{r.completion_time:.2f}" if r.completed else "-",
                 r.restores, r.snapshots]
                for vr, r in rows
            ],
        ),
    )
    assert all(r.completed for _, r in rows)
    # A higher V_R waits longer before resuming, so completion never gets
    # faster as V_R rises (it trades active time for restore confidence).
    times = [r.completion_time for _, r in rows]
    for earlier, later in zip(times, times[1:]):
        assert later >= earlier * 0.99
