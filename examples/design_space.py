#!/usr/bin/env python
"""Designing an energy-driven system, end to end.

The paper's thesis is a *design flow*: start from the energy environment,
then choose storage and operating strategy together.  This example walks
that flow for a hypothetical sensor deployment:

1. describe the energy environment (outdoor PV through a week of weather);
2. size storage for the energy-neutral (battery-backed) option;
3. quantitatively compare transient strategies for the battery-free option;
4. explore the battery-free design space (capacitance vs completion
   time) with the budgeted exploration engine instead of a grid;
5. classify both outcomes on the paper's Fig. 2 taxonomy.

Run:  python examples/design_space.py
"""

from repro.analysis.report import format_table
from repro.core.taxonomy import SystemDescriptor, classify
from repro.explore import Axis, ExplorationDriver, Objective, SearchSpace
from repro.harvest.environment import (
    EnvironmentHarvester,
    WeatherSequence,
    required_storage,
)
from repro.harvest.solar import PhotovoltaicHarvester
from repro.results import ResultStore
from repro.spec import HarvesterSpec, PlatformSpec, ScenarioSpec, StorageSpec
from repro.spec.runner import evaluate
from repro.units import days

LOAD_POWER = 5e-3  # the application's average draw if run continuously


def main() -> None:
    print("Energy-driven design flow")
    print("=" * 60)

    # ---- 1. the energy environment -----------------------------------
    weather = WeatherSequence.from_labels(
        ["sunny", "sunny", "partly cloudy", "overcast", "stormy", "sunny", "sunny"]
    )
    cell = PhotovoltaicHarvester.outdoor(full_scale_current=40e-3, v_mpp=2.0)
    environment = EnvironmentHarvester(cell, weather)
    print(f"\n1. Environment: outdoor PV, week = "
          f"{[c.label for c in weather.conditions]}")
    print(f"   mean harvest scale {weather.mean_scale():.2f}")

    # ---- 2. the energy-neutral option ---------------------------------
    storage = required_storage(
        environment, load_power=LOAD_POWER, horizon=days(7), window=days(1)
    )
    print(f"\n2. Energy-neutral option (Fig. 3 architecture):")
    print(f"   storage to ride the worst day at {LOAD_POWER * 1e3:.0f} mW "
          f"continuous: {storage:.0f} J "
          f"(~{storage / 3600:.2f} Wh of battery)")

    # ---- 3. the energy-driven (battery-free) option -------------------
    # One spec describes the battery-free node: 22 uF on a 30 %-duty
    # 20 mW square-wave harvester, a 600 k-cycle workload, Hibernus.
    node = ScenarioSpec(
        name="battery-free-node",
        duration=4.0,
        stop_on_completion=True,
        storage=StorageSpec("capacitor", {"capacitance": 22e-6, "v_max": 3.3}),
        harvesters=(
            HarvesterSpec(
                "square-wave-power",
                {"on_power": 20e-3, "period": 0.1, "duty": 0.3},
            ),
        ),
        platform=PlatformSpec(
            strategy="hibernus",
            engine="synthetic",
            engine_params={
                "total_cycles": 600_000, "checkpoint_interval": 2000,
            },
            power_model="msp430-sram",
        ),
    )
    # Each strategy is one point against it.  QuickRecall runs from
    # unified FRAM, so its full state is its registers.
    strategies = [
        {"strategy": "null"},
        {"strategy": "hibernus"},
        {"strategy": "quickrecall", "power_model": "msp430-fram",
         "full_state_words": 17, "register_state_words": 17},
        {"strategy": "nvp"},
    ]
    # Every run lands in a ResultStore — the same typed rows a sweep
    # produces, so the comparison persists/merges like any other study.
    store = ResultStore()
    rows, _ = evaluate(
        node, [(node.with_overrides(p), p, p) for p in strategies],
        store=store,
    )
    print("\n3. Battery-free option (Fig. 4 architecture), 22 uF only:")
    print(format_table(
        ["strategy", "completed", "t_complete (s)", "snapshots",
         "restores", "overhead (uJ)", "energy (mJ)"],
        [
            [r["strategy"], r["completed"],
             f"{r['completion_time']:.3f}" if r["completed"] else "-",
             r["snapshots"], r["restores"],
             f"{r['energy_overhead'] * 1e6:.1f}",
             f"{r['energy_total'] * 1e3:.3f}"]
            for r in rows
        ],
    ))
    completed = store.select(lambda r: r.ok and r["completed"])
    fastest = min(completed, key=lambda r: r["completion_time"])
    cheapest = min(completed, key=lambda r: r["energy_overhead"])
    print(f"   fastest completion: {fastest['strategy']}; least overhead: "
          f"{cheapest['strategy']} "
          f"({cheapest['energy_overhead'] * 1e6:.1f} uJ on checkpointing)")

    # ---- 4. explore the design space, not just compare points ---------
    # The comparison above fixed the capacitor at 22 uF.  The *design*
    # question is the trade-off: how small can storage go, and what does
    # shrinking it cost in completion time?  That is a multi-objective
    # exploration — the Pareto-aware evolutionary optimizer grows the
    # frontier directly instead of sweeping a grid.
    space = SearchSpace.of(Axis.log("capacitance", 5e-6, 100e-6))
    driver = ExplorationDriver(
        node,
        space,
        objectives=[
            Objective("capacitance", "min", require="completed"),
            Objective("completion_time", "min", require="completed"),
        ],
        optimizer="evolutionary",
        optimizer_params={"population": 6},
        seed=7,
    )
    outcome = driver.run(budget=18)
    frontier = sorted(
        outcome.frontier,
        key=lambda e: e.candidate.overrides["capacitance"],
    )
    print("\n4. Design-space exploration (hibernus, storage vs latency):")
    print(f"   {outcome.computed} simulations for "
          f"{len(outcome.evaluations)} evaluations; Pareto frontier:")
    for point in frontier:
        cap = point.candidate.overrides["capacitance"]
        print(f"   C={cap * 1e6:6.1f} uF -> completes at "
              f"t={point.result['completion_time']:.3f} s")

    # ---- 5. where each lands on Fig. 2 ---------------------------------
    neutral = SystemDescriptor(
        name="battery-backed node",
        storage_energy=storage,
        active_power=LOAD_POWER,
        survives_outage=False,
        designed_for_harvesting=True,
    )
    driven = SystemDescriptor(
        name="battery-free node (hibernus)",
        storage_energy=0.5 * 22e-6 * 3.3**2,
        active_power=LOAD_POWER,
        survives_outage=True,
        task_energy=50e-3,
        designed_for_harvesting=True,
    )
    print("\n5. Taxonomy placements (Fig. 2):")
    for descriptor in (neutral, driven):
        print("   " + classify(descriptor).summary())

    print(
        "\nThe trade the paper describes, quantified: the energy-neutral\n"
        "option needs a battery thousands of times larger than the\n"
        "decoupling capacitance the transient option runs on — the cost\n"
        "of making the harvester 'look like a battery'."
    )


if __name__ == "__main__":
    main()
