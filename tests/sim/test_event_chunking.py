"""Unit coverage for the event-driven chunk protocol pieces.

The integration-level guarantees live in
``tests/integration/test_strategy_parity.py``; these tests pin the
descriptor-level arithmetic: the source-plan memo's exact-grid slicing,
the synthetic engine's active-plan boundaries, the operation profile's
float-exact countdown, and the rail's handling of time-based
``max_steps`` boundaries.
"""

import math

from repro.mcu.engine import SyntheticEngine
from repro.power.rail import SupplyRail
from repro.sim.kernel import LoadProfile, SourcePlanMemo
from repro.storage.capacitor import Capacitor
from repro.transient.base import (
    NullStrategy,
    Strategy,
    TransientPlatform,
)


# -- SourcePlanMemo --------------------------------------------------------


def test_plan_memo_serves_interior_slices():
    memo = SourcePlanMemo()
    dt = 1e-4
    values = [float(i) for i in range(100)]
    memo.put(50, dt, values)
    assert memo.get(50, dt, 100).tolist() == values
    assert memo.get(60, dt, 10).tolist() == values[10:20]
    assert memo.get(149, dt, 1).tolist() == [99.0]


def test_plan_memo_misses_outside_window_and_on_dt_change():
    memo = SourcePlanMemo()
    memo.put(0, 1e-4, [1.0, 2.0, 3.0])
    assert memo.get(0, 1e-4, 4) is None  # past the end
    assert memo.get(2, 1e-4, 2) is None  # overhangs the end
    assert memo.get(0, 2e-4, 2) is None  # different grid
    memo.clear()
    assert memo.get(0, 1e-4, 1) is None


def test_plan_memo_grid_step_rejects_off_grid_times():
    assert SourcePlanMemo.grid_step(0.05, 1e-4) == 500
    assert SourcePlanMemo.grid_step(0.05 + 3e-11, 1e-4) is None


def test_plan_memo_window_looks_ahead_geometrically():
    """A miss evaluates ``max(n, min(2 * held, LOOKAHEAD_CAP))`` steps
    from the requested step; hits are views into the held array whose
    address is the view's own data pointer."""
    import numpy as np

    from repro.sim.kernel import LOOKAHEAD_CAP

    calls = []

    def evaluate(times):
        calls.append(len(times))
        return np.sin(times * 3.0)

    memo = SourcePlanMemo()
    dt = 1e-4
    step = 0
    while step < 20000:
        values, address = memo.window(step * dt, dt, 40, evaluate)
        assert address == values.ctypes.data
        assert values.tolist() == np.sin(
            (np.arange(step, step + 40) * dt) * 3.0
        ).tolist()
        step += 40
    expected = [40]
    while expected[-1] < LOOKAHEAD_CAP:
        expected.append(min(2 * expected[-1], LOOKAHEAD_CAP))
    assert calls[:len(expected)] == expected
    assert set(calls[len(expected):]) == {LOOKAHEAD_CAP}
    # Off-grid requests are evaluated exactly and never memoised.
    values, address = memo.window(0.5 * dt, dt, 8, evaluate)
    assert len(values) == 8 and calls[-1] == 8
    assert address == values.ctypes.data


def test_rectified_injector_memoises_across_chunks():
    """A second overlapping chunk request reuses the evaluated waveform."""
    from repro.harvest.synthetic import SignalGenerator
    from repro.power.rail import RectifiedInjector

    calls = []

    class CountingGenerator(SignalGenerator):
        def open_circuit_voltage_array(self, times):
            calls.append(len(times))
            return super().open_circuit_voltage_array(times)

    injector = RectifiedInjector(
        CountingGenerator(amplitude=3.0, frequency=5.0, rectified=True,
                          source_resistance=100.0)
    )
    dt = 1e-4
    first = injector.chunk_plan(0.0, dt, 256)
    assert first is not None and calls == [256]
    # A shorter window further in: served from the memo, no re-eval.
    second = injector.chunk_plan(64 * dt, dt, 64)
    assert second is not None and calls == [256]
    assert second.values.tolist() == first.values[64:128].tolist()
    assert second.address == first.address + 64 * 8
    # Past the cached window: recomputed with twice the held look-ahead.
    injector.chunk_plan(300 * dt, dt, 64)
    assert calls == [256, 512]
    injector.reset()
    injector.chunk_plan(0.0, dt, 8)
    assert calls == [256, 512, 8]


def test_seeded_plan_memo_serves_windows_without_reevaluating():
    """A memo seeded with a full-horizon plan (as a batch seeds every
    lane's injectors) serves each window bit-identical to evaluating it
    on the chunk's own time grid, never touching the waveform; a window
    past the seeded horizon recomputes, and clear() drops the seed."""
    import numpy as np

    from repro.harvest.synthetic import TrapezoidSupply
    from repro.power.rail import RectifiedInjector
    from repro.sim.kernel import chunk_times

    calls = []

    class CountingSupply(TrapezoidSupply):
        def open_circuit_voltage_array(self, times):
            calls.append(len(times))
            return super().open_circuit_voltage_array(times)

    fresh = TrapezoidSupply(frequency=7.3)
    dt = 1e-4
    horizon = 5000
    plan = fresh.open_circuit_voltage_array(np.arange(0, horizon) * dt)
    injector = RectifiedInjector(CountingSupply(frequency=7.3))
    injector._memo.put(0, dt, plan)
    for step0, n in ((0, 16), (37, 64), (1234, 2048), (horizon - 8, 8)):
        window = injector.chunk_plan(step0 * dt, dt, n)
        assert window is not None
        expected = fresh.open_circuit_voltage_array(
            chunk_times(step0 * dt, dt, n)
        ).tolist()
        assert window.values.tolist() == expected
    assert calls == []
    injector.chunk_plan((horizon - 8) * dt, dt, 16)  # past the horizon
    assert calls == [4096]  # look-ahead: min(2 * held, LOOKAHEAD_CAP)
    injector._memo.put(0, dt, plan)
    injector.reset()  # clears the memo
    injector.chunk_plan(0.0, dt, 16)
    assert calls == [4096, 16]
    memo = SourcePlanMemo()
    memo.put(0, dt, plan)
    assert memo.get(100, dt, 4).tolist() == plan[100:104].tolist()
    memo.clear()
    assert memo.get(100, dt, 4) is None


# -- SyntheticEngine.active_plan -------------------------------------------


def test_active_plan_stops_short_of_the_halt_boundary():
    engine = SyntheticEngine(total_cycles=10_000)
    engine.executed = 7_500
    plan = engine.active_plan(1000)
    assert plan is not None
    energy, safe, commit = plan
    assert energy == 1000 * engine.memory_energy_per_cycle
    # 7500 + 2*1000 < 10000 but 7500 + 3*1000 >= 10000 - the halting
    # step must run per-step.
    assert safe == 2
    commit(safe)
    assert engine.executed == 9_500
    assert not engine.done


def test_active_plan_none_when_halting_or_idle():
    engine = SyntheticEngine(total_cycles=1000)
    engine.executed = 999
    assert engine.active_plan(1000) is None  # next step halts
    assert engine.active_plan(0) is None  # no cycle budget
    engine.executed = 1000
    assert engine.active_plan(1000) is None  # already done


def test_active_plan_stops_short_of_checkpoint_sites():
    engine = SyntheticEngine(total_cycles=1_000_000, checkpoint_interval=5000)
    engine.executed = 0
    plan = engine.active_plan(800, stop_at_ckpt=True)
    assert plan is not None
    _, safe, _ = plan
    # Steps end at 800, 1600, ..., 4800 < 5000; the step reaching the
    # site (ending at 5600) must run per-step.
    assert safe == 6
    # Straddling case: already close to the site.
    engine.executed = 4_500
    assert engine.active_plan(800, stop_at_ckpt=True) is None


def test_active_plan_matches_run_cycles_step_for_step():
    """A committed plan leaves the engine exactly where per-step
    execution would."""
    chunked = SyntheticEngine(total_cycles=100_000)
    stepped = SyntheticEngine(total_cycles=100_000)
    energy, safe, commit = chunked.active_plan(777)
    commit(safe)
    total_energy = 0.0
    for _ in range(safe):
        slice_ = stepped.run_cycles(777)
        assert slice_.cycles == 777 and not slice_.halted
        total_energy += slice_.memory_energy
    assert chunked.executed == stepped.executed
    # Each per-step slice reports exactly the plan's per-step energy.
    assert energy == 777 * stepped.memory_energy_per_cycle
    assert total_energy == sum([energy] * safe)


# -- operation profiles ----------------------------------------------------


def test_operation_profile_countdown_matches_reference_subtraction():
    """The snapshot profile's safe-step count replicates the reference
    path's repeated `remaining -= dt` float-for-float."""
    engine = SyntheticEngine(total_cycles=100_000)
    platform = TransientPlatform(engine, NullStrategy())
    platform.go_active()
    platform.begin_snapshot(full=True)
    operation = platform._operation
    dt = 1e-4
    profile = platform.load_profile(0.0, dt, 3.0)
    assert profile is not None
    assert profile.power == operation.power
    # Reference countdown: steps until remaining goes non-positive.
    remaining = operation.remaining
    steps_to_complete = 0
    while remaining > 0.0:
        remaining -= dt
        steps_to_complete += 1
    assert profile.max_steps == steps_to_complete - 1

    # Committing the safe steps leaves exactly one countdown step.
    profile.commit(profile.max_steps, dt, 0.0)
    assert operation.remaining > 0.0
    assert operation.remaining - dt <= 0.0


def test_operation_profile_declines_at_the_completing_step():
    engine = SyntheticEngine(total_cycles=100_000)
    platform = TransientPlatform(engine, NullStrategy())
    platform.go_active()
    platform.begin_snapshot(full=True)
    platform._operation.remaining = 1e-5  # completes on the next step
    assert platform.load_profile(0.0, 1e-4, 3.0) is None


# -- strategy guards -------------------------------------------------------


def test_base_strategy_guard_reflects_on_active_override():
    class Passive(Strategy):
        def on_boot(self, platform, t, v):
            platform.cold_start()

    class Acting(Passive):
        def on_active(self, platform, t, v):
            pass  # overridden: base cannot vouch for it

    engine = SyntheticEngine(total_cycles=1000)
    platform = TransientPlatform(engine, Passive())
    assert Passive().active_guard(platform) == -math.inf
    assert Acting().active_guard(platform) is None


def test_active_profile_event_boundary_is_inclusive():
    """The strategy acts at v <= guard; the profile's strict v_falling
    boundary must therefore sit one ulp above the guard."""
    from repro.transient.hibernus import Hibernus

    engine = SyntheticEngine(total_cycles=10_000_000)
    platform = TransientPlatform(
        engine, Hibernus(v_hibernate=2.8, v_restore=3.0)
    )
    platform.go_active()
    profile = platform.load_profile(0.0, 1e-4, 3.1)
    assert profile is not None
    assert profile.v_falling == math.nextafter(2.8, math.inf)
    # `v < v_falling` is then exactly `v <= 2.8`: true at the guard
    # itself, false one ulp above it.
    assert 2.8 < profile.v_falling
    assert not profile.v_falling < profile.v_falling
    assert profile.current > 0.0 and profile.max_steps > 0


# -- rail max_steps handling -----------------------------------------------


class _TimedLoad:
    """A constant load valid for a declared number of steps."""

    def __init__(self, power, max_steps):
        self.power = power
        self.max_steps = max_steps
        self.committed = []

    def advance(self, t, dt, v_rail):
        return self.power * dt

    def load_profile(self, t, dt, v_rail):
        return LoadProfile(
            power=self.power,
            max_steps=self.max_steps,
            commit=lambda steps, dt_, energy: self.committed.append(
                (steps, energy)
            ),
        )

    def reset(self):
        pass


def test_rail_chunk_respects_time_based_boundaries():
    rail = SupplyRail(Capacitor(100e-6, v_max=5.0, v_initial=3.0))
    load = _TimedLoad(power=1e-3, max_steps=7)
    rail.attach_load(load)
    taken = rail.step_chunk(0.0, 1e-4, 4096)
    assert taken == 7  # the chunk may not cross the declared boundary
    steps, energy = load.committed[0]
    assert steps == 7
    assert energy == 7 * (1e-3 * 1e-4)


def test_rail_chunk_declines_when_boundary_is_immediate():
    rail = SupplyRail(Capacitor(100e-6, v_max=5.0, v_initial=3.0))
    rail.attach_load(_TimedLoad(power=1e-3, max_steps=0))
    assert rail.step_chunk(0.0, 1e-4, 4096) == 0
