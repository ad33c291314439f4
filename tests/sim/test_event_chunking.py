"""Unit coverage for the event-driven chunk protocol pieces.

The integration-level guarantees live in
``tests/integration/test_strategy_parity.py``; these tests pin the
descriptor-level arithmetic: the source-plan memo's exact-grid slicing
and forward extension, the synthetic engine's active-plan boundaries,
the transition table's float-exact operation countdown and guard, the
rail's handling of time-based ``max_steps`` boundaries, and counts that
bound the schedule's cost: how often a crossover point returns to
Python, chunks per Eq. (5) point, waveform samples per Fig. 7 point
and source values the Python loop converts per chunk.
"""

import math

import pytest

from repro.mcu.engine import SyntheticEngine
from repro.power.rail import SupplyRail
from repro.sim import kernel
from repro.sim.kernel import (
    ChunkStats, LoadProfile, SourcePlanMemo, operation_steps,
)
from repro.storage.capacitor import Capacitor
from repro.transient.base import (
    NullStrategy,
    PlatformState,
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


def _waveform(calls):
    """A waveform evaluator that records each call's window length."""
    import numpy as np

    def evaluate(times):
        calls.append(len(times))
        return np.sin(times * 3.0)

    return evaluate


def test_plan_memo_window_extends_forward():
    """A miss inside the held window or at its end keeps the held tail
    and evaluates only the steps past the held end, through
    ``LOOKAHEAD`` steps beyond the request; any other miss starts
    afresh.  Hits are views into the held array whose address is the
    view's own data pointer, and every window is bit-identical to
    evaluating its own steps."""
    import numpy as np

    from repro.sim.kernel import LOOKAHEAD

    calls = []
    evaluate = _waveform(calls)
    memo = SourcePlanMemo()
    dt = 1e-4

    def check(step, n):
        values, address, index = memo.window(step * dt, dt, n, evaluate)
        assert address == values.ctypes.data
        assert values.tobytes() == np.sin(
            (np.arange(step, step + n) * dt) * 3.0
        ).tobytes()
        return index

    assert check(0, 4096) == 0
    assert calls == [4096 + LOOKAHEAD]
    assert check(700, 4096) == 700  # inside the look-ahead: a hit
    assert calls == [4096 + LOOKAHEAD]
    assert check(4096, 4096) == 0  # past it: only the new steps
    assert calls == [4096 + LOOKAHEAD, 4096]
    held_end = 4096 + 4096 + LOOKAHEAD
    assert check(held_end, 8) == 0  # at the held end: forward, nothing kept
    assert calls[-1] == 8 + LOOKAHEAD
    check(100, 8)  # behind the held window: afresh
    assert calls[-1] == 8 + LOOKAHEAD
    assert memo.evaluated == sum(calls)
    # Off-grid requests are evaluated exactly and never held.
    values, address, index = memo.window(0.5 * dt, dt, 8, evaluate)
    assert len(values) == 8 and calls[-1] == 8 and index is None
    assert address == values.ctypes.data
    assert memo.get(100, dt, 8) is not None


def test_plan_memo_evaluates_each_step_once():
    """A walk of full-length requests, each consumed to a seeded
    length, evaluates every step it reaches exactly once: one surplus
    look-ahead at most, never an overlap."""
    import random

    import numpy as np

    from repro.sim.kernel import LOOKAHEAD

    evaluated = []

    def evaluate(times):
        evaluated.extend(np.rint(times / dt).astype(int).tolist())
        return np.cos(times * 7.0)

    memo = SourcePlanMemo()
    dt = 5e-5
    rng = random.Random(11)
    step = 0
    while step < 60_000:
        n = 4096
        values, _, _ = memo.window(step * dt, dt, n, evaluate)
        assert values.tobytes() == np.cos(
            (np.arange(step, step + n) * dt) * 7.0
        ).tobytes()
        step += rng.choice((1, 3, 40, 900, 2500, 4096))
    assert len(set(evaluated)) == len(evaluated)  # no step twice
    assert len(evaluated) <= step + 4096 + LOOKAHEAD
    assert memo.evaluated == len(evaluated)


def test_plan_memo_event_dense_walk_evaluates_once_per_lookahead():
    """A chunk every few steps (an event-dense run) costs one waveform
    call per ``LOOKAHEAD`` steps, not one per chunk."""
    from repro.sim.kernel import LOOKAHEAD

    calls = []
    evaluate = _waveform(calls)
    memo = SourcePlanMemo()
    dt = 1e-4
    steps = 50_000
    for step in range(0, steps, 7):
        memo.window(step * dt, dt, 4096, evaluate)
    assert len(calls) <= steps // LOOKAHEAD + 1
    assert sum(calls) <= steps + 4096 + LOOKAHEAD


def test_plan_memo_floats_mirror_converts_each_value_once():
    """The list mirror the Python loop reads equals the held values at
    every window's index, survives a forward extension (only the new
    values are converted) and restarts with a fresh window."""
    from repro.sim.kernel import LOOKAHEAD

    memo = SourcePlanMemo()
    evaluate = _waveform([])
    dt = 1e-4
    values, _, index = memo.window(0.0, dt, 64, evaluate)
    floats = memo.floats()
    assert floats[index:index + 64] == values.tolist()
    assert memo.converted == 64 + LOOKAHEAD
    values, _, index = memo.window(30 * dt, dt, 64, evaluate)  # a hit
    assert memo.floats()[index:index + 64] == values.tolist()
    assert memo.converted == 64 + LOOKAHEAD
    values, _, index = memo.window(1000 * dt, dt, 200, evaluate)  # forward
    assert memo.floats()[index:index + 200] == values.tolist()
    assert memo.converted == 1200 + LOOKAHEAD
    memo.window(10 * dt, dt, 4, evaluate)  # behind: afresh
    assert memo.floats()[:4] == memo.get(10, dt, 4).tolist()
    assert memo.converted == 1200 + LOOKAHEAD + 4 + LOOKAHEAD
    memo.clear()
    assert memo.converted == memo.evaluated == 0


def test_rectified_injector_memoises_across_chunks():
    """An overlapping chunk request reuses the evaluated waveform; one
    past it evaluates only the steps past the held end."""
    from repro.harvest.synthetic import SignalGenerator
    from repro.power.rail import RectifiedInjector
    from repro.sim.kernel import LOOKAHEAD

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
    assert first is not None and calls == [256 + LOOKAHEAD]
    assert first.memo is injector._memo and first.index == 0
    # A window further in: served from the memo, no re-eval.
    second = injector.chunk_plan(64 * dt, dt, 1024)
    assert second is not None and calls == [256 + LOOKAHEAD]
    assert second.values.tolist() == first.values[64:].tolist() + (
        injector._memo.get(256, dt, 832).tolist())
    assert second.address == first.address + 64 * 8
    assert second.index == 64
    # Past the held window: only the steps past its end.
    injector.chunk_plan(300 * dt, dt, 1024)
    assert calls == [256 + LOOKAHEAD, 300 + 1024 + LOOKAHEAD - 1280]
    injector.reset()
    injector.chunk_plan(0.0, dt, 8)
    assert calls[-1] == 8 + LOOKAHEAD


def test_seeded_plan_memo_serves_windows_without_reevaluating():
    """A memo seeded with a full-horizon plan serves each window
    bit-identical to evaluating it on the chunk's own time grid, never
    touching the waveform; a window past the seeded horizon evaluates
    only the steps past it, and clear() drops the seed."""
    import numpy as np

    from repro.harvest.synthetic import TrapezoidSupply
    from repro.power.rail import RectifiedInjector
    from repro.sim.kernel import LOOKAHEAD, chunk_times

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
    window = injector.chunk_plan((horizon - 8) * dt, dt, 16)  # past it
    assert calls == [8 + LOOKAHEAD]  # the seed's last 8 steps are kept
    assert window.values.tobytes() == fresh.open_circuit_voltage_array(
        chunk_times((horizon - 8) * dt, dt, 16)
    ).tobytes()
    injector._memo.put(0, dt, plan)
    injector.reset()  # clears the memo
    injector.chunk_plan(0.0, dt, 16)
    assert calls == [8 + LOOKAHEAD, 16 + LOOKAHEAD]
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


# -- operation rows --------------------------------------------------------


def test_operation_profile_countdown_matches_reference_subtraction():
    """The transition table's snapshot row replicates the reference
    path's repeated `remaining -= dt` float-for-float."""
    engine = SyntheticEngine(total_cycles=100_000)
    platform = TransientPlatform(engine, NullStrategy())
    platform.go_active()
    platform.begin_snapshot(full=True)
    operation = platform._operation
    dt = 1e-4
    profile = platform.load_profile(0.0, dt, 3.0)
    assert profile is not None and profile.table is not None
    table = profile.table
    assert table.state == kernel.SNAPSHOT
    assert table.energies[kernel.SNAPSHOT] == operation.power * dt
    # Reference countdown: steps until remaining goes non-positive.
    remaining = operation.remaining
    steps_to_complete = 0
    while remaining > 0.0:
        remaining -= dt
        steps_to_complete += 1
    assert table.left == steps_to_complete
    assert operation_steps(operation.remaining, dt) == steps_to_complete


def test_operation_table_follows_the_completing_step():
    """An operation completing on the next step no longer ends the
    chunk: the table counts down to it, commits the snapshot and
    sleeps, exactly as per-step execution does."""
    dt = 1e-4
    platforms = []
    for _ in range(2):
        engine = SyntheticEngine(total_cycles=100_000)
        platform = TransientPlatform(engine, NullStrategy())
        platform.go_active()
        platform.begin_snapshot(full=True)
        platform._operation.remaining = 1e-5  # completes on the next step
        platforms.append(platform)
    tabled, stepped = platforms
    assert tabled.load_profile(0.0, dt, 3.0).table.left == 1
    rail = SupplyRail(Capacitor(100e-6, v_max=5.0, v_initial=3.0))
    rail.attach_load(tabled)
    record = ChunkStats()
    assert rail.step_chunk(0.0, dt, 8, record) == 8
    assert record.transitions["snapshot-done"] == 1
    for i in range(8):
        stepped.advance(i * dt, dt, 3.0)
    for platform in platforms:
        assert platform.state is PlatformState.SLEEP
        assert platform.metrics.snapshots_completed == 1
        assert platform.store.has_snapshot()


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
    assert Passive().inline_hooks(platform).guard == -math.inf
    assert Acting().inline_hooks(platform).guard is None


def test_table_guard_is_inclusive():
    """The strategy acts at v <= guard; the table's strict ``v < guard``
    must therefore sit one ulp above it, for a progress counter and for
    the interpreter, whose ACTIVE row carries the machine's steps."""
    from repro.mcu.engine import MachineEngine
    from repro.mcu.machine import Machine
    from repro.mcu.programs import fft_program
    from repro.transient.hibernus import Hibernus

    engines = (SyntheticEngine(total_cycles=10_000_000),
               MachineEngine(Machine.from_source(fft_program(16))))
    for engine in engines:
        platform = TransientPlatform(
            engine, Hibernus(v_hibernate=2.8, v_restore=3.0)
        )
        platform.go_active()
        profile = platform.load_profile(0.0, 1e-4, 3.1)
        assert profile is not None
        table = profile.table
        assert table.guard == math.nextafter(2.8, math.inf)
        # `v < guard` is then exactly `v <= 2.8`: true at the guard
        # itself, false one ulp above it.
        assert 2.8 < table.guard
        assert not table.guard < table.guard
        assert table.current > 0.0 and table.budget > 0
        machine = getattr(engine, "machine", None)
        assert (table.machine is None) is (machine is None)
        if machine is not None:
            assert table.machine.machine is machine
            assert table.machine.budget == table.budget


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
    taken = rail.step_chunk(0.0, 1e-4, 4096, ChunkStats())
    assert taken == 7  # the chunk may not cross the declared boundary
    steps, energy = load.committed[0]
    assert steps == 7
    assert energy == 7 * (1e-3 * 1e-4)


def test_rail_chunk_declines_when_boundary_is_immediate():
    rail = SupplyRail(Capacitor(100e-6, v_max=5.0, v_initial=3.0))
    rail.attach_load(_TimedLoad(power=1e-3, max_steps=0))
    record = ChunkStats()
    assert rail.step_chunk(0.0, 1e-4, 4096, record) == 0
    assert record.at_event  # the event step, not a refusal


# -- engagement guard ------------------------------------------------------


def test_crossover_point_stays_inside_chunks():
    """A 60 Hz Hibernus crossover point crosses hundreds of platform
    transitions; the chunk loops follow them, so chunk calls plus
    per-step steps stay far below the 448 + 390 = 838 a point took when
    every transition cost a short chunk and a Python event step.  A
    refactor that silently turned the table off would fail here."""
    from repro.spec.presets import preset

    spec = preset("crossover-hibernus").with_overrides(
        {"kernel": "fast", "frequency": 60.0, "capacitance": 15e-6}
    )
    system = spec.build()
    system.run(spec.duration)
    stats = system.simulator.chunk_stats
    assert system.platform.metrics.completions == 1
    assert sum(stats.transitions.values()) > 300
    assert stats.chunks + stats.fallback_steps < 838 // 10, stats


@pytest.mark.parametrize("strategy,frequency,capacitance", [
    ("hibernus", 10.0, 20e-6),
    ("hibernus", 60.0, 15e-6),
    ("quickrecall", 3.0, 27e-6),
    ("quickrecall", 45.0, 12e-6),
])
def test_an_eq5_point_asks_for_full_length_chunks(strategy, frequency,
                                                  capacitance):
    """Every chunk attempt asks for the full length: a fast Eq. (5)
    point makes at most ceil(steps / 4096) chunks, plus one per return
    to Python, plus one.  A ramp from 64 steps doubling to 4096 cost
    the same points ~7 chunks."""
    from repro.sim.engine import _MAX_CHUNK
    from repro.spec.presets import preset

    spec = preset(f"crossover-{strategy}", frequency=frequency)
    spec = spec.with_overrides({"kernel": "fast", "capacitance": capacitance})
    system = spec.build()
    system.run(spec.duration)
    stats = system.simulator.chunk_stats
    steps = system.simulator.steps
    assert system.platform.metrics.completions == 1
    assert stats.chunks <= math.ceil(steps / _MAX_CHUNK) + (
        stats.fallback_steps) + 1, (steps, stats)


def fig7_point():
    """A Fig. 7 point: FFT-512, 27 uF, 2.2 kOhm, 7 Hz."""
    from repro.spec.presets import preset

    return preset("fig7").with_overrides({
        "kernel": "fast", "capacitance": 27e-6,
        "source_resistance": 2200.0, "frequency": 7.0,
    })


@pytest.fixture
def kernel_rung(monkeypatch):
    """Select the chunk loops' rung for a test: ``rung("python")`` or
    ``rung("c")`` (False when no compiled loop loads)."""
    from repro import degrade
    from repro.sim import _ckernel

    def select(rung):
        if rung == "python":
            monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
        else:
            monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
        _ckernel.reset_cache()
        return rung == "python" or _ckernel.load() is not None

    yield select
    monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
    _ckernel.reset_cache()
    degrade.reset()


def test_a_fig7_point_evaluates_each_source_step_once(monkeypatch,
                                                      kernel_rung):
    """On the Python rung, where the memo serves the chunk loop, a
    Fig. 7 point evaluates its waveform at most once per step plus one
    look-ahead, where re-evaluating every overlap cost ~33k samples for
    its 24k steps."""
    from repro.harvest.synthetic import SignalGenerator
    from repro.sim.kernel import LOOKAHEAD

    samples = []
    real = SignalGenerator.open_circuit_voltage_array

    def counting(self, times):
        samples.append(len(times))
        return real(self, times)

    monkeypatch.setattr(SignalGenerator, "open_circuit_voltage_array",
                        counting)
    kernel_rung("python")
    spec = fig7_point()
    system = spec.build()
    system.run(spec.duration, decimate=spec.decimate)
    steps = system.simulator.steps
    assert system.platform.metrics.completions >= 1
    assert steps <= sum(samples) <= steps + LOOKAHEAD, (steps, samples)
    (injector,) = system.rail._injectors
    assert injector._memo.evaluated == sum(samples)


@pytest.mark.parametrize("point", ["eq5", "fig7"])
def test_the_compiled_loop_evaluates_no_memo_samples(kernel_rung, point):
    """On the C rung the chunk loop evaluates the closed-form supplies
    itself: an Eq. (5) point (``crossover-hibernus`` at 10 Hz, a
    trapezoid) and the Fig. 7 point (a rectified sine) evaluate no
    memo sample, where the memo evaluated ~10k and ~24k."""
    from repro.spec.presets import preset

    if not kernel_rung("c"):
        pytest.skip("no C compiler available")
    spec = (fig7_point() if point == "fig7" else preset(
        "crossover-hibernus", frequency=10.0
    ).with_override("kernel", "fast"))
    system = spec.build()
    system.run(spec.duration, decimate=spec.decimate)
    (injector,) = system.rail._injectors
    assert system.platform.metrics.completions >= 1
    assert system.simulator.chunk_stats.chunked_steps > 5000
    assert injector._memo.evaluated == injector._memo.converted == 0


def test_python_rung_converts_each_source_value_once(monkeypatch):
    """The Python chunk loop reads a chunk's source values from the
    memo's list mirror at an offset: over the event-dense sense case (a
    chunk every ~10 steps) it converts each value once, about ten per
    chunk, where converting each chunk's whole window cost 4,096 a
    chunk.  The compiled loop converts none."""
    from repro import degrade
    from repro.sim import _ckernel
    from repro.sim.kernel import LOOKAHEAD
    from tests.integration.test_strategy_parity import _sense_system

    converted = {}
    try:
        for rung in ("python", "c"):
            if rung == "python":
                monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
            else:
                monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
            _ckernel.reset_cache()
            if rung == "c" and _ckernel.load() is None:
                continue
            system = _sense_system("fast")
            system.run(1.0)
            (injector,) = system.rail._injectors
            stats = system.simulator.chunk_stats
            converted[rung] = (injector._memo.converted, stats.chunks,
                               stats.chunked_steps, system.simulator.steps)
    finally:
        _ckernel.reset_cache()
        degrade.reset()
    count, chunks, chunked, steps = converted["python"]
    assert chunks > 1000, converted
    assert chunked <= count <= steps + LOOKAHEAD, converted
    assert count / chunks < 16, converted
    if "c" in converted:
        assert converted["c"][0] == 0, converted


def test_chunk_ends_when_its_transition_log_fills(monkeypatch):
    """A chunk that follows more transitions than its log holds ends
    after the step that nearly fills it, on both rungs alike, exactly
    where per-step execution is after as many steps."""
    from repro import degrade
    from repro.sim import _ckernel
    from repro.sim.kernel import LOG_CAPACITY
    from repro.spec.presets import preset

    spec = preset(
        "crossover-quickrecall", frequency=99.0, total_cycles=40_000_000
    ).with_overrides({"kernel": "fast", "dt": 2e-4})
    outcomes = []
    try:
        for rung in ("python", "c"):
            if rung == "python":
                monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
            else:
                monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
            _ckernel.reset_cache()
            degrade.reset()
            system = spec.build()
            record = ChunkStats()
            taken = system.rail.step_chunk(0.0, spec.dt, 4096, record)
            followed = sum(record.transitions.values())
            assert not any(record.fallback_transitions.values())
            assert LOG_CAPACITY - 3 < followed <= LOG_CAPACITY
            assert 0 < taken < 4096
            metrics = system.platform.metrics
            outcomes.append((taken, system.rail.voltage, metrics.boots,
                             metrics.brownouts, metrics.snapshots_completed,
                             metrics.restores_completed,
                             metrics.cycles_executed))
    finally:
        _ckernel.reset_cache()
        degrade.reset()
    if _ckernel.load() is not None:
        assert outcomes[0] == outcomes[1]
    reference = spec.with_override("kernel", "reference").build()
    for i in range(outcomes[0][0]):
        reference.rail.step(i * spec.dt, spec.dt)
    metrics = reference.platform.metrics
    assert outcomes[0][2:] == (
        metrics.boots, metrics.brownouts, metrics.snapshots_completed,
        metrics.restores_completed, metrics.cycles_executed,
    )
    assert abs(outcomes[0][1] - reference.rail.voltage) <= 1e-9
