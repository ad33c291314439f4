"""Tests for the fast (chunked) kernel and exact time accounting."""

import math

import numpy as np
import pytest

from repro.core.system import EnergyDrivenSystem
from repro.errors import ConfigurationError
from repro.harvest.synthetic import SignalGenerator, SquareWavePowerHarvester
from repro.power.rail import ResistiveLoad
from repro.sim.engine import Component, Simulator
from repro.sim.kernel import KERNELS, validate_kernel
from repro.storage.battery import RechargeableBattery
from repro.storage.capacitor import Capacitor
from repro.storage.supercap import Supercapacitor
from repro.transient.hibernus import Hibernus


def build_fig7_like(kernel, *, storage=None, duration=0.3, extra_probe=False):
    """A small Hibernus system exercising every chunk regime."""
    from repro.mcu.engine import SyntheticEngine
    from repro.transient.base import SnapshotStore, TransientPlatform

    system = EnergyDrivenSystem(dt=50e-6, kernel=kernel)
    system.set_storage(storage or Capacitor(22e-6, v_max=3.3))
    system.add_voltage_source(
        SignalGenerator(4.5, 4.7, rectified=True, source_resistance=1500.0)
    )
    platform = TransientPlatform(
        SyntheticEngine(total_cycles=200_000),
        Hibernus(v_hibernate=2.5, v_restore=2.9),
        store=SnapshotStore(2),
    )
    system.set_platform(platform)
    if extra_probe:
        system.probe("stored", lambda: system.rail.storage.stored_energy)
    result = system.run(duration)
    return system, result


# ---------------------------------------------------------------------------
# Exact time accounting (no float accumulation drift)
# ---------------------------------------------------------------------------


def test_time_is_exact_after_ten_million_steps_fast_kernel():
    # An empty simulator chunks trivially, so 10M steps are instant; the
    # point is that t == steps * dt with zero accumulated rounding error.
    sim = Simulator(dt=50e-6, kernel="fast")
    result = sim.run(max_steps=10_000_000)
    assert result.steps == 10_000_000
    assert sim.steps == 10_000_000
    assert sim.t == 10_000_000 * 50e-6
    assert sim.t == 500.0  # exactly, not approximately


def test_time_is_exact_after_a_million_reference_steps():
    sim = Simulator(dt=1e-4, kernel="reference")
    result = sim.run(max_steps=1_000_000)
    assert result.steps == 1_000_000
    assert sim.t == 1_000_000 * 1e-4
    assert sim.t == 100.0


def test_per_step_times_sit_on_the_exact_grid():
    class TimeLog(Component):
        def __init__(self):
            self.times = []

        def step(self, t, dt):
            self.times.append(t)

    sim = Simulator(dt=0.1)
    log = sim.add(TimeLog())
    sim.run(duration=1.0)
    assert log.times == [i * 0.1 for i in range(10)]


def test_duration_step_count_matches_between_kernels():
    # The chunked path must execute exactly the per-step predicate's count.
    for duration in (0.01, 0.0501, 0.1, 0.09999):
        counts = {}
        for kernel in KERNELS:
            sim = Simulator(dt=50e-6, kernel=kernel)
            counts[kernel] = sim.run(duration=duration).steps
        assert counts["fast"] == counts["reference"]


# ---------------------------------------------------------------------------
# Kernel selection / validation
# ---------------------------------------------------------------------------


def test_unknown_kernel_rejected():
    with pytest.raises(ConfigurationError):
        Simulator(dt=1e-3, kernel="warp")
    with pytest.raises(ValueError):
        validate_kernel("warp")


# ---------------------------------------------------------------------------
# Fast kernel equivalence on a real system
# ---------------------------------------------------------------------------


def test_fast_kernel_matches_reference_traces():
    _, ref = build_fig7_like("reference")
    _, fast = build_fig7_like("fast")
    for name in ("vcc", "state", "frequency"):
        a, b = ref.traces[name], fast.traces[name]
        assert len(a) == len(b)
        np.testing.assert_array_equal(a.times, b.times)
        assert np.max(np.abs(a.values - b.values)) <= 1e-9
    # State transitions (discrete events) must agree exactly.
    np.testing.assert_array_equal(
        ref.traces["state"].values, fast.traces["state"].values
    )


def test_fast_kernel_matches_reference_energy_bookkeeping():
    sys_ref, _ = build_fig7_like("reference")
    sys_fast, _ = build_fig7_like("fast")
    for field in ("harvested", "consumed", "leaked", "starved"):
        ref_val = getattr(sys_ref.rail.stats, field)
        fast_val = getattr(sys_fast.rail.stats, field)
        assert fast_val == pytest.approx(ref_val, abs=1e-12)


def test_fast_kernel_with_supercap_and_bleed_matches_reference():
    results = {}
    for kernel in KERNELS:
        system = EnergyDrivenSystem(dt=1e-4, kernel=kernel)
        system.set_storage(Supercapacitor(100e-6, v_max=3.5))
        system.add_voltage_source(SignalGenerator(4.0, 8.0, rectified=True))
        system.add_load(ResistiveLoad(2200.0))
        results[kernel] = system.run(1.0)
    a, b = results["reference"].vcc(), results["fast"].vcc()
    assert len(a) == len(b)
    assert np.max(np.abs(a.values - b.values)) <= 1e-9


def test_fast_kernel_with_power_source_matches_reference():
    results = {}
    for kernel in KERNELS:
        system = EnergyDrivenSystem(dt=1e-4, kernel=kernel)
        system.set_storage(Capacitor(47e-6, v_max=3.3,
                                     leakage_resistance=5e6))
        system.add_power_source(SquareWavePowerHarvester(2e-3, period=0.25))
        system.add_load(ResistiveLoad(4700.0))
        results[kernel] = system.run(1.0)
    a, b = results["reference"].vcc(), results["fast"].vcc()
    assert np.max(np.abs(a.values - b.values)) <= 1e-9


# ---------------------------------------------------------------------------
# Fallback behaviour
# ---------------------------------------------------------------------------


def test_stateful_harvester_falls_back_and_stays_bit_exact():
    # A flickering indoor PV cell consumes RNG state per power() call;
    # chunk planning would evaluate (and sometimes discard) future steps,
    # desyncing the stream.  chunk_safe() must veto chunking so the fast
    # kernel takes the per-step path and agrees bit-for-bit.
    from repro.harvest.solar import PhotovoltaicHarvester

    results = {}
    for kernel in KERNELS:
        from repro.mcu.engine import SyntheticEngine
        from repro.transient.base import SnapshotStore, TransientPlatform

        system = EnergyDrivenSystem(dt=50e-6, kernel=kernel)
        system.set_storage(Capacitor(22e-6, v_max=3.3))
        system.add_power_source(PhotovoltaicHarvester.indoor_fig1b())
        platform = TransientPlatform(
            SyntheticEngine(total_cycles=100_000),
            Hibernus(v_hibernate=2.5, v_restore=2.9),
            store=SnapshotStore(2),
        )
        system.set_platform(platform)
        results[kernel] = system.run(0.3)
    np.testing.assert_array_equal(
        results["reference"].vcc().values, results["fast"].vcc().values
    )


def test_chunk_times_match_the_exact_step_grid():
    from repro.sim.kernel import chunk_times

    dt = 50e-6
    for step0 in (0, 17, 4097, 239_998):
        t0 = step0 * dt
        times = chunk_times(t0, dt, 64)
        expected = np.array([(step0 + i) * dt for i in range(64)])
        np.testing.assert_array_equal(times, expected)


def test_unchunkable_storage_falls_back_to_per_step():
    results = {}
    for kernel in KERNELS:
        system = EnergyDrivenSystem(dt=1e-3, kernel=kernel)
        system.set_storage(RechargeableBattery(capacity=5.0))
        system.add_power_source(SquareWavePowerHarvester(1e-3, period=0.5))
        system.add_load(ResistiveLoad(10_000.0))
        results[kernel] = system.run(2.0)
    a, b = results["reference"].vcc(), results["fast"].vcc()
    # A battery publishes no chunk physics: the fast kernel must take the
    # per-step path and agree bit-for-bit.
    np.testing.assert_array_equal(a.values, b.values)


def test_unchunkable_probe_disables_chunking_but_stays_correct():
    _, ref = build_fig7_like("reference", extra_probe=True)
    _, fast = build_fig7_like("fast", extra_probe=True)
    # The custom probe has no chunk_fn -> fast kernel runs per-step and
    # reproduces the reference exactly (same code path).
    np.testing.assert_array_equal(
        ref.traces["stored"].values, fast.traces["stored"].values
    )
    np.testing.assert_array_equal(
        ref.vcc().values, fast.vcc().values
    )


def test_strategy_subclass_with_custom_on_sleep_falls_back():
    # Overriding on_sleep without redeclaring a wake threshold must veto
    # chunking (the inherited threshold would skip the override's
    # per-step side effects), keeping the kernels bit-identical.
    class CountingHibernus(Hibernus):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.sleep_polls = 0

        def on_sleep(self, platform, t, v):
            self.sleep_polls += 1
            super().on_sleep(platform, t, v)

    from repro.mcu.engine import SyntheticEngine
    from repro.transient.base import SnapshotStore, TransientPlatform

    results = {}
    strategies = {}
    for kernel in KERNELS:
        system = EnergyDrivenSystem(dt=50e-6, kernel=kernel)
        system.set_storage(Capacitor(22e-6, v_max=3.3))
        system.add_voltage_source(
            SignalGenerator(4.5, 4.7, rectified=True, source_resistance=1500.0)
        )
        strategy = CountingHibernus(v_hibernate=2.5, v_restore=2.9)
        platform = TransientPlatform(
            SyntheticEngine(total_cycles=200_000), strategy,
            store=SnapshotStore(2),
        )
        system.set_platform(platform)
        results[kernel] = system.run(0.3)
        strategies[kernel] = strategy
    assert strategies["fast"].inline_hooks(platform).wake_at is None
    assert strategies["fast"].sleep_polls == strategies["reference"].sleep_polls
    np.testing.assert_array_equal(
        results["reference"].vcc().values, results["fast"].vcc().values
    )


def test_multi_component_simulator_falls_back():
    class Counter(Component):
        def __init__(self):
            self.steps = 0

        def step(self, t, dt):
            self.steps += 1

    sim = Simulator(dt=1e-3, kernel="fast")
    a, b = sim.add(Counter()), sim.add(Counter())
    result = sim.run(duration=0.5)
    assert result.steps == 500
    assert a.steps == b.steps == 500


def test_stop_condition_on_event_fires_on_same_step_in_both_kernels():
    ends = {}
    for kernel in KERNELS:
        from repro.mcu.engine import SyntheticEngine
        from repro.transient.base import SnapshotStore, TransientPlatform

        system = EnergyDrivenSystem(dt=50e-6, kernel=kernel)
        system.set_storage(Capacitor(22e-6, v_max=3.3))
        system.add_voltage_source(
            SignalGenerator(4.5, 4.7, rectified=True, source_resistance=1500.0)
        )
        platform = TransientPlatform(
            SyntheticEngine(total_cycles=200_000),
            Hibernus(v_hibernate=2.5, v_restore=2.9),
            store=SnapshotStore(2),
        )
        system.set_platform(platform)
        system.stop_when(
            lambda t, p=platform: p.metrics.first_completion_time is not None,
            chunk_safe=True,
        )
        result = system.run(2.0)
        ends[kernel] = result.t_end
    assert ends["fast"] == ends["reference"]


def test_non_chunk_safe_stop_condition_disables_chunking():
    # A condition on a continuously varying quantity must be observed
    # every step: the fast kernel falls back per-step and stops on
    # exactly the same step as the reference kernel.
    results = {}
    for kernel in KERNELS:
        system = EnergyDrivenSystem(dt=1e-4, kernel=kernel)
        system.set_storage(Capacitor(47e-6, v_max=3.3))
        system.add_voltage_source(SignalGenerator(4.0, 8.0, rectified=True))
        system.add_load(ResistiveLoad(10_000.0))
        rail = system.rail
        system.stop_when(lambda t: rail.voltage >= 2.0)
        results[kernel] = system.run(1.0)
    ref, fast = results["reference"], results["fast"]
    assert fast.t_end == ref.t_end
    np.testing.assert_array_equal(ref.vcc().values, fast.vcc().values)
    assert ref.vcc().values[-1] >= 2.0


def test_chunked_steps_report_events_at_exact_threshold_crossings():
    # The wake (v >= v_restore) transition step must be identical; the
    # state trace pins every transition index.
    _, ref = build_fig7_like("reference", duration=0.6)
    _, fast = build_fig7_like("fast", duration=0.6)
    ref_states = ref.traces["state"].values
    fast_states = fast.traces["state"].values
    transitions_ref = np.nonzero(np.diff(ref_states))[0]
    transitions_fast = np.nonzero(np.diff(fast_states))[0]
    assert transitions_ref.size > 0
    np.testing.assert_array_equal(transitions_ref, transitions_fast)


# ---------------------------------------------------------------------------
# Chunked probe sampling
# ---------------------------------------------------------------------------


def chunk_recorder(**probe):
    """A one-probe recorder whose chunk values are the step indices, and
    a function feeding it chunks of ``k`` steps from ``first`` (dt 1)."""
    from repro.sim.probes import Recorder

    recorder = Recorder()
    last = [0]

    def chunk_fn(k):
        return np.arange(last[0] - k, last[0], dtype=float)

    recorder.add("x", lambda: 0.0, chunk_fn=chunk_fn, **probe)

    def feed(first, k):
        last[0] = first + k
        recorder.sample_chunk(first, k, 1.0)

    return recorder, feed


def test_chunked_decimation_matches_per_step_decimation():
    from repro.sim.probes import Probe

    per_step = Probe("a", lambda: 1.0, decimate=3)
    for i in range(1, 23):
        per_step.sample(float(i))
    recorder, feed = chunk_recorder(decimate=3)
    # Split awkwardly to cross chunk boundaries mid-decimation-window.
    for first, k in ((1, 4), (5, 1), (6, 12), (18, 5)):
        feed(first, k)
    np.testing.assert_array_equal(per_step.trace().times,
                                  recorder.traces()["x"].times)


def test_chunk_stats_helper():
    from repro.sim.kernel import ChunkStats

    stats = ChunkStats()
    assert stats.chunked_fraction() == 0.0
    stats.chunked_steps = 75
    stats.fallback_steps = 25
    assert stats.chunked_fraction() == 0.75


def test_fast_kernel_reports_chunk_coverage():
    system, result = build_fig7_like("fast")
    stats = system.simulator.chunk_stats
    assert stats.chunked_steps + stats.fallback_steps == result.traces[
        "vcc"
    ].times.size
    # The quiescent regimes dominate this scenario: most steps chunk.
    assert stats.chunked_fraction() > 0.5
    assert stats.chunks > 0
    system.reset()
    assert system.simulator.chunk_stats.chunked_steps == 0


# ---------------------------------------------------------------------------
# Event-exact schedule and fallback reasons
# ---------------------------------------------------------------------------


class _ShortChunks(Component):
    """Chunks at most 10 steps at a time, logging every call."""

    def __init__(self):
        self.calls = []

    def step(self, t, dt):
        self.calls.append("step")

    def step_chunk(self, t0, dt, n, record):
        self.calls.append("chunk")
        return min(n, 10)


class _Refuses(_ShortChunks):
    def step_chunk(self, t0, dt, n, record):
        self.calls.append("chunk")
        return 0


def test_short_chunk_is_followed_by_its_event_step_without_an_attempt():
    sim = Simulator(dt=1e-3, kernel="fast")
    component = sim.add(_ShortChunks())
    sim.run(max_steps=55)
    # Each 10-step chunk stops short of the requested length, so the
    # next step is the event step: run per-step, no refused attempt.
    assert component.calls == ["chunk", "step"] * 5
    stats = sim.chunk_stats
    assert stats.fallbacks == {
        "event": 5, "refused": 0, "backoff": 0, "unchunkable": 0,
    }
    assert stats.chunked_steps + stats.fallback_steps == 55


def test_refused_attempts_back_off_exponentially():
    sim = Simulator(dt=1e-3, kernel="fast")
    component = sim.add(_Refuses())
    sim.run(max_steps=15)
    # Attempts on steps 1, 3, 6 and 11; 1, 2, 4 and 4 backoff steps.
    assert component.calls.count("chunk") == 4
    assert sim.chunk_stats.fallbacks == {
        "event": 0, "refused": 4, "backoff": 11, "unchunkable": 0,
    }
    assert sim.chunk_stats.fallback_steps == 15


def test_unchunkable_schedules_count_every_step():
    sim = Simulator(dt=1e-3, kernel="fast")
    sim.add(_ShortChunks())
    sim.probe("t", lambda: sim.t)  # no chunk_fn: per-step only
    sim.run(max_steps=7)
    empty = Simulator(dt=1e-3, kernel="fast")
    empty.run(max_steps=1)  # a single step left: nothing to chunk
    for stats, steps in ((sim.chunk_stats, 7), (empty.chunk_stats, 1)):
        assert stats.fallbacks["unchunkable"] == stats.fallback_steps == steps


@pytest.mark.parametrize(
    "name", ["crossover-hibernus", "crossover-quickrecall"]
)
def test_crossover_schedule_is_event_exact(name):
    from repro.spec.presets import preset

    spec = preset(name).with_overrides({"kernel": "fast", "frequency": 40.0})
    system = spec.build()
    system.run(spec.duration, decimate=spec.decimate)
    sim = system.simulator
    stats = sim.chunk_stats
    reasons = stats.fallbacks
    assert sum(reasons.values()) == stats.fallback_steps
    assert stats.chunked_steps + stats.fallback_steps == sim.steps
    # Chunks follow every supply interruption's transitions inline;
    # the one step left to Python is the one that completes the
    # workload, after a chunk that stopped exactly before it.
    assert sum(stats.transitions.values()) > 50
    assert stats.fallback_transitions["halt"] == 1
    assert reasons["event"] == 1
    assert reasons["refused"] == reasons["backoff"] == 0
