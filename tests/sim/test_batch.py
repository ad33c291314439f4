"""Batched SoA kernel: exactness against per-scenario fast runs.

Every test here enforces the batch contract — bit-identical vcc traces,
identical event timing and spec hashes, metrics within float
re-association tolerance — across the strategy catalog, mixed physical
parameters, forced divergence, and both the compiled-C and numpy pass
implementations.
"""

import dataclasses

import numpy as np
import pytest

import repro.sim.batch as B
from repro.sim import _ckernel
from repro.results.run_result import spec_hash
from repro.harvest.synthetic import TrapezoidSupply
from repro.power.rail import SupplyRail
from repro.sim.engine import _MIN_CHUNK
from repro.spec.presets import fig7_spec, preset
from repro.spec.runner import run_point_payload
from repro.spec.specs import StorageSpec

#: Relative tolerance for scalar metrics (float re-association between
#: chunk partitions; the vcc trace itself must match bit for bit).
METRIC_RTOL = 1e-9


#: The shipped pass-group threshold, read before any fixture lowers it.
DEFAULT_MIN_VECTOR_GROUP = B._MIN_VECTOR_GROUP


@pytest.fixture(autouse=True)
def _small_groups(monkeypatch):
    """Let tiny test batches reach the vectorized passes."""
    monkeypatch.setattr(B, "_MIN_VECTOR_GROUP", 2)


@pytest.fixture
def default_groups(monkeypatch):
    """Undo ``_small_groups``: batches take the shipped routing."""
    monkeypatch.setattr(B, "_MIN_VECTOR_GROUP", DEFAULT_MIN_VECTOR_GROUP)


def crossover_grid(strategy, frequencies, capacitances, storage=None):
    """Short Eq. (5) crossover points on the fast kernel; ``storage``
    swaps the preset's ideal capacitor for another storage kind."""
    base = preset(f"crossover-{strategy}").with_overrides({
        "kernel": "fast", "engine__total_cycles": 1_000_000,
        "duration": 3.0,
    })
    specs = []
    for frequency in frequencies:
        for capacitance in capacitances:
            spec = base.with_overrides(
                {"frequency": frequency, "capacitance": capacitance}
            )
            if storage is not None:
                spec = dataclasses.replace(spec, storage=StorageSpec(
                    storage, {"capacitance": capacitance, "v_max": 3.3}
                ))
            specs.append(spec)
    return specs


def base_spec(duration=0.05, **overrides):
    spec = fig7_spec(fft_size=64, duration=duration)
    return spec.with_overrides({"kernel": "fast", **overrides})


def with_strategy(spec, strategy, params=None):
    platform = dataclasses.replace(
        spec.platform, strategy=strategy, strategy_params=params or {}
    )
    return dataclasses.replace(spec, platform=platform)


def solo_record(spec, traces=("vcc", "state")):
    """Per-scenario fast run through the ordinary point worker."""
    record = run_point_payload(
        {"spec": spec.to_dict(), "traces": list(traces)}
    )
    assert "error" not in record, record.get("error")
    return record


def assert_member_matches_solo(spec, result):
    """One batch member against its solo fast run: the full contract."""
    record = solo_record(spec)
    assert result.ok, result.error
    assert result.spec_hash == record["spec_hash"] == spec_hash(spec)
    batched_vcc = np.asarray(result.traces["vcc"]["values"])
    solo_vcc = np.asarray(record["traces"]["vcc"]["values"])
    assert batched_vcc.shape == solo_vcc.shape
    assert np.array_equal(batched_vcc, solo_vcc), (
        f"{spec.name}: vcc diverged by "
        f"{np.abs(batched_vcc - solo_vcc).max():.3g}"
    )
    assert np.array_equal(
        np.asarray(result.traces["state"]["values"]),
        np.asarray(record["traces"]["state"]["values"]),
    )
    for key, value in result.metrics.items():
        reference = record["metrics"][key]
        if isinstance(value, float) and isinstance(reference, float):
            tolerance = METRIC_RTOL * max(1.0, abs(reference))
            assert abs(value - reference) <= tolerance, (key, value,
                                                        reference)
        else:
            assert value == reference, (key, value, reference)


def run_batched(specs, **kwargs):
    stats = B.BatchStats()
    results = B.run_specs_batched(
        specs, capture_traces=("vcc", "state"), stats=stats, **kwargs
    )
    return results, stats


@pytest.mark.parametrize(
    "strategy",
    ["hibernus", "hibernus++", "quickrecall", "nvp", "mementos"],
)
def test_parity_across_strategy_catalog(strategy):
    """Each checkpointing strategy's batch equals its solo fast runs."""
    specs = [
        with_strategy(base_spec(capacitance=c), strategy)
        for c in (22e-6, 40e-6, 68e-6)
    ]
    results, stats = run_batched(specs)
    assert stats.members == len(specs)
    assert stats.advanced > 0
    for spec, result in zip(specs, results):
        assert_member_matches_solo(spec, result)


def test_mid_snapshot_brownout_member_in_healthy_batch():
    """A member forced to brown out mid-snapshot (undersized explicit
    V_H against a large snapshot image) settles through the reference
    path without disturbing its healthy batch mates."""
    healthy = [
        base_spec(duration=0.4, capacitance=c) for c in (33e-6, 47e-6)
    ]
    sick_base = fig7_spec(fft_size=512, duration=0.4).with_overrides(
        {"kernel": "fast"}
    )
    sick = dataclasses.replace(
        sick_base,
        platform=dataclasses.replace(
            sick_base.platform,
            strategy_params={"v_hibernate": 2.0, "v_restore": 2.9},
            machine_params={
                **sick_base.platform.machine_params,
                "data_space_words": 60000,
            },
        ),
    )
    specs = [healthy[0], sick, healthy[1]]
    results, _ = run_batched(specs)
    states = np.asarray(results[1].traces["state"]["values"])
    transitions = states[np.r_[True, states[1:] != states[:-1]]].tolist()
    assert any(
        a == 3.0 and b == 0.0  # SNAPSHOT -> OFF: died mid-snapshot
        for a, b in zip(transitions, transitions[1:])
    ), f"expected a mid-snapshot brownout, saw {transitions}"
    for spec, result in zip(specs, results):
        assert_member_matches_solo(spec, result)


def test_mixed_capacitance_golden_traces():
    """A mixed-capacitance batch reproduces each member's solo trace
    bit for bit (the solo fast kernel is the golden reference)."""
    specs = [
        base_spec(capacitance=c)
        for c in np.linspace(22e-6, 80e-6, 6)
    ]
    results, stats = run_batched(specs)
    assert stats.members == len(specs)
    for spec, result in zip(specs, results):
        assert len(result.traces["vcc"]["values"]) > 0
        assert_member_matches_solo(spec, result)


def test_event_timestamps_never_reordered_or_merged():
    """Property: batching never reorders, merges or shifts platform
    state transitions — each member's transition times are strictly
    increasing and identical to its solo run's."""
    rng = np.random.default_rng(7)
    specs = [
        base_spec(
            duration=0.1,
            capacitance=float(rng.uniform(15e-6, 90e-6)),
            source_resistance=float(rng.uniform(800.0, 2500.0)),
        )
        for _ in range(8)
    ]
    results, _ = run_batched(specs)
    for spec, result in zip(specs, results):
        record = solo_record(spec, traces=("state",))
        for trace in (result.traces["state"], record["traces"]["state"]):
            times = np.asarray(trace["times"])
            assert bool(np.all(np.diff(times) > 0))
        b_times = np.asarray(result.traces["state"]["times"])
        b_states = np.asarray(result.traces["state"]["values"])
        s_times = np.asarray(record["traces"]["state"]["times"])
        s_states = np.asarray(record["traces"]["state"]["values"])
        b_edges = np.flatnonzero(b_states[1:] != b_states[:-1]) + 1
        s_edges = np.flatnonzero(s_states[1:] != s_states[:-1]) + 1
        assert np.array_equal(b_times[b_edges], s_times[s_edges])
        assert np.array_equal(b_states[b_edges], s_states[s_edges])


@pytest.mark.parametrize("strategy", ["hibernus", "quickrecall"])
def test_crossover_scalar_lanes_match_solo_at_default_group(
    strategy, default_groups
):
    """The path Eq. (5) sweeps take at the shipped group size: lanes
    outside the simple regime (here the preset's two loads, and a
    32-lane group on a leaky supercapacitor with ESR overhead) advance
    one at a time through the scalar chunk loop — no array pass — and
    still meet the full batch contract against solo fast runs."""
    plain = crossover_grid(strategy, (2.0, 30.0), (10e-6, 22e-6))
    leaky = crossover_grid(
        strategy, (1.5, 3.1, 6.4, 13.0, 27.0, 43.0, 61.0, 90.0),
        (10e-6, 14e-6, 22e-6, 33e-6), storage="supercapacitor",
    )
    assert len(leaky) >= DEFAULT_MIN_VECTOR_GROUP
    for specs in (plain, leaky):
        results, stats = run_batched(specs)
        assert stats.members == len(specs)
        assert stats.diverged == 0
        assert stats.passes == 0
        assert stats.scalar_chunks > 0
        assert sum(r.metrics["brownouts"] for r in results) > 0
        for spec, result in zip(specs, results):
            assert_member_matches_solo(spec, result)


def test_crossover_batch_work_counts(monkeypatch, default_groups):
    """Work, not time: a batched crossover evaluates each waveform sample
    once per distinct plan — lanes slice the shared plans through their
    injector memos — and only about as far as the lanes actually run,
    not to the full duration; every lane's scalar chunk requests follow
    the solo schedule, short after an event rather than full-length."""
    evaluated = []
    original = TrapezoidSupply.open_circuit_voltage_array

    def counting(self, times):
        evaluated.append(len(times))
        return original(self, times)

    monkeypatch.setattr(
        TrapezoidSupply, "open_circuit_voltage_array", counting
    )
    caches = []

    class RecordingCache(B._PlanCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(B, "_PlanCache", RecordingCache)
    requests = {}
    step_chunk = SupplyRail.step_chunk

    def recording(self, t0, dt, n):
        taken = step_chunk(self, t0, dt, n)
        requests.setdefault(id(self), []).append((round(t0 / dt), n, taken))
        return taken

    monkeypatch.setattr(SupplyRail, "step_chunk", recording)
    frequencies = (2.0, 9.0, 40.0)
    specs = crossover_grid("hibernus", frequencies, (10e-6, 22e-6))
    results, stats = run_batched(specs)
    assert all(result.ok for result in results)
    plans = [plan for cache in caches for plan in cache._plans.values()]
    assert len(plans) == len(frequencies)
    assert sum(evaluated) == sum(len(plan) for plan in plans)
    furthest = max(
        step0 + n for lane in requests.values() for step0, n, _ in lane
    )
    horizon = round(specs[0].duration / specs[0].dt)
    assert 2 * furthest < horizon  # runs stop on completion
    assert max(len(plan) for plan in plans) <= 2 * furthest
    assert len(requests) == len(specs)
    assert stats.scalar_chunks == sum(
        1 for lane in requests.values() for _, _, taken in lane if taken
    )
    events = 0
    for lane in requests.values():
        assert lane[0][1] <= _MIN_CHUNK
        for (_, n, taken), (_, n_next, _) in zip(lane, lane[1:]):
            if 0 < taken < n:
                events += 1
                assert n_next <= _MIN_CHUNK, (n, taken, n_next)
    assert events > 0


def test_compiled_and_numpy_passes_agree(monkeypatch):
    """The runtime-compiled C pass and the numpy pass produce identical
    results — vcc bit-exact, metrics exactly equal row for row."""
    specs = [base_spec(capacitance=c) for c in (22e-6, 40e-6, 68e-6)]
    try:
        monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
        _ckernel.reset_cache()
        assert _ckernel.load() is None
        numpy_results, _ = run_batched(specs)

        monkeypatch.delenv("REPRO_BATCH_CKERNEL")
        _ckernel.reset_cache()
        compiled = _ckernel.load()
        if compiled is None:
            pytest.skip("no C compiler available")
        compiled_results, _ = run_batched(specs)
    finally:
        _ckernel.reset_cache()
    for spec, np_result, c_result in zip(
        specs, numpy_results, compiled_results
    ):
        assert np_result.spec_hash == c_result.spec_hash
        assert np.array_equal(
            np.asarray(np_result.traces["vcc"]["values"]),
            np.asarray(c_result.traces["vcc"]["values"]),
        ), spec.name
        for key, value in np_result.metrics.items():
            reference = c_result.metrics[key]
            if isinstance(value, float) and isinstance(reference, float):
                tolerance = METRIC_RTOL * max(1.0, abs(reference))
                assert abs(value - reference) <= tolerance
            else:
                assert value == reference


def test_ckernel_self_check_guards_loading():
    """The load-time self-check passes for a healthy build (the module
    would otherwise silently fall back to numpy)."""
    compiled = _ckernel.load()
    if compiled is None:
        pytest.skip("no C compiler available")
    assert _ckernel._self_check(compiled)
