"""Chunked-vs-reference parity for every transient strategy.

The event-driven fast path must reproduce the reference kernel through
*all* platform states — boot, sleep, active execution, snapshot,
restore, brownout — for every checkpointing strategy, not just on the
quiescent phases.  Each case here runs one strategy through several
supply interruptions and checks:

* the ``vcc`` trace within the documented 1e-9 tolerance (bit-exact in
  practice for these scalar waveforms),
* identical event timing: boots, brownouts, snapshots
  (started/completed/aborted), restores, completions, executed cycles
  and the exact first-completion time,
* that chunking genuinely engaged (a silent fall-back to per-step
  execution would make the comparison vacuous),
* the reference trace against a committed golden file
  (``tests/data/golden/strategy-*.json``), pinning the physics.

The Fig. 7 and quickstart presets run through the same checks (no
golden file): their chunks are the quiescent shape of one rectified
source, one constant platform load and an ideal capacitor, which the
crossover cases' resistive bleed never produces.  The Eq. (5) crossover
presets (Hibernus and QuickRecall) also run on generated points,
stratified over 1-99 Hz and 10-33 uF, with the same checks against the
reference kernel.

A dedicated case forces a brownout *mid-snapshot* (an oversized NVM
write against a collapsing supply), exercising the abort path across
the kernel boundary.  Regenerate goldens after an intentional physics
change with::

    PYTHONPATH=src:. python tests/integration/test_strategy_parity.py --regen
"""

import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from repro.spec.presets import preset
from repro.spec.specs import (
    HarvesterSpec,
    LoadSpec,
    PlatformSpec,
    ScenarioSpec,
    StorageSpec,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "data" / "golden"

FAST_ATOL = 1e-9

#: Decimation for the stored golden samples (keeps files compact).
GOLDEN_DECIMATE = 25

#: Event counters that must agree exactly between kernels.
EVENT_COUNTERS = (
    "boots",
    "brownouts",
    "cold_boots",
    "snapshots_started",
    "snapshots_completed",
    "snapshots_aborted",
    "restores_started",
    "restores_completed",
    "restores_aborted",
    "completions",
    "cycles_executed",
)


def _strategy_scenario(
    strategy: str,
    strategy_params: dict,
    *,
    engine_params: dict = None,
    duration: float = 0.8,
) -> ScenarioSpec:
    """A crossover-style interrupted-supply scenario for one strategy."""
    return ScenarioSpec(
        name=f"strategy-{strategy.replace('+', 'p')}",
        dt=1e-4,
        duration=duration,
        storage=StorageSpec("capacitor", {"capacitance": 22e-6, "v_max": 3.3}),
        harvesters=(
            HarvesterSpec(
                "trapezoid-supply",
                {"frequency": 10.0, "source_resistance": 10.0},
                rectifier="half-wave",
                rectifier_params={"forward_drop": 0.0, "on_resistance": 0.1},
            ),
        ),
        loads=(LoadSpec("resistive", {"resistance": 560.0}),),
        platform=PlatformSpec(
            strategy=strategy,
            strategy_params=strategy_params,
            engine="synthetic",
            engine_params=dict(
                {"total_cycles": 4_000_000}, **(engine_params or {})
            ),
        ),
    )


#: Case name -> scenario factory.  Every registered transient strategy
#: appears, plus the forced mid-snapshot-brownout configuration (an
#: 8192-word snapshot takes ~16 ms at the snapshot clock — far longer
#: than the supply's collapse from the late 2.0 V trigger, so writes
#: start but cannot finish).
STRATEGY_CASES = {
    "hibernus": lambda: _strategy_scenario(
        "hibernus", {"v_hibernate": 2.8, "v_restore": 3.0}
    ),
    "hibernus-pp": lambda: _strategy_scenario(
        "hibernus++", {"v_restore_initial": 3.0}
    ),
    "quickrecall": lambda: _strategy_scenario(
        "quickrecall", {"v_hibernate": 2.1, "v_restore": 3.0}
    ),
    "mementos": lambda: _strategy_scenario("mementos", {}),
    "nvp": lambda: _strategy_scenario("nvp", {}),
    "hibernus-aborted-snapshot": lambda: _strategy_scenario(
        "hibernus",
        {"v_hibernate": 2.0, "v_restore": 3.0},
        engine_params={"full_state_words": 8192},
    ),
}


#: Case name -> preset scenario, checked like ``STRATEGY_CASES`` but
#: without a golden file: Hibernus FFTs from a rectified supply with no
#: bleed resistor.
PRESET_CASES = {
    "fig7": lambda: preset("fig7", fft_size=64),
    "quickstart": lambda: preset("quickstart"),
}


def _run(case: str, kernel: str):
    factory = STRATEGY_CASES.get(case) or PRESET_CASES[case]
    spec = factory().with_override("kernel", kernel)
    system = spec.build()
    result = system.run(spec.duration, decimate=spec.decimate)
    return result, system.simulator


@pytest.mark.parametrize(
    "case", sorted(STRATEGY_CASES) + sorted(PRESET_CASES)
)
def test_fast_kernel_matches_reference_for_strategy(case):
    ref, _ = _run(case, "reference")
    fast, fast_sim = _run(case, "fast")

    ref_vcc, fast_vcc = ref.vcc(), fast.vcc()
    assert len(ref_vcc) == len(fast_vcc), (
        f"{case}: trace lengths differ between kernels"
    )
    assert ref.t_end == fast.t_end
    diff = float(np.max(np.abs(ref_vcc.values - fast_vcc.values)))
    assert diff <= FAST_ATOL, (
        f"{case}: fast kernel diverged from reference (max |dV| = {diff:.3e})"
    )

    ref_m, fast_m = ref.platform.metrics, fast.platform.metrics
    for counter in EVENT_COUNTERS:
        assert getattr(ref_m, counter) == getattr(fast_m, counter), (
            f"{case}: event counter {counter!r} differs between kernels"
        )
    # Completion lands on the same step, so the time is float-identical.
    assert ref_m.first_completion_time == fast_m.first_completion_time
    # Energy ledgers agree to accumulation-order noise.
    for key, ref_e in ref_m.energy.items():
        assert fast_m.energy[key] == pytest.approx(ref_e, rel=1e-9, abs=1e-15)

    # The comparison must not be vacuous: the fast kernel has to chunk
    # through these transient scenarios, not fall back per-step.
    assert fast_sim.chunk_stats.chunked_fraction() > 0.5, (
        f"{case}: fast kernel barely chunked "
        f"({fast_sim.chunk_stats.chunked_fraction():.1%})"
    )


def test_mid_snapshot_brownout_case_actually_aborts():
    """The abort case must genuinely die mid-write, in both kernels."""
    ref, _ = _run("hibernus-aborted-snapshot", "reference")
    fast, _ = _run("hibernus-aborted-snapshot", "fast")
    assert ref.platform.metrics.snapshots_aborted > 0
    assert (
        fast.platform.metrics.snapshots_aborted
        == ref.platform.metrics.snapshots_aborted
    )


def _taskbased_system(kernel: str):
    """An imperative charge-and-fire system (the task-based §II.B arc).

    The charge-and-fire devices are plain rail loads rather than
    platform strategies, so this case wires one up directly: a Monjolo
    meter charging a capacitor from a rectified bench supply, firing a
    ping whenever the rail reaches ``v_fire``.
    """
    from repro.core.system import EnergyDrivenSystem
    from repro.harvest.synthetic import SignalGenerator
    from repro.storage.capacitor import Capacitor
    from repro.transient.taskbased import MonjoloMeter

    system = EnergyDrivenSystem(dt=1e-4, kernel=kernel)
    system.set_storage(Capacitor(100e-6, v_max=5.0))
    system.add_voltage_source(
        SignalGenerator(
            amplitude=4.5, frequency=4.7, rectified=True,
            source_resistance=680.0,
        )
    )
    meter = MonjoloMeter(v_fire=3.3, v_abort=1.9)
    system.add_load(meter)
    return system, meter


def test_taskbased_charge_and_fire_parity():
    ref_sys, ref_meter = _taskbased_system("reference")
    fast_sys, fast_meter = _taskbased_system("fast")
    ref = ref_sys.run(3.0)
    fast = fast_sys.run(3.0)
    diff = float(np.max(np.abs(ref.vcc().values - fast.vcc().values)))
    assert diff <= FAST_ATOL
    # Firing records agree event-for-event, float-for-float.
    assert ref_meter.completed_fires > 0
    assert len(ref_meter.records) == len(fast_meter.records)
    for a, b in zip(ref_meter.records, fast_meter.records):
        assert (a.t_start, a.t_end, a.units, a.completed) == (
            b.t_start, b.t_end, b.units, b.completed
        )
    # Chunking engaged through both the charging and firing phases.
    assert fast_sys.simulator.chunk_stats.chunked_fraction() > 0.5


def test_mementos_case_exercises_checkpoint_sites():
    """Mementos must snapshot at program sites (not voltage interrupts),
    so its parity case covers the checkpoint-site chunk boundary."""
    ref, _ = _run("mementos", "reference")
    assert ref.platform.stop_at_checkpoints
    assert ref.platform.metrics.snapshots_started > 0


# -- generated Eq. (5) crossover points ------------------------------------


def _strata(rng, low, high, count):
    """One log-uniform draw from each of ``count`` equal log strata."""
    a, b = math.log(low), math.log(high)
    return [
        math.exp(a + (b - a) * (i + rng.random()) / count)
        for i in range(count)
    ]


def _crossover_points():
    """4 frequencies over 1-99 Hz x 2 capacitances over 10-33 uF."""
    rng = random.Random(19)
    frequencies = _strata(rng, 1.0, 99.0, 4)
    capacitances = _strata(rng, 10e-6, 33e-6, 2)
    return [(f, c) for f in frequencies for c in capacitances]


@pytest.mark.parametrize("strategy", ["hibernus", "quickrecall"])
@pytest.mark.parametrize(
    "frequency, capacitance", _crossover_points(),
    ids=lambda value: f"{value:.3g}",
)
def test_generated_crossover_point_parity(strategy, frequency, capacitance):
    """The Eq. (5) crossover presets on generated (frequency, C) points."""
    runs = {}
    for kernel in ("reference", "fast"):
        spec = preset(f"crossover-{strategy}").with_overrides({
            "frequency": frequency, "capacitance": capacitance,
            "kernel": kernel,
        })
        runs[kernel] = spec.build().run(spec.duration, decimate=spec.decimate)
    ref, fast = runs["reference"], runs["fast"]
    assert ref.t_end == fast.t_end
    assert len(ref.vcc()) == len(fast.vcc())
    assert np.max(np.abs(ref.vcc().values - fast.vcc().values)) <= FAST_ATOL
    ref_m, fast_m = ref.platform.metrics, fast.platform.metrics
    assert ref_m.completions == 1
    for counter in EVENT_COUNTERS:
        assert getattr(ref_m, counter) == getattr(fast_m, counter), counter
    assert ref_m.first_completion_time == fast_m.first_completion_time
    for key, ref_e in ref_m.energy.items():
        assert fast_m.energy[key] == pytest.approx(ref_e, rel=1e-9, abs=1e-15)


# -- golden traces ---------------------------------------------------------


def _golden_path(case: str) -> Path:
    return GOLDEN_DIR / f"strategy-{case}.json"


def _compute_golden(case: str) -> dict:
    result, _ = _run(case, "reference")
    vcc = result.vcc()
    return {
        "case": case,
        "decimate": GOLDEN_DECIMATE,
        "kernel_tolerance": FAST_ATOL,
        "t_end": result.t_end,
        "n_steps": len(vcc),
        "values": [float(v) for v in vcc.values[::GOLDEN_DECIMATE]],
    }


@pytest.mark.parametrize("case", sorted(STRATEGY_CASES))
def test_reference_kernel_reproduces_strategy_golden(case):
    golden = json.loads(_golden_path(case).read_text(encoding="utf-8"))
    fresh = _compute_golden(case)
    assert fresh["t_end"] == golden["t_end"]
    assert fresh["n_steps"] == golden["n_steps"]
    assert fresh["values"] == golden["values"], (
        f"reference kernel no longer reproduces the strategy-{case} "
        "golden vcc trace bit-for-bit"
    )


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in sorted(STRATEGY_CASES):
        payload = _compute_golden(case)
        path = _golden_path(case)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(payload['values'])} samples)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)


# -- interpreter-driven ACTIVE stretches -----------------------------------
#
# On the interpreter, ACTIVE execution chunks by stepping the machine
# inside the chunk loop and undoing the one step a chunk does not
# commit (``MachineSteps``).  These scenarios drive that path through
# halts, checkpoint pauses, port I/O and Hibernus' V_H crossing.


def _sense_system(kernel: str):
    """Hibernus running the sense program (sensor reads, radio sends) in
    a loop from the Fig. 7 supply, on a clock slow enough (5 cycles a
    step) that several steps pass between port accesses."""
    from repro.core.system import EnergyDrivenSystem
    from repro.harvest.synthetic import SignalGenerator
    from repro.mcu.clock import ClockPlan, OperatingPoint
    from repro.mcu.engine import MachineEngine
    from repro.mcu.machine import Machine, MachineConfig
    from repro.mcu.peripherals import Radio, SensorPeripheral
    from repro.mcu.programs import sense_program
    from repro.storage.capacitor import Capacitor
    from repro.transient.base import TransientPlatform, TransientPlatformConfig
    from repro.transient.hibernus import Hibernus

    machine = Machine.from_source(
        sense_program(32), MachineConfig(data_space_words=256)
    )
    machine.attach_peripheral(1, SensorPeripheral())
    machine.attach_peripheral(2, Radio())
    platform = TransientPlatform(
        MachineEngine(machine, include_peripherals=True),
        Hibernus(v_hibernate=2.4, v_restore=2.8),
        clock=ClockPlan([OperatingPoint(1e5, 3.0)]),
        config=TransientPlatformConfig(
            rail_capacitance=22e-6, on_complete="restart"
        ),
    )
    system = EnergyDrivenSystem(dt=5e-5, kernel=kernel)
    system.set_storage(Capacitor(22e-6, v_max=3.3))
    system.add_voltage_source(
        SignalGenerator(amplitude=4.5, frequency=4.7, rectified=True,
                        source_resistance=1500.0)
    )
    system.set_platform(platform)
    return system


def _mementos_fig7():
    """Fig. 7 at FFT-64 under Mementos: checkpoint pauses at program
    sites (``stop_at_checkpoints``) bound the run-ahead."""
    spec = preset("fig7", fft_size=64)
    return dataclasses.replace(
        spec, platform=dataclasses.replace(spec.platform, strategy="mementos")
    )


def _device(peripheral):
    """A peripheral's state as comparable values (RNG streams by their
    generator state)."""
    return {
        name: value.bit_generator.state
        if hasattr(value, "bit_generator") else value
        for name, value in vars(peripheral).items()
    }


INTERPRETER_CASES = {
    "fig7-fft64": lambda kernel: preset("fig7", fft_size=64)
    .with_override("kernel", kernel).build(),
    "quickstart": lambda kernel: preset("quickstart")
    .with_override("kernel", kernel).build(),
    "mementos-fft64": lambda kernel: _mementos_fig7()
    .with_override("kernel", kernel).build(),
    "sense-hibernus": _sense_system,
}


def _interpreted(case, monkeypatch):
    """Per kernel, ``case``'s interpreter slices (``_python_run`` calls)
    and chunk-loop calls over 1 s on the Python rung."""
    import repro.mcu.machine as machine_module
    import repro.power.rail as rail_module
    from repro import degrade
    from repro.sim import _ckernel

    counts = {}

    def counted(function, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(machine_module, "_python_run",
                        counted(machine_module._python_run, "slices"))
    monkeypatch.setattr(rail_module, "chunk_loop",
                        counted(rail_module.chunk_loop, "chunks"))
    monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
    _ckernel.reset_cache()
    runs = {}
    try:
        for kernel in ("reference", "fast"):
            counts.update(slices=0, chunks=0)
            INTERPRETER_CASES[case](kernel).run(1.0)
            runs[kernel] = dict(counts)
    finally:
        monkeypatch.delenv("REPRO_BATCH_CKERNEL")
        _ckernel.reset_cache()
        degrade.reset()
    return runs


@pytest.mark.parametrize("case", sorted(INTERPRETER_CASES))
def test_interpreter_stretches_match_reference(case, monkeypatch):
    runs = {}
    for kernel in ("reference", "fast"):
        system = INTERPRETER_CASES[case](kernel)
        runs[kernel] = (system.run(1.0), system)
    (ref, _), (fast, fast_system) = runs["reference"], runs["fast"]
    assert ref.t_end == fast.t_end
    assert len(ref.vcc()) == len(fast.vcc())
    diff = float(np.max(np.abs(ref.vcc().values - fast.vcc().values)))
    assert diff <= FAST_ATOL, (case, diff)
    ref_m, fast_m = ref.platform.metrics, fast.platform.metrics
    for counter in EVENT_COUNTERS:
        assert getattr(ref_m, counter) == getattr(fast_m, counter), counter
    assert ref_m.first_completion_time == fast_m.first_completion_time
    for key, ref_e in ref_m.energy.items():
        assert fast_m.energy[key] == pytest.approx(ref_e, rel=1e-9, abs=1e-15)
    ref_machine = ref.platform.engine.machine
    fast_machine = fast.platform.engine.machine
    assert ref_machine.total_cycles == fast_machine.total_cycles
    assert ref_machine.total_instructions == fast_machine.total_instructions
    for port, peripheral in ref_machine.ports.items():
        assert _device(fast_machine.ports[port]) == _device(peripheral), port
    # The comparison is not vacuous: the run computes, and the fast
    # kernel chunks it.
    assert ref_m.cycles_executed > 0
    stats = fast_system.simulator.chunk_stats
    assert stats.chunked_fraction() > 0.8, stats
    # Each ACTIVE step is interpreted once, but for the one step a
    # chunk undoes: the fast kernel's surplus of slices over the
    # reference's is at most its chunk calls.
    runs = _interpreted(case, monkeypatch)
    ref_slices, fast_slices = runs["reference"]["slices"], runs["fast"][
        "slices"]
    chunks = runs["fast"]["chunks"]
    assert chunks > 0 and ref_slices > 0, runs
    assert ref_slices <= fast_slices <= ref_slices + chunks, runs


def test_sense_port_steps_are_events_not_refusals():
    """A chunk whose first machine step reaches a port, ``ckpt`` or
    halt (undone at once) stopped before a declared event: the engine
    runs that step as an ``event`` and backs off nowhere.  Classifying
    it as a refusal cost this run 158 refused and 189 backed-off
    steps."""
    system = _sense_system("fast")
    system.run(1.0)
    stats = system.simulator.chunk_stats
    fallbacks = stats.fallbacks
    assert fallbacks["refused"] == fallbacks["backoff"] == 0, fallbacks
    assert fallbacks["unchunkable"] == 0, fallbacks
    assert fallbacks["event"] == stats.fallback_steps > 2000, fallbacks


def _event_record(case):
    """The fast kernel's record of ``case``'s run: the fig7 preset
    point, or 1 s of the sense case."""
    if case == "sense-hibernus":
        return _sense_system("fast").run(1.0).chunk_stats
    spec = preset("fig7").with_override("kernel", "fast")
    return spec.build().run(spec.duration, decimate=spec.decimate).chunk_stats


@pytest.mark.parametrize("case", ["fig7", "sense-hibernus"])
def test_every_event_step_is_named(case):
    """Each step a chunk stopped before names the transition or machine
    exit (halt, ckpt pause, port I/O or fault) it stopped for; fig7's
    V_H crossings are snapshots followed inside chunks, which leaves it
    fewer than 10 chunks and 6 event steps."""
    record = _event_record(case)
    events = record.fallbacks["event"]
    assert events > 0
    assert sum(record.fallback_transitions.values()) == events, record
    if case == "fig7":
        assert record.transitions["snapshot"] == 2, record
        assert record.chunks < 10 and events < 6, record
    else:
        assert record.fallback_transitions["port-or-fault"] > 2000, record


def test_fig7_instruction_count_matches_reference_on_both_rungs(
        monkeypatch):
    """``repro_mcu_instructions_total``, exported once per run, counts
    the instructions a fig7 point retires: the reference kernel's count
    on both chunk rungs (a step a chunk undoes retires nothing)."""
    from repro import degrade, obs
    from repro.sim import _ckernel

    counter = obs.registry.counter("repro_mcu_instructions_total")
    previous = obs.set_obs_enabled(True)

    def retired(kernel):
        spec = preset("fig7").with_override("kernel", kernel)
        before = counter.value
        system = spec.build()
        system.run(spec.duration, decimate=spec.decimate)
        count = counter.value - before
        assert count == system.platform.engine.machine.total_instructions
        return count

    try:
        reference = retired("reference")
        assert reference > 0
        assert retired("fast") == reference
        monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
        _ckernel.reset_cache()
        assert retired("fast") == reference
    finally:
        obs.set_obs_enabled(previous)
        monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
        _ckernel.reset_cache()
        degrade.reset()


def test_fig7_active_stretches_chunk():
    """Engagement guard: Fig. 7 ACTIVE execution runs through the chunk
    loop, not one per-step step at a time.  Before the interpreter
    chunked the fast kernel ran 69 of this scenario's steps as refused or
    backed-off chunk attempts (6 + 63), every one of them ACTIVE."""
    spec = preset("fig7", fft_size=64).with_override("kernel", "fast")
    system = spec.build()
    system.run(spec.duration, decimate=spec.decimate)
    fallbacks = system.simulator.chunk_stats.fallbacks
    assert fallbacks["backoff"] + fallbacks["refused"] < 10, fallbacks
    assert system.platform.metrics.completions == 1


# -- per-step state record -------------------------------------------------


TRACE_CASES = {
    "crossover-hibernus-60hz": lambda: preset(
        "crossover-hibernus", frequency=60.0
    ),
    "crossover-quickrecall-60hz": lambda: preset(
        "crossover-quickrecall", frequency=60.0
    ),
    "fig7-fft64": lambda: preset("fig7", fft_size=64),
}


@pytest.mark.parametrize("decimate", [1, 7])
@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_state_and_frequency_traces_match_reference(case, decimate):
    """Chunks span platform transitions, so the state and frequency
    probes read the loops' per-step state record: both traces match
    per-step execution sample for sample, and V_cc within 1e-9."""
    runs = {}
    for kernel in ("reference", "fast"):
        spec = TRACE_CASES[case]().with_override("kernel", kernel)
        system = spec.build()
        runs[kernel] = (system.run(spec.duration, decimate=decimate),
                        system)
    (ref, _), (fast, fast_system) = runs["reference"], runs["fast"]
    for name in ("state", "frequency"):
        ref_trace, fast_trace = ref.traces[name], fast.traces[name]
        assert ref_trace.times.tolist() == fast_trace.times.tolist(), name
        assert ref_trace.values.tolist() == fast_trace.values.tolist(), name
    assert len(ref.vcc()) == len(fast.vcc())
    assert np.max(np.abs(ref.vcc().values - fast.vcc().values)) <= FAST_ATOL
    # Not vacuous: the run changes state inside chunks.
    assert len(set(ref.traces["state"].values.tolist())) >= 3
    assert sum(fast_system.simulator.chunk_stats.transitions.values()) > 0
