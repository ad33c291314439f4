"""The compiled chunk loop against the Python chunk loop, on generated
rails.

``SupplyRail.step_chunk`` runs the compiled ``chunk_loop`` where it
loads and the Python loop otherwise (``REPRO_BATCH_CKERNEL=0``, no
compiler).  The two rungs must agree bit for bit — steps taken, every
per-step voltage, the four ``RailStats`` totals, the V_cc envelope
and each load's committed energy — and both must stay within 1e-9 of
per-step reference execution with the event on the identical step.  Scenarios are drawn
from a seeded generator over storage (ideal, leaky, supercap), sources
(rectified voltage, power with and without a converter) and one to
three loads mixing resistive and constant demand with voltage event
boundaries, and the envelope's sampling period and phase.
Some rails also carry a transient platform (a synthetic workload or an
interpreter under Hibernus, Hibernus++ or no strategy, in any state)
whose transition table the loops follow across boots, hooks,
operations and brownouts: its counters, state, progress, machine and
store must match per-step execution exactly, and the chunk stops
before a transition it leaves to Python.  An interpreter's ACTIVE
steps run inside the chunk (a ``MachineSteps`` in the table), which
sometimes halts before the chunk's end, or has a step a later load's
boundary discards: the loops undo that step and stop before it.
Some carry the closed-form supplies the compiled loop evaluates itself
(``trapezoid-supply`` and ``signal-generator``, rectified or not, DC,
behind a half-wave or a bridge rectifier) with parameters drawn from
their factories' validated ranges, from a step up to 3e5: the compiled
loop's inline values must give the Python loop's chunk on the memo's
values, and equal ``open_circuit_voltage_array`` and the scalar
``open_circuit_voltage``.
"""

import math
import random

import numpy as np
import pytest

from repro import degrade
from repro.core.system import STATE_CODES
from repro.harvest.synthetic import (
    HalfWaveRectifiedSinePower,
    SignalGenerator,
    SineVoltageHarvester,
    SquareWavePowerHarvester,
    TrapezoidSupply,
)
from repro.power.converter import LinearRegulator
from repro.power.rail import (
    HarvesterInjector,
    RailLoad,
    RectifiedInjector,
    ResistiveLoad,
    SupplyRail,
)
from repro.power.rectifier import Diode, FullWaveRectifier, HalfWaveRectifier
from repro.mcu.clock import ClockPlan, OperatingPoint
from repro.mcu.engine import MachineEngine, SyntheticEngine
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.power_model import MemoryTechnology
from repro.sim import _ckernel
from repro.sim.kernel import ChunkStats, LoadProfile
from repro.storage.capacitor import Capacitor
from repro.storage.supercap import Supercapacitor
from repro.transient.base import (
    NullStrategy,
    PlatformState,
    SnapshotStore,
    TransientPlatform,
    TransientPlatformConfig,
)
from repro.transient.hibernus import Hibernus
from repro.transient.hibernus_pp import HibernusPP

SEEDS = range(150)
#: Seeds of the rails fed only by closed-form supplies (after SEEDS).
WAVE_SEEDS = range(150, 200)
TOLERANCE = 1e-9
#: An interpreter platform's memory prices, and its program: ``{k}``
#: passes of a load, add and store, then ``halt``.
SRAM = MemoryTechnology("sram", 1e-11, 1.2e-11, 1, 1, 0.0)
FRAM = MemoryTechnology("fram", 5e-11, 1.5e-10, 1, 1, 0.0)
COUNTDOWN = """
.data d: 0
  ldi r1, {k}
loop:
  ld r2, r0, 0
  addi r2, r2, 3
  st r2, r0, 0
  subi r1, r1, 1
  bne r1, r0, loop
  halt
"""


class ProfileLoad(RailLoad):
    """A stateless load whose per-step demand is its published profile.

    ``advance`` computes the demand with the chunk loop's arithmetic and
    records the steps on which the voltage it sees crosses a boundary;
    ``commit`` records the chunk's committed energy.
    """

    def __init__(self, kind, power, resistance, v_rising, v_falling):
        self.kind = kind
        self.power = power
        self.resistance = resistance if kind == "resistive" else None
        self.v_rising = v_rising
        self.v_falling = v_falling
        self.commits = []
        self.crossings = []
        self.step = 0

    def load_profile(self, t, dt, v_rail):
        def commit(steps, dt, energy):
            self.commits.append((steps, energy))

        return LoadProfile(
            power=self.power, resistance=self.resistance,
            v_rising=self.v_rising, v_falling=self.v_falling, commit=commit,
        )

    def advance(self, t, dt, v_rail):
        if v_rail >= self.v_rising:
            self.crossings.append((self.step, "rising"))
        elif v_rail < self.v_falling:
            self.crossings.append((self.step, "falling"))
        self.step += 1
        if self.resistance is not None:
            return v_rail * v_rail / self.resistance * dt + self.power * dt
        return self.power * dt


def scenario(seed):
    """A seeded rail description (plain data; :func:`build` makes it)."""
    rng = random.Random(seed)
    # One rectified source, one constant load, ideal capacitor: the
    # quiescent shape of the Fig. 7 and quickstart chunks.
    simple = rng.random() < 0.15
    # A strong power source into an ideal capacitor whose first load
    # rises at the clamp voltage: clamped steps land on it exactly.
    clamped = not simple and rng.random() < 0.15
    # A supercap whose one load wants more than it holds: every step
    # starves with charge left to deliver through the ESR overhead.
    starving = not (simple or clamped) and rng.random() < 0.1
    v_max = rng.uniform(3.0, 5.0)
    scn = {
        "dt": rng.choice((1e-4, 5e-5)),
        "start": rng.randrange(0, 20000),
        "n": rng.randrange(40, 400),
        "storage": (
            "capacitor" if simple or clamped
            else "supercap" if starving
            else rng.choice(("capacitor", "leaky", "supercap"))
        ),
        "capacitance": 10 ** rng.uniform(-5.3, -4.0),
        "v_max": v_max,
        "v0": rng.uniform(0.15, 0.9) * v_max,
        "leakage": 10 ** rng.uniform(2.5, 4.5),
        "sources": [],
        "loads": [],
    }
    if clamped:
        scn["sources"].append(("square", 0.95, rng.random()))
    for _ in range(1 if simple or starving
                   else rng.choice((0, 1, 1, 1, 2, 2))):
        kind = "trapezoid" if simple or starving else rng.choice(
            ("trapezoid", "sine-full", "square", "converter")
        )
        scn["sources"].append((kind, rng.uniform(0.0, 1.0), rng.random()))
    for _ in range(1 if simple or starving else rng.randrange(1, 4)):
        kind = "constant" if simple or starving else rng.choice(
            ("resistor", "resistive", "constant")
        )
        bounded = rng.random() < 0.6
        # The clamp voltage itself as a rising boundary: a clamped step
        # lands on it exactly, so `v >= v_rising` must fire there.
        at_clamp = rng.random() < 0.25 or (clamped and not scn["loads"])
        scn["loads"].append({
            "kind": kind,
            "power": (
                1e-3 / scn["dt"] if starving
                else rng.choice((0.0, 10 ** rng.uniform(-5, -2.5)))
            ),
            "resistance": 10 ** rng.uniform(1.5, 4),
            "v_rising": (
                v_max if at_clamp
                else scn["v0"] + rng.uniform(0.01, 0.6) if bounded
                else math.inf
            ),
            "v_falling": (scn["v0"] - rng.uniform(0.01, 0.6)
                          if bounded else -math.inf),
        })
    # Drawn last so the rails above match the draws before the
    # envelope existed: the V_cc sampling period and the steps since
    # the last sample on entry.
    scn["every"] = rng.choice((1, 1, 2, 3, 7, 64))
    scn["phase"] = rng.randrange(scn["every"])
    # Drawn after those: an interpreter some of the time, with a step
    # budget and a countdown that sometimes halts it before the chunk's
    # ``n``; then a transient platform as one more load, with
    # thresholds around the starting voltage, always when it runs the
    # interpreter (mostly ACTIVE, so the machine steps).
    machine = None
    if rng.random() < 0.25:
        budget = rng.randint(1, 60)
        passes = rng.randint(1, scn["n"] * budget // 5)
        machine = (COUNTDOWN.format(k=passes), budget)
    scn["platform"] = None
    if rng.random() < 0.35 or machine:
        v_min = max(0.05, scn["v0"] - rng.uniform(0.0, 0.4))
        v_hibernate = v_min + rng.uniform(0.0, 0.5)
        scn["platform"] = {
            "index": rng.randrange(len(scn["loads"]) + 1),
            "strategy": rng.choice(("hibernus", "hibernus", "hibernus++",
                                    "null")),
            "v_min": v_min,
            "v_por": v_min + rng.uniform(0.0, 0.3),
            "v_hibernate": v_hibernate,
            "v_restore": v_hibernate + rng.uniform(0.01, 0.5),
            "state": (
                "active" if machine and rng.random() < 0.7
                else rng.choice(("off", "sleep", "active", "snapshot",
                                 "restore"))
            ),
            "total": rng.randrange(20_000, 400_000),
            "executed": rng.randrange(0, 20_000),
            "words": rng.choice((17, rng.randrange(0, 3000))),
            "slots": rng.choice((1, 2, 2)),
            "held": rng.random() < 0.7,
            "done": rng.random() < 0.1,
            "machine": machine,
        }
    # Drawn after those: closed-form supplies, and sometimes a start
    # step up to 3e5.
    if rng.random() < 0.3:
        scn["start"] = rng.randrange(0, 300_001)
    scn["waves"] = [closed_form(rng, v_max)
                    for _ in range(rng.choice((0, 0, 1, 1, 2)))]
    return scn


def closed_form(rng, v_max):
    """A ``trapezoid-supply`` or ``signal-generator`` drawn from its
    factory's validated ranges, behind a half-wave or a bridge
    rectifier (plain data; :func:`wave_injector` makes it)."""
    wave = {
        "rectifier": rng.choice(("half-wave", "full-wave")),
        "forward_drop": rng.choice((0.0, rng.uniform(0.0, 0.5))),
        "on_resistance": 10 ** rng.uniform(-1, 1),
        "source_resistance": 10 ** rng.uniform(0, 3.5),
    }
    if rng.random() < 0.5:
        # Ramps and dwell take fractions of the period summing below 1.
        period = 1.0 / 10 ** rng.uniform(-0.5, 2.5)
        v_high = rng.uniform(0.2, 1.3) * v_max
        v_low = rng.choice((0.0, rng.uniform(0.0, 0.95) * v_high))
        down, up = rng.uniform(0.01, 0.45), rng.uniform(0.001, 0.45)
        dwell = rng.choice((0.0, rng.uniform(0.0, 0.09)))
        wave.update(kind="trapezoid", frequency=1.0 / period,
                    v_high=v_high, v_low=v_low,
                    ramp_down=(v_high - v_low) / (down * period),
                    ramp_up=(v_high - v_low) / (up * period),
                    dwell_low=dwell * period)
    else:
        wave.update(kind="signal-generator",
                    amplitude=(0.0 if rng.random() < 0.15
                               else rng.uniform(0.0, 1.5 * v_max)),
                    frequency=(0.0 if rng.random() < 0.15
                               else 10 ** rng.uniform(-0.5, 2.5)),
                    rectified=rng.random() < 0.5)
    return wave


def wave_scenario(seed):
    """A rail fed only by one or two closed-form supplies, charging an
    ideal capacitor from low under a constant load with no boundary: a
    full chunk in which every value above the rail shows."""
    rng = random.Random(seed)
    v_max = rng.uniform(3.0, 5.0)
    return {
        "dt": rng.choice((1e-4, 5e-5, 2e-5)),
        "start": rng.randrange(0, 300_001),
        "n": rng.randrange(200, 600),
        "storage": "capacitor",
        "capacitance": 10 ** rng.uniform(-4.5, -3.0),
        "v_max": v_max,
        "v0": rng.uniform(0.0, 0.3) * v_max,
        "leakage": None,
        "sources": [],
        "loads": [{
            "kind": "constant", "power": 10 ** rng.uniform(-5, -3),
            "resistance": None, "v_rising": math.inf, "v_falling": -math.inf,
        }],
        "every": 1,
        "phase": 0,
        "platform": None,
        "waves": [closed_form(rng, v_max)
                  for _ in range(rng.choice((1, 1, 2)))],
    }


def scenarios():
    """Every generated rail: SEEDS' mixed rails, then WAVE_SEEDS'."""
    return ([scenario(seed) for seed in SEEDS]
            + [wave_scenario(seed) for seed in WAVE_SEEDS])


def wave_injector(wave):
    params = {key: value for key, value in wave.items()
              if key not in ("kind", "rectifier", "forward_drop",
                             "on_resistance")}
    harvester = (TrapezoidSupply if wave["kind"] == "trapezoid"
                 else SignalGenerator)(**params)
    diode = Diode(wave["forward_drop"], wave["on_resistance"])
    rectifier = (HalfWaveRectifier(diode) if wave["rectifier"] == "half-wave"
                 else FullWaveRectifier(diode))
    return RectifiedInjector(harvester, rectifier)


def wave_tags(wave):
    """What a drawn supply covers, as ``seen`` tags."""
    tags = {wave["kind"], wave["rectifier"]}
    if wave["kind"] == "signal-generator":
        if wave["frequency"] == 0.0:
            tags.add("dc")
        elif wave["rectified"]:
            tags.add("rectified")
        if wave["amplitude"] == 0.0:
            tags.add("zero-amplitude")
    elif wave["dwell_low"] == 0.0:
        tags.add("no-dwell")
    return tags


def build_platform(spec, capacitance, dt):
    """A synthetic-workload or interpreter platform in the drawn
    state."""
    strategy = {
        "hibernus": lambda: Hibernus(v_hibernate=spec["v_hibernate"],
                                     v_restore=spec["v_restore"]),
        "hibernus++": lambda: HibernusPP(
            v_hibernate_initial=spec["v_hibernate"],
            v_restore_initial=spec["v_restore"],
        ),
        "null": NullStrategy,
    }[spec["strategy"]]()
    clock = None
    if spec["machine"] is None:
        engine = SyntheticEngine(spec["total"],
                                 full_state_words=spec["words"])
        engine.executed = spec["executed"]
        payload, words = spec["executed"] // 2, spec["words"]
    else:
        source, budget = spec["machine"]
        engine = MachineEngine(
            Machine.from_source(source, MachineConfig(data_space_words=16)),
            sram=SRAM, fram=FRAM,
        )
        # A clock buying `budget` cycles a step.
        clock = ClockPlan([OperatingPoint((budget + 0.5) / dt, 3.0)])
        payload = engine.capture(full=True)
        words = engine.full_state_words
    platform = TransientPlatform(
        engine, strategy, clock=clock,
        config=TransientPlatformConfig(
            v_min=spec["v_min"], v_por=spec["v_por"],
            rail_capacitance=capacitance,
        ),
        store=SnapshotStore(spec["slots"]),
    )
    if spec["held"]:
        platform.store.begin_write(payload, words)
        platform.store.commit()
    platform.workload_done = spec["done"]
    state = spec["state"]
    if state == "sleep":
        platform.go_sleep()
    elif state == "active":
        platform.go_active()
    elif state == "snapshot":
        platform.go_active()
        platform.begin_snapshot(full=True)
    elif state == "restore" and platform.store.has_snapshot():
        platform.begin_restore()
    return platform


def build(scn):
    if scn["storage"] == "supercap":
        storage = Supercapacitor(
            scn["capacitance"], v_max=scn["v_max"], v_initial=scn["v0"],
            esr=5.0, leakage_resistance=scn["leakage"] * 10.0,
        )
    else:
        storage = Capacitor(
            scn["capacitance"], v_max=scn["v_max"], v_initial=scn["v0"],
            leakage_resistance=(
                scn["leakage"] if scn["storage"] == "leaky" else None
            ),
        )
    rail = SupplyRail(storage)
    rail.stats.vcc_every = scn["every"]
    rail.stats.vcc_phase = scn["phase"]
    for kind, a, b in scn["sources"]:
        if kind == "trapezoid":
            rail.attach_injector(RectifiedInjector(
                TrapezoidSupply(frequency=5.0 + 60.0 * a, ramp_down=900.0,
                                v_high=scn["v_max"] * 1.1,
                                source_resistance=10.0 + 500.0 * b),
                HalfWaveRectifier(Diode(0.1 + 0.2 * b, 0.5)),
            ))
        elif kind == "sine-full":
            rail.attach_injector(RectifiedInjector(
                SineVoltageHarvester(1.0 + 4.0 * a, 3.0 + 90.0 * b,
                                     source_resistance=50.0 + 400.0 * a),
                FullWaveRectifier(Diode(0.15, 1.0)),
            ))
        elif kind == "square":
            rail.attach_injector(HarvesterInjector(
                SquareWavePowerHarvester(10 ** (-4 + 3.5 * a),
                                         0.002 + 0.02 * b, duty=0.4),
            ))
        else:
            rail.attach_injector(HarvesterInjector(
                HalfWaveRectifiedSinePower(10 ** (-4 + 2 * a), 10 + 50 * b),
                converter=LinearRegulator(v_out=1.8 + b),
            ))
    for wave in scn["waves"]:
        rail.attach_injector(wave_injector(wave))
    loads = []
    for spec in scn["loads"]:
        if spec["kind"] == "resistor":
            load = ResistiveLoad(spec["resistance"])
        else:
            load = ProfileLoad(spec["kind"], spec["power"],
                               spec["resistance"], spec["v_rising"],
                               spec["v_falling"])
        loads.append(load)
    platform = None
    if scn["platform"] is not None:
        platform = build_platform(scn["platform"], scn["capacitance"],
                                  scn["dt"])
        loads.insert(scn["platform"]["index"], platform)
    for load in loads:
        rail.attach_load(load)
    return rail, loads, platform


def platform_state(platform):
    """Everything a platform's replay must get right, exactly, except
    the bulk-accounted energies and state times."""
    if platform is None:
        return None
    metrics = platform.metrics
    operation = platform._operation
    return (
        platform.state, getattr(platform.engine, "executed", None),
        platform.workload_done,
        platform.store.has_snapshot(), platform.store.sequence,
        platform.store.aborted_writes,
        None if operation is None else (operation.kind, operation.remaining),
        {name: value for name, value in vars(metrics).items()
         if name not in ("energy", "time_in_state")},
    )


def machine_state(platform):
    """An interpreter platform's machine, or None."""
    machine = getattr(getattr(platform, "engine", None), "machine", None)
    if machine is None:
        return None
    return (machine.registers[:], machine.pc, machine.data.tolist(),
            machine.total_cycles, machine.total_instructions,
            machine.halted)


def platform_ledger(platform):
    if platform is None:
        return None
    metrics = platform.metrics
    return dict(metrics.energy), dict(metrics.time_in_state)


def chunk(scn):
    """One ``step_chunk`` on a fresh rail; every observable result."""
    rail, loads, platform = build(scn)
    dt = scn["dt"]
    record = ChunkStats()
    taken = rail.step_chunk(scn["start"] * dt, dt, scn["n"], record)
    stats = rail.stats
    states = rail.last_chunk_states()
    return {
        "taken": taken,
        "voltages": rail.last_chunk_voltages().tolist(),
        "v": rail.voltage,
        "stats": (stats.harvested, stats.consumed, stats.leaked,
                  stats.starved),
        "envelope": envelope(stats),
        "commits": [getattr(load, "commits", None) for load in loads],
        "platform": platform_state(platform),
        "ledger": platform_ledger(platform),
        "machine": machine_state(platform),
        "states": None if states is None else states.tolist(),
        "transitions": {k: v for k, v in record.transitions.items() if v},
        "stop": next((k for k, v in record.fallback_transitions.items()
                      if v), None),
    }


def envelope(stats):
    return stats.vcc_min, stats.vcc_max, stats.vcc_phase


def reference(scn, steps):
    """Per-step execution of ``steps`` steps: the voltages, the stats
    totals, the envelope, the platform's state, ledger and per-step
    state codes, each load's first boundary crossing over one more step
    (the event step), and the platform's state after it."""
    rail, loads, platform = build(scn)
    dt = scn["dt"]
    voltages = []
    codes = []
    for i in range(steps + 1):
        if i == steps:
            stats = rail.stats
            totals = (stats.harvested, stats.consumed, stats.leaked,
                      stats.starved)
            bounds = envelope(stats)
            before = platform_state(platform)
            ledger = platform_ledger(platform)
            machine = machine_state(platform)
        rail.step((scn["start"] + i) * dt, dt)
        voltages.append(rail.voltage)
        if platform is not None:
            codes.append(float(STATE_CODES[platform.state]))
    crossings = [
        min(load.crossings, default=(None, None))
        if isinstance(load, ProfileLoad) else (None, None)
        for load in loads if load is not platform
    ]
    return {
        "voltages": voltages[:steps], "totals": totals, "bounds": bounds,
        "crossings": crossings, "platform": before, "ledger": ledger,
        "machine": machine,
        "states": codes[:steps], "after": platform_state(platform),
    }


def rung_results(monkeypatch, rung):
    if rung == "python":
        monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
    else:
        monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
    _ckernel.reset_cache()
    degrade.reset()
    results = [chunk(scn) for scn in scenarios()]
    assert degrade.current("chunk.kernel") == rung
    return results


@pytest.fixture
def restore_kernel():
    yield
    _ckernel.reset_cache()
    degrade.reset()


def test_compiled_and_python_rungs_agree_bit_for_bit(monkeypatch,
                                                     restore_kernel):
    python = rung_results(monkeypatch, "python")
    monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
    _ckernel.reset_cache()
    if _ckernel.load() is None:
        pytest.skip("no C compiler available")
    compiled = rung_results(monkeypatch, "c")
    for scn, py, c in zip(scenarios(), python, compiled):
        assert c == py, scn


def test_chunks_match_reference_execution(monkeypatch, restore_kernel):
    """Both rungs: within 1e-9 of per-step execution, event on the same
    step; and the generator reaches every branch it is meant to."""
    seen = set()
    for rung in ("python", "c"):
        results = rung_results(monkeypatch, rung)
        if rung == "c" and _ckernel.load() is None:
            pytest.skip("no C compiler available")
        for seed, (scn, result) in enumerate(zip(scenarios(), results)):
            taken = result["taken"]
            n = scn["n"]
            ref = reference(scn, taken)
            # A machine's registers, PC, data and retired totals
            # exactly: the loops step it as `advance` does.
            assert result["machine"] == ref["machine"], (rung, seed)
            if result["machine"] and result["machine"][3]:
                seen.add("machine")
            voltages, totals, bounds, crossings = (
                ref["voltages"], ref["totals"], ref["bounds"],
                ref["crossings"])
            assert len(result["voltages"]) == taken
            for got, want in zip(result["voltages"], voltages):
                assert abs(got - want) <= TOLERANCE, (rung, seed)
            for got, want in zip(result["stats"], totals):
                assert abs(got - want) <= TOLERANCE * abs(want), (rung, seed)
            low, high, phase = result["envelope"]
            assert phase == bounds[2], (rung, seed)
            for got, want in ((low, bounds[0]), (high, bounds[1])):
                assert got == want or abs(got - want) <= TOLERANCE, (
                    rung, seed)
            if math.isinf(low):
                seen.add("envelope-empty")
            elif scn["every"] > 1 and scn["phase"] > 0:
                seen.add("envelope-mid-period")
            if scn["platform"] is not None:
                seen.add("table")
                # Counters, state, progress, store and operation exactly;
                # bulk-accounted energies and times within tolerance.
                assert result["platform"] == ref["platform"], (rung, seed)
                for got, want in zip(result["ledger"], ref["ledger"]):
                    for key, value in want.items():
                        assert abs(got[key] - value) <= TOLERANCE * max(
                            abs(value), 1e-6), (rung, seed, key)
                assert result["states"] == ref["states"], (rung, seed)
                if result["transitions"]:
                    seen.add("table-transition")
                seen.update(result["transitions"])
            else:
                assert result["states"] is None
            steps = [step for step, _ in crossings if step is not None]
            event = min(steps) if steps else None
            if result["stop"] is not None:
                # The table stopped before a transition it leaves to
                # Python: the reference takes it on the next step.
                assert taken < n, (rung, seed)
                assert ref["after"] != ref["platform"], (rung, seed)
                seen.add("table-stop")
                if result["machine"] and result["stop"] == "halt":
                    seen.add("machine-halt")
            elif taken < n:
                assert event == taken, (rung, seed, crossings, taken)
                first_load = [step for step, _ in crossings].index(event)
                seen.add("event" if first_load == 0
                         else "event-on-later-load")
                if (
                    result["machine"]
                    and scn["platform"]["index"] <= first_load
                    and ref["platform"][0] is PlatformState.ACTIVE
                ):
                    # The machine had stepped: the loops undid it.
                    seen.add("machine-undone")
                if (
                    crossings[first_load][1] == "rising"
                    and scn["loads"][first_load]["v_rising"] == scn["v_max"]
                ):
                    seen.add("event-at-clamp")
            else:
                assert event is None or event >= n, (rung, seed, crossings)
                seen.add("full-chunk")
            seen.update(kind for kind, _, _ in scn["sources"])
            seen.update(load["kind"] for load in scn["loads"])
            seen.add(scn["storage"])
            if result["stats"][3] > 0.0:
                seen.add("starved")
            if result["stats"][2] > 0.0:
                seen.add("leaked")
            for wave in scn["waves"]:
                seen.update(wave_tags(wave))
            if scn["waves"] and scn["start"] > 20_000:
                seen.add("late-start")
            if (
                scn["storage"] == "capacitor"
                and not scn["waves"]
                and [kind for kind, _, _ in scn["sources"]] == ["trapezoid"]
                and [load["kind"] for load in scn["loads"]] == ["constant"]
            ):
                seen.add("simple")
    assert seen >= {
        "event", "event-on-later-load", "event-at-clamp", "full-chunk",
        "starved", "leaked", "simple",
        "envelope-empty", "envelope-mid-period",
        "machine", "machine-halt", "machine-undone",
        "trapezoid", "sine-full", "square", "converter",
        "resistor", "resistive", "constant",
        "capacitor", "leaky", "supercap",
        "table", "table-transition", "table-stop",
        "boot", "brownout", "snapshot", "snapshot-done", "restore",
        "restore-done", "cold-start",
        "signal-generator", "half-wave", "full-wave", "dc", "rectified",
        "zero-amplitude", "no-dwell", "late-start",
    }, seen


def test_compiled_waveforms_equal_numpy_and_the_scalar_method(
        restore_kernel):
    """Seeded supplies from the generated rails' draw, from a start step
    up to 3e5: the values the compiled loop evaluates inline equal
    ``open_circuit_voltage_array`` and the scalar
    ``open_circuit_voltage`` bit for bit, signed zeros included (``|.|``
    of them behind a bridge)."""
    kernel = _ckernel.load()
    if kernel is None:
        pytest.skip("no C compiler available")
    assert kernel.waveforms
    seen = set()
    for seed in range(300):
        rng = random.Random(f"waves/{seed}")
        wave = closed_form(rng, rng.uniform(3.0, 5.0))
        dt = rng.choice((1e-4, 5e-5, 2e-5))
        start, n = rng.randrange(0, 300_001), rng.randrange(1, 600)
        injector = wave_injector(wave)
        plan = injector.chunk_plan(start * dt, dt, n)
        assert plan.waveform is not None and plan.step0 == start
        inline = _ckernel.closed_form_values(kernel, plan, n, dt)
        harvester = injector.harvester
        times = np.arange(start, start + n) * dt
        array = harvester.open_circuit_voltage_array(times)
        scalar = [harvester.open_circuit_voltage(t) for t in times.tolist()]
        if plan.take_abs:
            array = np.abs(array)
            scalar = [abs(value) for value in scalar]
        assert inline.tobytes() == array.tobytes(), (seed, wave)
        assert inline.tobytes() == np.asarray(plan.values).tobytes(), seed
        assert inline.tolist() == scalar, (seed, wave)
        assert inline.tobytes() == np.asarray(scalar).tobytes(), (seed, wave)
        seen.update(wave_tags(wave))
    assert seen >= {"trapezoid", "signal-generator", "half-wave",
                    "full-wave", "dc", "rectified", "zero-amplitude",
                    "no-dwell"}, seen
