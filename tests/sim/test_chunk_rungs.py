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
three loads mixing resistive, current and constant demand with voltage
event boundaries, and the envelope's sampling period and phase.
"""

import math
import random

import pytest

from repro import degrade
from repro.harvest.synthetic import (
    HalfWaveRectifiedSinePower,
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
from repro.sim import _ckernel
from repro.sim.kernel import LoadProfile
from repro.storage.capacitor import Capacitor
from repro.storage.supercap import Supercapacitor

SEEDS = range(150)
TOLERANCE = 1e-9


class ProfileLoad(RailLoad):
    """A stateless load whose per-step demand is its published profile.

    ``advance`` computes the demand with the chunk loop's arithmetic and
    records the steps on which the voltage it sees crosses a boundary;
    ``commit`` records the chunk's committed energy.
    """

    def __init__(self, kind, power, energy, term, v_rising, v_falling):
        self.kind = kind
        self.power = power
        self.energy = energy
        self.term = term  # resistance, or (current, gain)
        self.v_rising = v_rising
        self.v_falling = v_falling
        self.commits = []
        self.crossings = []
        self.step = 0

    def profile(self):
        extra = {}
        if self.kind == "resistive":
            extra["resistance"] = self.term
        elif self.kind == "current":
            extra["current"], extra["current_gain"] = self.term
        return LoadProfile(
            power=self.power, energy=self.energy,
            v_rising=self.v_rising, v_falling=self.v_falling,
            commit=lambda steps, dt, energy: self.commits.append(
                (steps, energy)
            ),
            **extra,
        )

    def load_profile(self, t, dt, v_rail):
        return self.profile()

    def advance(self, t, dt, v_rail):
        if v_rail >= self.v_rising:
            self.crossings.append((self.step, "rising"))
        elif v_rail < self.v_falling:
            self.crossings.append((self.step, "falling"))
        self.step += 1
        e_const = self.power * dt + self.energy
        if self.kind == "resistive":
            return v_rail * v_rail / self.term * dt + e_const
        if self.kind == "current":
            current, gain = self.term
            return ((current * v_rail) * gain) * dt + e_const
        return e_const


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
            ("resistor", "resistive", "current", "constant")
        )
        bounded = rng.random() < 0.6
        # The clamp voltage itself as a rising boundary: a clamped step
        # lands on it exactly, so `v >= v_rising` must fire there.
        at_clamp = rng.random() < 0.25 or (clamped and not scn["loads"])
        scn["loads"].append({
            "kind": kind,
            "power": rng.choice((0.0, 10 ** rng.uniform(-5, -2.5))),
            "energy": (
                1e-3 if starving
                else rng.choice((0.0, 10 ** rng.uniform(-10, -7)))
            ),
            "resistance": 10 ** rng.uniform(1.5, 4),
            "current": 10 ** rng.uniform(-4, -2),
            "gain": rng.uniform(0.5, 1.5),
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
    return scn


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
    loads = []
    for spec in scn["loads"]:
        if spec["kind"] == "resistor":
            load = ResistiveLoad(spec["resistance"])
        else:
            term = (
                spec["resistance"] if spec["kind"] == "resistive"
                else (spec["current"], spec["gain"])
            )
            load = ProfileLoad(spec["kind"], spec["power"], spec["energy"],
                               term, spec["v_rising"], spec["v_falling"])
        loads.append(rail.attach_load(load))
    return rail, loads


def chunk(scn):
    """One ``step_chunk`` on a fresh rail; every observable result."""
    rail, loads = build(scn)
    dt = scn["dt"]
    taken = rail.step_chunk(scn["start"] * dt, dt, scn["n"])
    stats = rail.stats
    return {
        "taken": taken,
        "voltages": rail.last_chunk_voltages().tolist(),
        "v": rail.voltage,
        "stats": (stats.harvested, stats.consumed, stats.leaked,
                  stats.starved),
        "envelope": envelope(stats),
        "commits": [getattr(load, "commits", None) for load in loads],
    }


def envelope(stats):
    return stats.vcc_min, stats.vcc_max, stats.vcc_phase


def reference(scn, steps):
    """Per-step execution of ``steps`` steps: the voltages, the stats
    totals, the envelope, and each load's first boundary crossing over
    one more step (the event step)."""
    rail, loads = build(scn)
    dt = scn["dt"]
    voltages = []
    for i in range(steps + 1):
        if i == steps:
            stats = rail.stats
            totals = (stats.harvested, stats.consumed, stats.leaked,
                      stats.starved)
            bounds = envelope(stats)
        rail.step((scn["start"] + i) * dt, dt)
        voltages.append(rail.voltage)
    crossings = [
        min(load.crossings, default=(None, None))
        if isinstance(load, ProfileLoad) else (None, None)
        for load in loads
    ]
    return voltages[:steps], totals, bounds, crossings


def rung_results(monkeypatch, rung):
    if rung == "python":
        monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
    else:
        monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
    _ckernel.reset_cache()
    degrade.reset()
    results = [chunk(scenario(seed)) for seed in SEEDS]
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
    for seed, py, c in zip(SEEDS, python, compiled):
        assert c == py, (seed, scenario(seed))


def test_chunks_match_reference_execution(monkeypatch, restore_kernel):
    """Both rungs: within 1e-9 of per-step execution, event on the same
    step; and the generator reaches every branch it is meant to."""
    seen = set()
    for rung in ("python", "c"):
        results = rung_results(monkeypatch, rung)
        if rung == "c" and _ckernel.load() is None:
            pytest.skip("no C compiler available")
        for seed, result in zip(SEEDS, results):
            scn = scenario(seed)
            taken, n = result["taken"], scn["n"]
            voltages, totals, bounds, crossings = reference(scn, taken)
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
            steps = [step for step, _ in crossings if step is not None]
            event = min(steps) if steps else None
            if taken < n:
                assert event == taken, (rung, seed, crossings, taken)
                first_load = [step for step, _ in crossings].index(event)
                seen.add("event" if first_load == 0
                         else "event-on-later-load")
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
            if (
                scn["storage"] == "capacitor"
                and [kind for kind, _, _ in scn["sources"]] == ["trapezoid"]
                and [load["kind"] for load in scn["loads"]] == ["constant"]
            ):
                seen.add("simple")
    assert seen >= {
        "event", "event-on-later-load", "event-at-clamp", "full-chunk",
        "starved", "leaked", "simple",
        "envelope-empty", "envelope-mid-period",
        "trapezoid", "sine-full", "square", "converter",
        "resistor", "resistive", "current", "constant",
        "capacitor", "leaky", "supercap",
    }, seen
