"""Generated conformance: the transition table against per-step
execution, on both chunk-loop rungs.

The fast kernel's chunk loops follow the transient platform's state
machine as data (``TransientPlatform.load_profile`` publishes a
``TransitionTable``), while the reference kernel runs the hand-written
``TransientPlatform.advance`` one step at a time.  A seeded generator
draws Eq. (5) crossover scenarios over strategy (Hibernus, QuickRecall,
Hibernus++, NVP, Mementos, none), interruption frequency (1-99 Hz, log scale),
capacitance (10-47 uF), workload length (2e5-4e6 cycles), bleed
resistance (300-2000 ohm) and each strategy's thresholds inside the
range its factory accepts; a draw the factory rejects is redrawn.  A
second seeded generator draws the same scenarios on the interpreter
(``engine="machine"``): every registered program that needs no
peripheral, at small sizes, on a slow clock (2-20 cycles a step) so
that its run spans supply interruptions; the table then steps the
machine in its ACTIVE row.  Every scenario must give:

* the same row and the same chunk record on the compiled and the
  Python rung, bit for bit;
* fast rows within 1e-9 of reference rows on every metric;
* exactly equal boots, brownouts, snapshots (completed and aborted),
  restores, executed cycles and completion.

The interpreter scenarios must follow snapshots, their completion,
restores and brownouts inside chunks.

Named cases force the transitions a random draw seldom reaches: a
brownout mid-snapshot, a brownout mid-restore, and boots after the
workload completed (the device parks in SLEEP).
"""

import dataclasses
import math
import random

import pytest

from repro import degrade
from repro.errors import ConfigurationError, SpecError
from repro.results.run_result import RunResult
from repro.sim import _ckernel
from repro.spec.specs import (
    HarvesterSpec,
    LoadSpec,
    PlatformSpec,
    ScenarioSpec,
    StorageSpec,
)

SEED = 2026
COUNT = 120
#: The interpreter scenarios' generator.
MACHINE_SEED = 3035
MACHINE_COUNT = 60
#: Small sizes of the registered programs a spec can run without a
#: peripheral (``fir`` reads port 0, ``sense`` ports 1 and 2).
PROGRAM_SIZES = {
    "fft": ("n", (16, 32, 64)),
    "crc": ("length", (32, 64, 128)),
    "matmul": ("n", (4, 6, 8)),
    "sieve": ("limit", (120, 200, 400)),
    "sort": ("length", (16, 32, 64)),
    "counter": ("target", (300, 1000, 3000)),
}
TOLERANCE = 1e-9
#: Simulated seconds per scenario: runs stop on completion before.
DURATION = 1.0

#: Platform counters that must agree exactly between kernels.
COUNTERS = (
    "boots", "brownouts", "cold_boots", "snapshots_started",
    "snapshots_completed", "snapshots_aborted", "restores_started",
    "restores_completed", "restores_aborted", "completions",
    "cycles_executed",
)
#: Strategies whose every hook the transition table follows: their
#: chunks cover almost every step.  NVP's wake and Mementos'
#: checkpoint sites return to Python by design.
TABLE_FOLLOWED = ("hibernus", "quickrecall", "hibernus++", "null")
#: Chunk-record fields that must agree exactly between the rungs.
CHUNK_RECORD = ("chunks", "chunked_steps", "fallback_steps", "fallbacks",
                "transitions", "fallback_transitions")
#: Row columns that must agree exactly between kernels.
EXACT_COLUMNS = (
    "brownouts", "snapshots", "snapshots_aborted", "restores",
    "cycles_executed", "completed", "completion_time", "t_end",
)


def _log_uniform(rng, low, high):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _strategy(rng):
    """A strategy, its power model and thresholds (possibly invalid:
    the factory decides)."""
    strategy = rng.choice(("hibernus", "quickrecall", "hibernus++", "nvp",
                           "mementos", "null"))
    if strategy in ("hibernus", "quickrecall"):
        v_hibernate = rng.choice((None, rng.uniform(1.85, 2.9)))
        low = 1.9 if v_hibernate is None else v_hibernate + 0.02
        params = {
            "v_hibernate": v_hibernate,
            "v_restore": rng.uniform(low, 3.15),
        }
        if rng.random() < 0.3:
            params["margin"] = rng.uniform(1.0, 2.0)
    elif strategy == "hibernus++":
        v_restore = rng.uniform(2.3, 3.15)
        params = {
            "v_restore_initial": v_restore,
            "v_hibernate_initial": rng.choice(
                (None, rng.uniform(1.85, v_restore))
            ),
            "margin": rng.uniform(1.0, 2.0),
            "guard": rng.uniform(0.01, 0.1),
            "adapt_rate": rng.uniform(0.02, 0.5),
        }
    elif strategy == "nvp":
        params = {
            "v_restore": rng.uniform(2.0, 3.15),
            "backup_margin": rng.uniform(1.0, 16.0),
        }
    elif strategy == "mementos":
        params = {
            "v_checkpoint": rng.uniform(1.85, 3.15),
            "v_operate": rng.uniform(2.0, 3.15),
            "timer_interval": rng.choice(
                (None, _log_uniform(rng, 1e-3, 0.1))
            ),
        }
    else:
        params = {}
    model = "msp430-fram" if strategy == "quickrecall" else "msp430-sram"
    return strategy, params, model


def scenario(strategy, params, model, frequency, capacitance, cycles,
             bleed, **engine):
    """A crossover-style scenario: trapezoid supply, bleed resistor,
    synthetic workload, fast kernel, stop on completion."""
    return ScenarioSpec(
        name=f"conformance-{strategy}",
        dt=1e-4,
        duration=DURATION,
        kernel="fast",
        stop_on_completion=True,
        storage=StorageSpec(
            "capacitor", {"capacitance": capacitance, "v_max": 3.3}
        ),
        harvesters=(
            HarvesterSpec(
                "trapezoid-supply",
                {"frequency": frequency, "source_resistance": 10.0},
                rectifier="half-wave",
                rectifier_params={"forward_drop": 0.0, "on_resistance": 0.1},
            ),
        ),
        loads=(LoadSpec("resistive", {"resistance": bleed}),),
        platform=PlatformSpec(
            strategy=strategy,
            strategy_params={k: v for k, v in params.items()
                             if v is not None},
            engine="synthetic",
            engine_params=dict({"total_cycles": cycles}, **engine),
            power_model=model,
        ),
    )


def generated_specs():
    """``COUNT`` valid scenarios from the seeded generator."""
    rng = random.Random(SEED)
    specs = []
    while len(specs) < COUNT:
        strategy, params, model = _strategy(rng)
        spec = scenario(
            strategy, params, model,
            frequency=_log_uniform(rng, 1.0, 99.0),
            capacitance=_log_uniform(rng, 10e-6, 47e-6),
            cycles=int(_log_uniform(rng, 2e5, 4e6)),
            bleed=rng.uniform(300.0, 2000.0),
        )
        try:
            spec.build()
        except (ConfigurationError, SpecError):
            continue  # outside the factory's range: draw again
        specs.append(spec)
    return specs


def generated_machine_specs():
    """``MACHINE_COUNT`` valid interpreter scenarios from their own
    seeded generator (the synthetic draws above stay as they are)."""
    rng = random.Random(MACHINE_SEED)
    specs = []
    while len(specs) < MACHINE_COUNT:
        strategy, params, model = _strategy(rng)
        program = rng.choice(sorted(PROGRAM_SIZES))
        name, sizes = PROGRAM_SIZES[program]
        spec = scenario(
            strategy, params, model,
            frequency=_log_uniform(rng, 1.0, 99.0),
            capacitance=_log_uniform(rng, 10e-6, 47e-6),
            cycles=0,
            bleed=rng.uniform(300.0, 2000.0),
        )
        spec = dataclasses.replace(spec, platform=dataclasses.replace(
            spec.platform, engine="machine", engine_params={},
            program=program, program_params={name: rng.choice(sizes)},
            machine_params={"data_space_words": 512,
                            "data_in_fram": model == "msp430-fram"},
            clock_frequency=_log_uniform(rng, 2e4, 2e5),
        ))
        try:
            spec.build()
        except (ConfigurationError, SpecError):
            continue  # outside the factory's range: draw again
        specs.append(spec)
    return specs


def _oversized_snapshot(system):
    """Commit a 20k-word snapshot before the run: restoring it takes
    10 ms, longer than a 99 Hz supply stays up."""
    store = system.platform.store
    store.begin_write(0, 20_000)
    store.commit()


#: Named cases: (spec, system preparation, what the reference run's
#: counters must show).
NAMED = {
    # A late trigger and an 8192-word write (16 ms) against a
    # collapsing supply: snapshots start and cannot finish.
    "brownout-mid-snapshot": (
        scenario("hibernus", {"v_hibernate": 2.0, "v_restore": 3.0},
                 "msp430-sram", 10.0, 22e-6, 4_000_000, 560.0,
                 full_state_words=8192),
        None, lambda counters: counters["snapshots_aborted"] > 0,
    ),
    "brownout-mid-restore": (
        scenario("hibernus", {"v_hibernate": 2.8, "v_restore": 3.0},
                 "msp430-sram", 99.0, 22e-6, 4_000_000, 560.0),
        _oversized_snapshot,
        lambda counters: counters["restores_aborted"] > 0,
    ),
    # The workload completes early and the run goes on: every later
    # boot parks the device in SLEEP for good.
    "workload-done-sleep": (
        dataclasses.replace(
            scenario("quickrecall", {"v_hibernate": 2.1, "v_restore": 3.0},
                     "msp430-fram", 40.0, 15e-6, 300_000, 560.0),
            stop_on_completion=False, duration=0.4,
        ),
        None,
        lambda counters: counters["completions"] == 1
        and counters["boots"] > counters["restores_started"] + 5,
    ),
}


def run(spec, prepare=None):
    """One scenario's row, platform counters and chunk statistics
    (``run_spec`` without the error trap, keeping the system); an
    exception is kept for the scenario's test to raise."""
    try:
        system = spec.build()
        if prepare is not None:
            prepare(system)
        result = system.run(spec.duration, decimate=spec.decimate)
    except Exception as error:  # reported by the scenario's own test
        return error
    row = RunResult.from_system_run(result, spec).metrics
    counters = {name: getattr(system.platform.metrics, name)
                for name in COUNTERS}
    return row, counters, system.simulator.chunk_stats


def outcome(results, name, kernel):
    """One run's results, raising the exception it stopped with."""
    result = results[name, kernel]
    if isinstance(result, Exception):
        raise result
    return result


CASES = [(f"seed-{i}", spec, None) for i, spec in
         enumerate(generated_specs())] + [
    (f"machine-{i}", spec, None) for i, spec in
    enumerate(generated_machine_specs())] + [
    (name, spec, prepare) for name, (spec, prepare, _) in NAMED.items()
]


def _rung(monkeypatch, rung):
    if rung == "python":
        monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
    else:
        monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
    _ckernel.reset_cache()
    degrade.reset()


@pytest.fixture(scope="module")
def results():
    """Every case on the reference kernel and on both fast rungs."""
    monkeypatch = pytest.MonkeyPatch()
    out = {}
    try:
        for rung in ("python", "c"):
            _rung(monkeypatch, rung)
            if rung == "c" and _ckernel.load() is None:
                continue
            for name, spec, prepare in CASES:
                out[name, rung] = run(spec, prepare)
        for name, spec, prepare in CASES:
            out[name, "reference"] = run(
                spec.with_override("kernel", "reference"), prepare
            )
    finally:
        monkeypatch.undo()
        _ckernel.reset_cache()
        degrade.reset()
    return out


def _close(got, want):
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=1e-15)
    return got == want


def _strategy_of(name):
    return next(spec.platform.strategy for case, spec, _ in CASES
                if case == name)


@pytest.mark.parametrize("name", [name for name, _, _ in CASES])
def test_fast_matches_reference_on_both_rungs(results, name):
    ref_row, ref_counters, _ = outcome(results, name, "reference")
    rungs = [rung for rung in ("python", "c") if (name, rung) in results]
    for rung in rungs:
        row, counters, stats = outcome(results, name, rung)
        assert counters == ref_counters, (rung, counters, ref_counters)
        for column in EXACT_COLUMNS:
            assert row[column] == ref_row[column], (rung, column)
        for column, want in ref_row.items():
            assert _close(row[column], want), (rung, column, row[column],
                                               want)
        if _strategy_of(name) in TABLE_FOLLOWED:
            assert stats.chunked_fraction() > 0.9, (rung, stats)
    if len(rungs) == 2:
        assert results[name, "c"][0] == results[name, "python"][0]
        records = [
            {field: getattr(results[name, rung][2], field)
             for field in CHUNK_RECORD}
            for rung in rungs
        ]
        assert records[0] == records[1], records


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case_reaches_its_transition(results, name):
    """Each named case does what it is named for, and the fast kernel
    follows its brownouts and boots inside chunks."""
    _, _, shows = NAMED[name]
    _, ref_counters, _ = outcome(results, name, "reference")
    assert shows(ref_counters), ref_counters
    _, _, stats = outcome(results, name, "python")
    assert stats.transitions["brownout"] > 0
    assert stats.transitions["boot"] > 0


def test_generator_covers_every_strategy_and_transition(results):
    """The draws reach every strategy and, across them, every
    transition the table follows, plus Python returns for Hibernus++
    adaptation; on the interpreter too, whose table follows snapshots,
    their completion, restores and brownouts and returns to Python at
    its halt."""
    for engine in ("synthetic", "machine"):
        strategies = {spec.platform.strategy for _, spec, _ in CASES
                      if spec.platform.engine == engine}
        assert strategies == {"hibernus", "quickrecall", "hibernus++",
                              "nvp", "mementos", "null"}, engine
    programs = {spec.platform.program for _, spec, _ in CASES}
    assert programs == set(PROGRAM_SIZES) | {None}, programs
    followed = set()
    returned = set()
    machine_followed = set()
    machine_returned = set()
    completed = 0
    for name, spec, _ in CASES:
        row, _, stats = outcome(results, name, "python")
        followed.update(k for k, v in stats.transitions.items() if v)
        returned.update(k for k, v in stats.fallback_transitions.items()
                        if v)
        if spec.platform.engine == "machine":
            machine_followed.update(
                k for k, v in stats.transitions.items() if v)
            machine_returned.update(
                k for k, v in stats.fallback_transitions.items() if v)
        completed += bool(row["completed"])
    assert {"snapshot", "snapshot-done", "restore",
            "brownout"} <= machine_followed, machine_followed
    assert "halt" in machine_returned, machine_returned
    assert followed == {
        "boot", "brownout", "snapshot", "snapshot-done", "restore",
        "restore-done", "cold-start",
    }, followed
    assert {"halt", "snapshot-done", "restore-done", "brownout"} <= returned
    assert 0 < completed < len(CASES)
