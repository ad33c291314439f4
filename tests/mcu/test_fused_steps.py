"""The interpreter stepped inside chunks against step-by-step execution,
on both rungs.

Under the fast kernel both chunk loops step the interpreter in a
transition table's ACTIVE row, one engine step per step
(:class:`~repro.sim.kernel.MachineSteps`), and undo the one step a
chunk does not commit.  Driven through seeded chunk lengths, seeded
rails and a second load with seeded voltage boundaries, every program
of the golden ledger and generated programs of the rung test must
match a second machine that runs the same steps one ``run(budget)`` at
a time:

* each committed step's cycles and memory energy (a one-step chunk
  shows a step's energy alone; longer ones its sum in step order), and
  the load's committed demand;
* the registers, PC, data memory, ``total_cycles`` and ``halted`` after
  every chunk;
* a chunk that stops short stops right before an event step, whose
  undo it met: on the step-by-step machine that step halts, pauses at
  a ``ckpt``, does port I/O or faults, each named by the table's stop
  code (its first exit), or it runs its budget and the second load's
  boundary discarded it.

The compiled and Python chunk loops must observe exactly the same
sequence.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from repro.errors import MachineError
from repro.mcu.assembler import assemble
from repro.mcu.engine import MachineEngine
from repro.mcu.machine import Machine
from repro.mcu.power_model import McuPowerModel
from repro.power.rail import RailStats, chunk_loop
from repro.sim import _ckernel
from repro.sim.kernel import (
    ACTIVE,
    TRANSITIONS,
    CapacitorPhysics,
    LoadProfile,
    TransitionTable,
    VoltageSourcePlan,
)

from tests.mcu.test_interpreter_ledger import CONFIGS, PROGRAMS
from tests.mcu.test_machine_rungs import (
    CONFIGS as SMALL_CONFIGS,
    random_program,
)

STOP_MODES = {"stop": True, "run-through": False}
GENERATED = 60
MAX_CHUNK = 40
MAX_BUDGET = 300
DT = 5e-5
MODEL = McuPowerModel()

#: What a chunk that stopped short undid, per stop mode ("full": a
#: chunk ran all its steps).
REQUIRED_TAGS = {
    True: {"halt", "ckpt", "port", "fault", "boundary", "full"},
    False: {"halt", "port", "fault", "boundary", "full"},
}
#: The table's stop code, by name, for each kind of undone step.
STOPS = {"halt": "halt", "ckpt": "checkpoint-site", "port": "port-or-fault",
         "fault": "port-or-fault", "boundary": None}


def active_table(steps, energy):
    """A table that stays ACTIVE, stepping ``steps`` and drawing
    ``energy`` joules a step beside its memory energy (no core
    current)."""
    return TransitionTable(
        v_min=0.0, v_por=0.0, guard=-math.inf, wake=math.inf,
        boot_state=ACTIVE, energies=(0.0, 0.0, 0.0, 0.0, energy),
        current=0.0, current_gain=1.0, snapshot_steps=0, restore_steps=0,
        budget=steps.budget, total=0, site_interval=0, single_slot=False,
        python=0, state=ACTIVE, machine=steps,
    )


def state(machine):
    digest = hashlib.sha256(
        ",".join(map(str, machine.data)).encode()
    ).hexdigest()
    return (list(machine.registers), machine.pc, machine.total_cycles,
            machine.halted, digest, list(machine.output_port.log))


def event_tag(machine, budget, stop_at_ckpt):
    """Run one step on ``machine``; what event it held, or None."""
    try:
        slice_ = machine.run(budget, stop_at_ckpt)
    except MachineError as error:
        return "fault", str(error)
    if slice_.halted:
        return "halt", vars(slice_)
    if slice_.hit_checkpoint:
        return "ckpt", vars(slice_)
    if slice_.peripheral_energy > 0.0:
        return "port", vars(slice_)
    return None, vars(slice_)


def run_chunk(compiled, v0, values, profiles, n):
    """One chunk on a fresh ideal 22 uF rail fed by ``values`` through a
    rectifier, on the compiled loop or the Python loop (None)."""
    cell = [v0]
    physics = CapacitorPhysics(
        22e-6, 3.3, None, 1.0, read_voltage=lambda: cell[0],
        write_voltage=lambda v: cell.__setitem__(0, v),
    )
    plans = [VoltageSourcePlan(values, 0.2, 80.0, values.ctypes.data)]
    run = chunk_loop if compiled is None else _ckernel.ChunkLoop(
        compiled, len(plans), len(profiles)
    ).run
    taken, energies, voltages = run(
        physics, plans, profiles, v0, None, DT, n, RailStats()
    )
    return taken, list(energies), np.asarray(voltages, dtype=float).tolist()


def drive(source, config, peripherals, seed, stop_at_ckpt, compiled,
          max_steps):
    """Fused chunks of ``source`` against step-by-step execution for up
    to ``max_steps`` steps; returns the observation log (for the rung
    comparison) and the tags reached."""
    image = assemble(source)
    fused, stepped = Machine(image, config), Machine(image, config)
    for machine in (fused, stepped):
        for port, factory in peripherals.items():
            machine.attach_peripheral(port, factory())
    stepped.select_rung(None)  # the plain Python loop, one step a call
    engine = MachineEngine(fused, MODEL)
    rng = random.Random(seed)
    log, tags = [], set()
    steps = 0
    while steps < max_steps and not fused.halted:
        budget = rng.randint(1, MAX_BUDGET)
        n = rng.choice((1, 1, 2, rng.randint(1, MAX_CHUNK)))
        v0 = rng.uniform(0.8, 3.2)
        values = np.ascontiguousarray(np.maximum(
            rng.uniform(0.0, 4.0)
            * np.sin(rng.uniform(0.0, 6.3) + 0.3 * np.arange(n)), 0.0,
        ))
        energy = rng.choice((0.0, 1e-9))
        bound = rng.random()
        boundary = LoadProfile(
            resistance=rng.uniform(20.0, 2000.0),
            v_falling=v0 - rng.uniform(0.0, 0.2) if bound < 0.4
            else -math.inf,
            v_rising=v0 + rng.uniform(0.0, 0.2) if bound > 0.8
            else math.inf,
        )
        plan, _, commit = engine.active_plan(budget, stop_at_ckpt)
        table = active_table(plan, energy)
        taken, energies, voltages = run_chunk(
            compiled, v0, values, [LoadProfile(table=table), boundary], n
        )
        cycles, memory = commit(taken)
        demand = memory_sum = 0.0
        stepped_cycles = 0
        for _ in range(taken):
            step = stepped.run(budget, stop_at_ckpt)
            assert not (step.halted or step.hit_checkpoint)
            assert step.peripheral_energy == 0.0
            joules = MODEL.slice_memory_energy(step)
            memory_sum += joules
            demand += energy + joules
            stepped_cycles += step.cycles
        assert (cycles, memory) == (stepped_cycles, memory_sum)
        assert energies[0] == demand
        steps += taken
        log.append((budget, n, taken, cycles, memory, energies, voltages))
        assert state(fused) == state(stepped)
        if taken == n:
            tags.add("full")
            continue
        # Stopped short: the next step is an event on both machines, or
        # the boundary load discarded it.
        tag, seen = event_tag(stepped, budget, stop_at_ckpt)
        assert event_tag(fused, budget, stop_at_ckpt) == (tag, seen)
        assert state(fused) == state(stepped)
        tag = tag or "boundary"
        # The loop names the step's first exit: a port before the
        # step's halt or fault.
        stop = None if table.stop < 0 else TRANSITIONS[table.stop]
        ported = isinstance(seen, dict) and seen["peripheral_energy"] > 0.0
        assert stop == ("port-or-fault" if ported else STOPS[tag]), (
            tag, stop)
        tags.add(tag)
        log.append((tag, seen))
        steps += 1
        if tag == "fault":
            break
    return log, tags


def rungs():
    kernel = _ckernel.load()
    return [None] + ([] if kernel is None else [kernel.chunk_loop])


@pytest.mark.parametrize("stop", sorted(STOP_MODES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_ledger_programs_run_ahead_like_single_steps(config, stop):
    stop_at_ckpt = STOP_MODES[stop]
    tags = set()
    for name, (source, factories) in sorted(PROGRAMS.items()):
        seed = f"fused:{name}:{config}:{stop}"
        logs = []
        for compiled in rungs():
            log, reached = drive(source, CONFIGS[config], factories, seed,
                                 stop_at_ckpt, compiled, 100_000)
            logs.append(log)
            tags |= reached
        assert all(log == logs[0] for log in logs), name
    assert tags >= REQUIRED_TAGS[stop_at_ckpt] - {"fault"}, tags


@pytest.mark.parametrize("stop", sorted(STOP_MODES))
@pytest.mark.parametrize("config", sorted(SMALL_CONFIGS))
def test_generated_programs_run_ahead_like_single_steps(config, stop):
    stop_at_ckpt = STOP_MODES[stop]
    rng = random.Random(f"fused-generated:{config}:{stop}")
    tags = set()
    for index in range(GENERATED):
        source, factories = random_program(rng)
        seed = f"{config}:{stop}:{index}"
        logs = []
        for compiled in rungs():
            log, reached = drive(source, SMALL_CONFIGS[config], factories,
                                 seed, stop_at_ckpt, compiled, 200)
            logs.append(log)
            tags |= reached
        assert all(log == logs[0] for log in logs), source
    assert tags >= REQUIRED_TAGS[stop_at_ckpt], tags


@pytest.mark.parametrize("compiled", rungs(), ids=lambda c: "python"
                         if c is None else "c")
def test_an_undone_step_restores_every_word_it_wrote(compiled):
    """A step that writes one word twice, pushes, then reaches a port is
    undone whole, the twice-written word back to its first value."""
    source = (".data d: 7, 8\nldi r1, 5\nst r1, r0, 1\nldi r2, 6\n"
              "st r2, r0, 1\npush r2\nin r3, 3\nhalt\n")
    machine = Machine(assemble(source))
    fresh = state(machine)
    steps = machine.active_steps(100, False, (1e-11, 1e-11, 1e-11, 1e-11))
    values = np.ascontiguousarray(np.zeros(4))
    table = active_table(steps, 0.0)
    taken, energies, _ = run_chunk(
        compiled, 3.0, values, [LoadProfile(table=table)], 4
    )
    assert (taken, energies, steps.cycles, steps.instructions,
            steps.memory) == (0, [0.0], 0, 0, 0.0)
    assert TRANSITIONS[table.stop] == "port-or-fault"
    assert state(machine) == fresh


def test_a_halted_machine_runs_no_steps_ahead():
    machine = Machine(assemble("halt\n"))
    machine.run(10)
    assert machine.halted
    assert MachineEngine(machine).active_plan(10) is None
    assert machine.halted
