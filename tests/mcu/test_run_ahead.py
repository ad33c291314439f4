"""Run-ahead stretches against step-by-step execution, on both rungs.

``Machine.run(budget, steps=n)`` runs up to ``n`` engine steps ahead in
one loop call and ``Machine.settle(k)`` keeps the first ``k`` of them,
rewinding and re-running when the machine went further.  Driven
through seeded stretch lengths and seeded early ``k`` (which force a
rewind), every program of the golden ledger and generated programs of
the rung test must match a second machine that runs the same steps one
``run(budget)`` at a time:

* each kept step's cycles, accesses and memory energy;
* the registers, PC, data memory, ``total_cycles`` and ``halted``
  after every settle;
* a stretch that stops short of ``n`` stops right before an event step:
  on the step-by-step machine that step halts, pauses at a ``ckpt``,
  does port I/O or faults.

The compiled and Python rungs must observe exactly the same sequence.
"""

import hashlib
import random

import pytest

from repro.errors import MachineError
from repro.mcu.assembler import assemble
from repro.mcu.machine import Machine
from repro.mcu.power_model import McuPowerModel
from repro.sim import _ckernel

from tests.mcu.test_interpreter_ledger import CONFIGS, PROGRAMS
from tests.mcu.test_machine_rungs import (
    CONFIGS as SMALL_CONFIGS,
    random_program,
)

STOP_MODES = {"stop": True, "run-through": False}
GENERATED = 60
MAX_STRETCH = 40
MAX_BUDGET = 300
COUNTERS = ("cycles", "instructions", "fram_reads", "fram_writes",
            "sram_reads", "sram_writes")
MODEL = McuPowerModel()

#: What a stretch that stopped short stopped before, per stop mode.
REQUIRED_TAGS = {
    True: {"halt", "ckpt", "port", "fault", "rewind", "kept"},
    False: {"halt", "port", "fault", "rewind", "kept"},
}


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


def column(per_step, name, i):
    """Step ``i``'s counter ``name`` (an access the memory placement
    never makes is the int 0 for every step)."""
    values = getattr(per_step, name)
    return values if isinstance(values, int) else int(values[i])


def drive(source, config, peripherals, seed, stop_at_ckpt, machine_run,
          max_steps):
    """Run-ahead ``source`` against step-by-step execution for up to
    ``max_steps`` steps; returns the observation log (for the rung
    comparison) and the tags reached."""
    image = assemble(source)
    ahead, stepped = Machine(image, config), Machine(image, config)
    for machine in (ahead, stepped):
        for port, factory in peripherals.items():
            machine.attach_peripheral(port, factory())
    ahead.select_rung(machine_run)
    stepped.select_rung(None)  # the plain Python loop, one step a call
    rng = random.Random(seed)
    log, tags = [], set()
    steps = 0
    while steps < max_steps:
        budget = rng.randint(1, MAX_BUDGET)
        n = rng.randint(1, MAX_STRETCH)
        slice_ = ahead.run(budget, stop_at_ckpt, steps=n)
        per_step = slice_.per_step
        completed = len(per_step.cycles)
        energies = MODEL.slice_memory_energy(per_step)
        assert len(energies) == completed
        keep = completed if rng.random() < 0.5 else rng.randint(0, completed)
        reexecuted = ahead.settle(keep)
        tags.add("rewind" if reexecuted else "kept")
        assert reexecuted in (0, keep)
        for i in range(keep):
            step = stepped.run(budget, stop_at_ckpt)
            assert not (step.halted or step.hit_checkpoint)
            assert step.peripheral_energy == 0.0
            for name in COUNTERS:
                assert getattr(step, name) == column(per_step, name, i), name
            assert MODEL.slice_memory_energy(step) == energies[i]
        assert slice_.cycles == sum(per_step.cycles.tolist())
        steps += keep
        log.append((budget, n, per_step.cycles.tolist(), energies.tolist(),
                    keep, reexecuted))
        assert state(ahead) == state(stepped)
        if keep < completed or completed == n:
            continue
        # Stopped short: the next step is an event on both machines.
        tag, seen = event_tag(stepped, budget, stop_at_ckpt)
        assert tag is not None, (source, seen)
        assert event_tag(ahead, budget, stop_at_ckpt) == (tag, seen)
        assert state(ahead) == state(stepped)
        tags.add(tag)
        log.append((tag, seen))
        steps += 1
        if tag in ("fault", "halt"):
            break
    return log, tags


def rungs():
    kernel = _ckernel.load()
    return [None] + ([] if kernel is None else [kernel.machine_run])


@pytest.mark.parametrize("stop", sorted(STOP_MODES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_ledger_programs_run_ahead_like_single_steps(config, stop):
    stop_at_ckpt = STOP_MODES[stop]
    tags = set()
    for name, (source, factories) in sorted(PROGRAMS.items()):
        seed = f"ahead:{name}:{config}:{stop}"
        logs = []
        for machine_run in rungs():
            log, reached = drive(source, CONFIGS[config], factories, seed,
                                 stop_at_ckpt, machine_run, 100_000)
            logs.append(log)
            tags |= reached
        assert all(log == logs[0] for log in logs), name
    assert tags >= REQUIRED_TAGS[stop_at_ckpt] - {"fault"}, tags


@pytest.mark.parametrize("stop", sorted(STOP_MODES))
@pytest.mark.parametrize("config", sorted(SMALL_CONFIGS))
def test_generated_programs_run_ahead_like_single_steps(config, stop):
    stop_at_ckpt = STOP_MODES[stop]
    rng = random.Random(f"ahead-generated:{config}:{stop}")
    tags = set()
    for index in range(GENERATED):
        source, factories = random_program(rng)
        seed = f"{config}:{stop}:{index}"
        logs = []
        for machine_run in rungs():
            log, reached = drive(source, SMALL_CONFIGS[config], factories,
                                 seed, stop_at_ckpt, machine_run, 200)
            logs.append(log)
            tags |= reached
        assert all(log == logs[0] for log in logs), source
    assert tags >= REQUIRED_TAGS[stop_at_ckpt], tags


def test_settle_rejects_steps_the_run_ahead_did_not_complete():
    machine = Machine(assemble("loop:\nnop\njmp loop\n"))
    slice_ = machine.run(10, steps=3)
    assert len(slice_.per_step.cycles) == 3
    with pytest.raises(MachineError, match="cannot keep 4 of 3"):
        machine.settle(4)


def test_a_halted_machine_runs_no_steps_ahead():
    machine = Machine(assemble("halt\n"))
    machine.run(10)
    assert machine.halted
    slice_ = machine.run(10, steps=5)
    assert slice_.halted and len(slice_.per_step.cycles) == 0
    assert machine.settle(0) == 0
    assert machine.halted
