"""Two-rung differential test of the mini-ISA interpreter.

``Machine.run`` runs on the compiled ``machine_run`` of
:mod:`repro.sim._ckernel` when that library loads, and on the Python
loop otherwise.  Seeded random programs (every opcode, both memory
placements, ``stop_at_ckpt`` on and off, budgets of 0-300) are driven on
both rungs through the same seeded sequence of runs, snapshots, power
failures, restores, cold boots, corrupted return addresses and negative
PCs.  Every observable must agree: each ``ExecutionSlice`` field, the
registers, PC, data memory, ``total_cycles``, ``halted``, the output log
and the type and text of every error.  The generator must reach every
fault exit, and ``run`` after ``halt``.
"""

import random

import pytest

from repro.errors import MachineError
from repro.mcu.assembler import assemble
from repro.mcu.isa import OPCODES
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.peripherals import ADCPeripheral, Radio, SensorPeripheral
from repro.mcu.programs import fft_program, sense_program, sort_program
from repro.sim import _ckernel

#: The golden ledger's two memory placements, on a data space small
#: enough that random addresses often fall outside it.
CONFIGS = {
    "sram": MachineConfig(data_space_words=64),
    "fram": MachineConfig(data_space_words=64, data_in_fram=True,
                          fram_fetch_wait=1),
}
STOP_MODES = {"stop": True, "run-through": False}
PROGRAMS_PER_CASE = 250
ACTIONS_PER_PROGRAM = 40
MAX_BUDGET = 300

MNEMONICS = sorted(OPCODES)
#: Immediates: small values (in-range addresses, loop counts) most of
#: the time, and the 16-bit edges.
IMMEDIATES = tuple(range(12)) + (
    15, 16, 63, 64, 255, 0x7FFF, 0x8000, -0x8000, 0xFFFF, -1, -12345, 40000,
)
#: Ports 0-2 carry peripherals in some programs; 3 is never mapped.
PORTS = (0, 1, 2, 3, 7)
PERIPHERALS = {0: ADCPeripheral, 1: SensorPeripheral, 2: Radio}

#: Real workloads ride along: long loops, calls, checkpoints and ports.
#: Each maps to the peripherals it needs.
WORKLOADS = (
    (fft_program(16), {}),
    (sort_program(12), {}),
    (sense_program(8), {1: SensorPeripheral, 2: Radio}),
)


def random_program(rng):
    """Assembly source of a random program and its peripheral map."""
    size = rng.randint(4, 40)
    words = ", ".join(str(rng.choice(IMMEDIATES)) for _ in range(8))
    lines = [f".data d: {words}"]
    for _ in range(size):
        name = rng.choice(MNEMONICS)
        operands = []
        for position, code in enumerate(OPCODES[name].signature):
            if code == "r" and position == 1 and name in ("ld", "st") \
                    and rng.random() < 0.5:
                operands.append("r0")  # base 0: mostly in-range addresses
            elif code == "r":
                operands.append(f"r{rng.randrange(16)}")
            elif code == "i" and name in ("ld", "st"):
                operands.append(str(rng.randint(-4, 70)))
            elif code == "i":
                operands.append(str(rng.choice(IMMEDIATES)))
            elif code == "l":
                # One past the last instruction is a fetch past the end.
                operands.append(str(rng.randint(0, size)))
            else:
                operands.append(str(rng.choice(PORTS)))
        lines.append(f"{name} {', '.join(operands)}")
    mapped = {port: factory for port, factory in PERIPHERALS.items()
              if rng.random() < 0.5}
    return "\n".join(lines) + "\n", mapped


def fault_tag(machine, entry_pc, error):
    """What faulted: the error kind and the instruction (or PC) at fault."""
    kind = str(error).split(":")[0]
    pc = machine.pc
    if pc < 0:
        return kind, "negative PC at entry" if entry_pc < 0 else "ret"
    if pc >= len(machine.image.instructions):
        return kind, "past the end"
    return kind, machine.image.instructions[pc].spec.name


def drive(source, config, peripherals, seed, stop_at_ckpt, machine_run):
    """Everything observable while driving ``source`` through a seeded
    action sequence, on the compiled rung (``machine_run``) or the
    Python loop (None); plus the fault tags met on the way."""
    machine = Machine(assemble(source), config)
    for port, factory in peripherals.items():
        machine.attach_peripheral(port, factory())
    machine.select_rung(machine_run)
    rng = random.Random(seed)
    seen, tags = [], set()
    snapshot = None
    for _ in range(ACTIONS_PER_PROGRAM):
        action = rng.random()
        if action < 0.06:
            snapshot = machine.capture_full(
                include_peripherals=rng.random() < 0.5
            )
            seen.append(("snapshot", snapshot.words()))
        elif action < 0.12 and snapshot is not None:
            machine.power_fail()
            machine.restore(snapshot)
        elif action < 0.15:
            machine.power_fail()
        elif action < 0.17:
            machine.cold_boot()
        elif action < 0.22:
            # Corrupt every word from the stack pointer up: a ret now
            # pops a negative return address.
            for address in range(max(machine.registers[15], 0),
                                 len(machine.data)):
                machine.data[address] = -rng.randint(1, 9)
        elif action < 0.24:
            machine.pc = -rng.randint(1, 3)
        else:
            entry_pc, was_halted = machine.pc, machine.halted
            try:
                slice_ = machine.run(rng.randint(0, MAX_BUDGET), stop_at_ckpt)
            except MachineError as error:
                seen.append((type(error).__name__, str(error)))
                tags.add(fault_tag(machine, entry_pc, error))
            else:
                seen.append(vars(slice_))
                if was_halted:
                    tags.add(("run after halt", slice_.halted
                              and slice_.cycles == 0))
        seen.append((list(machine.registers), machine.pc,
                     machine.total_cycles, machine.halted,
                     machine.data.tolist(), list(machine.output_port.log)))
    return seen, tags


#: Every fault exit (and ``run`` after ``halt``) the programs must reach.
REQUIRED_TAGS = {
    ("PC out of range", "past the end"),
    ("PC out of range", "negative PC at entry"),
    ("PC out of range", "ret"),
    ("data read out of range", "ld"),
    ("data write out of range", "st"),
    ("data write out of range", "call"),
    ("data read out of range", "ret"),
    ("data write out of range", "push"),
    ("data read out of range", "pop"),
    ("no peripheral at port 3", "in"),
    ("no peripheral at port 3", "out"),
    ("run after halt", True),
}


@pytest.fixture(scope="module")
def machine_run():
    kernel = _ckernel.load()
    if kernel is None:
        pytest.skip("no C compiler available")
    return kernel.machine_run


@pytest.mark.parametrize("stop", sorted(STOP_MODES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_compiled_and_python_rungs_agree(machine_run, config, stop):
    rng = random.Random(f"rungs:{config}:{stop}")
    cases = [random_program(rng) for _ in range(PROGRAMS_PER_CASE)]
    cases += WORKLOADS
    reached = set()
    for index, (source, peripherals) in enumerate(cases):
        seed = f"{config}:{stop}:{index}"
        args = (source, CONFIGS[config], peripherals, seed, STOP_MODES[stop])
        python, tags = drive(*args, None)
        compiled, _ = drive(*args, machine_run)
        assert compiled == python, source
        reached |= tags
    assert REQUIRED_TAGS <= reached, REQUIRED_TAGS - reached

