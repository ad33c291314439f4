"""Golden interpreter ledger: the mini-ISA interpreter's exact accounting.

Every program in :mod:`repro.mcu.programs` runs to ``halt`` on a fresh
:class:`~repro.mcu.machine.Machine`, once with data in SRAM and once with
data in FRAM.  Each run is cut into seeded random cycle budgets with
``stop_at_ckpt=True``, the way a checkpointing supervisor drives it, and
the ledger sums every :class:`~repro.mcu.machine.ExecutionSlice` field
over the run: cycles, instructions retired, FRAM/SRAM reads and writes,
peripheral energy.  It also records the number of checkpoint pauses,
``halted``, the final registers and PC, a digest of data memory and the
words the program wrote to the output port.

The reference ledger in ``tests/data/golden/mcu-ledger.json`` pins the
interpreter's behaviour, not an implementation: any rewrite of the
dispatch loop must reproduce it exactly.  Regenerate it only after an
*intentional* ISA or cost-model change with::

    PYTHONPATH=src:. python tests/mcu/test_interpreter_ledger.py --regen

and say why in the commit message.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.mcu.assembler import assemble
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.peripherals import ADCPeripheral, Radio, SensorPeripheral
from repro.mcu.programs import (
    counter_program,
    crc_program,
    fft_program,
    fir_program,
    matmul_program,
    sense_program,
    sieve_program,
    sort_program,
)
from repro.spec.registry import available

LEDGER_PATH = Path(__file__).resolve().parents[1] / "data" / "golden" / "mcu-ledger.json"

#: program name -> (source, {port: peripheral factory}).  Sizes are small
#: enough that the whole ledger runs in a few seconds.
PROGRAMS = {
    "counter": (counter_program(300), {}),
    "crc": (crc_program(48), {}),
    "fft": (fft_program(64), {}),
    "fir": (fir_program(40), {0: ADCPeripheral}),
    "matmul": (matmul_program(5), {}),
    "sense": (sense_program(24), {1: SensorPeripheral, 2: Radio}),
    "sieve": (sieve_program(240), {}),
    "sort": (sort_program(24), {}),
}

#: memory placement -> machine configuration.  The FRAM case also sets a
#: fetch wait state so the per-instruction fetch cost is pinned too.
CONFIGS = {
    "sram": MachineConfig(),
    "fram": MachineConfig(data_in_fram=True, fram_fetch_wait=1),
}

#: Cycle budgets are drawn from [0, MAX_BUDGET]; 0 exercises empty slices.
MAX_BUDGET = 300
SEED = 12

SLICE_FIELDS = (
    "cycles",
    "instructions",
    "fram_reads",
    "fram_writes",
    "sram_reads",
    "sram_writes",
    "peripheral_energy",
)

CASES = [f"{program}-{memory}" for program in PROGRAMS for memory in CONFIGS]


def _run_case(case: str) -> dict:
    program, memory = case.rsplit("-", 1)
    source, peripherals = PROGRAMS[program]
    machine = Machine(assemble(source), CONFIGS[memory])
    for port, factory in peripherals.items():
        machine.attach_peripheral(port, factory())
    rng = random.Random(f"{SEED}:{case}")
    totals = dict.fromkeys(SLICE_FIELDS, 0)
    totals["peripheral_energy"] = 0.0
    slices = pauses = 0
    while not machine.halted:
        slice_ = machine.run(rng.randint(0, MAX_BUDGET), stop_at_ckpt=True)
        slices += 1
        for name in SLICE_FIELDS:
            totals[name] += getattr(slice_, name)
        pauses += slice_.hit_checkpoint
        assert slices < 1_000_000, f"{case} never halted"
    digest = hashlib.sha256(
        ",".join(str(word) for word in machine.data).encode("ascii")
    ).hexdigest()
    return {
        **totals,
        "slices": slices,
        "checkpoint_pauses": pauses,
        "halted": machine.halted,
        "total_cycles": machine.total_cycles,
        "registers": list(machine.registers),
        "pc": machine.pc,
        "data_sha256": digest,
        "output": list(machine.output_port.log),
    }


def _load() -> dict:
    return json.loads(LEDGER_PATH.read_text(encoding="utf-8"))


def test_ledger_covers_every_registered_program():
    assert sorted(PROGRAMS) == sorted(available("program"))
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_interpreter_matches_golden_ledger(case):
    assert _run_case(case) == _load()[case]


def regenerate() -> None:
    LEDGER_PATH.parent.mkdir(parents=True, exist_ok=True)
    ledger = {case: _run_case(case) for case in CASES}
    LEDGER_PATH.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER_PATH} ({len(ledger)} cases)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
