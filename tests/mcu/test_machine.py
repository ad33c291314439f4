"""Tests for the MCU interpreter."""

import pytest

from repro.errors import MachineError
from repro.mcu.assembler import ProgramImage, assemble
from repro.mcu.isa import OPCODES, Instruction
from repro.mcu.machine import Machine, MachineConfig


def run_asm(source, max_cycles=100000, config=None, peripherals=None):
    machine = Machine(assemble(source), config)
    if peripherals:
        for port, p in peripherals.items():
            machine.attach_peripheral(port, p)
    slice_ = machine.run(max_cycles)
    return machine, slice_


def test_r0_is_hardwired_zero():
    machine, _ = run_asm("ldi r0, 99\nmov r1, r0\nhalt\n")
    assert machine.registers[0] == 0
    assert machine.registers[1] == 0


def test_alu_basics():
    machine, _ = run_asm("""
  ldi r1, 7
  ldi r2, 5
  add r3, r1, r2
  sub r4, r1, r2
  and r5, r1, r2
  or  r6, r1, r2
  xor r7, r1, r2
  halt
""")
    assert machine.registers[3] == 12
    assert machine.registers[4] == 2
    assert machine.registers[5] == 5
    assert machine.registers[6] == 7
    assert machine.registers[7] == 2


def test_shifts_and_arithmetic_shift():
    machine, _ = run_asm("""
  ldi r1, 0x8000
  shri r2, r1, 1
  srai r3, r1, 1
  ldi r4, 3
  shli r5, r4, 2
  halt
""")
    assert machine.registers[2] == 0x4000
    assert machine.registers[3] == 0xC000  # sign extended
    assert machine.registers[5] == 12


def test_mul_wraps_and_mulq_is_q15():
    machine, _ = run_asm("""
  ldi r1, 300
  ldi r2, 300
  mul r3, r1, r2
  ldi r4, 16384      ; 0.5 in Q15
  ldi r5, 16384
  mulq r6, r4, r5    ; 0.25 -> 8192
  halt
""")
    assert machine.registers[3] == (300 * 300) & 0xFFFF
    assert machine.registers[6] == 8192


def test_mulq_signed():
    machine, _ = run_asm("""
  ldi r1, -16384     ; -0.5 in Q15
  ldi r2, 16384
  mulq r3, r1, r2    ; -0.25
  halt
""")
    assert machine.registers[3] == (-8192) & 0xFFFF


def test_slt_and_slti():
    machine, _ = run_asm("""
  ldi r1, -5
  ldi r2, 3
  slt r3, r1, r2
  slt r4, r2, r1
  slti r5, r1, 0
  halt
""")
    assert machine.registers[3] == 1
    assert machine.registers[4] == 0
    assert machine.registers[5] == 1


def test_load_store_round_trip():
    machine, _ = run_asm("""
.reserve buf, 4
  ldi r1, 0x1234
  ldi r2, buf
  st  r1, r2, 2
  ld  r3, r2, 2
  halt
""")
    assert machine.registers[3] == 0x1234


def test_branches_signed_comparison():
    machine, _ = run_asm("""
  ldi r1, -1
  ldi r2, 1
  blt r1, r2, less
  ldi r3, 0
  halt
less:
  ldi r3, 77
  halt
""")
    assert machine.registers[3] == 77


def test_call_ret_and_stack():
    machine, _ = run_asm("""
  ldi r1, 5
  call double
  out 7, r1
  halt
double:
  add r1, r1, r1
  ret
""")
    assert machine.output_port.last == 10
    # SP restored after ret.
    assert machine.registers[15] == machine.config.data_space_words


def test_push_pop():
    machine, _ = run_asm("""
  ldi r1, 42
  push r1
  ldi r1, 0
  pop r2
  halt
""")
    assert machine.registers[2] == 42


def test_halt_stops_and_further_runs_noop():
    machine, first = run_asm("halt\n")
    assert first.halted
    second = machine.run(100)
    assert second.halted and second.cycles == 0


def test_cycle_budget_respected():
    machine = Machine(assemble("loop: addi r1, r1, 1\n  jmp loop\n"))
    slice_ = machine.run(50)
    assert 47 <= slice_.cycles <= 53  # whole instructions only


def test_ckpt_pauses_when_requested():
    machine = Machine(assemble("loop: ckpt\n  addi r1, r1, 1\n  jmp loop\n"))
    slice_ = machine.run(1000, stop_at_ckpt=True)
    assert slice_.hit_checkpoint
    assert slice_.instructions == 1


def test_ckpt_transparent_when_not_requested():
    machine = Machine(assemble("ckpt\nldi r1, 3\nhalt\n"))
    slice_ = machine.run(1000)
    assert slice_.halted
    assert machine.registers[1] == 3


def test_memory_out_of_range_raises():
    with pytest.raises(MachineError, match="out of range"):
        run_asm("ldi r1, 9999\nld r2, r1, 0\nhalt\n",
                config=MachineConfig(data_space_words=64))


def test_pc_out_of_range_raises():
    machine = Machine(assemble("nop\n"))
    with pytest.raises(MachineError, match="PC out of range"):
        machine.run(100)


def test_unmapped_port_raises():
    with pytest.raises(MachineError, match="no peripheral"):
        run_asm("in r1, 3\nhalt\n")


#: case -> (setup line, faulting line, error message).  Every program
#: first runs ``ldi r1, 7`` and ``st r1, r0, 2`` so registers and data
#: both hold state the fault must leave alone.  In the ``pc`` case the
#: setup jumps one past the last instruction.
ERROR_CASES = {
    "ld": ("ldi r2, 60", "ld r3, r2, 10", "data read out of range: 70 (pc=3)"),
    "st": ("ldi r2, 60", "st r1, r2, 4", "data write out of range: 64 (pc=3)"),
    "call": ("ldi r15, 0", "call 0", "data write out of range: 65535 (pc=3)"),
    "push": ("ldi r15, 0", "push r1", "data write out of range: 65535 (pc=3)"),
    "ret": ("nop", "ret", "data read out of range: 64 (pc=3)"),
    "pop": ("nop", "pop r3", "data read out of range: 64 (pc=3)"),
    "in": ("nop", "in r3, 3", "no peripheral at port 3"),
    "out": ("nop", "out 3, r1", "no peripheral at port 3"),
    "pc": ("jmp 3", None, "PC out of range: 3"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_fault_leaves_state_at_the_faulting_instruction(case):
    setup, fault, message = ERROR_CASES[case]
    retired = ["ldi r1, 7", "st r1, r0, 2", setup]
    source = "\n".join(retired + ([fault, "halt"] if fault else [])) + "\n"
    config = MachineConfig(data_space_words=64)
    retired_cost = sum(OPCODES[line.split()[0]].cycles for line in retired)
    # Reference: the same program stopped by its budget just before the fault.
    reference = Machine(assemble(source), config)
    assert reference.run(retired_cost).instructions == len(retired)

    machine = Machine(assemble(source), config)
    with pytest.raises(MachineError) as excinfo:
        machine.run(1000)
    assert str(excinfo.value) == message
    assert machine.pc == reference.pc == len(retired)
    assert machine.registers == reference.registers
    assert machine.data == reference.data
    assert machine.total_cycles == reference.total_cycles == retired_cost


def test_negative_pc_raises_before_fetch():
    machine = Machine(assemble("nop\nhalt\n"))
    machine.pc = -1
    assert machine.run(0).cycles == 0
    with pytest.raises(MachineError, match="PC out of range: -1"):
        machine.run(10)
    assert machine.pc == -1 and machine.total_cycles == 0


def test_negative_branch_target_rejected_at_decode():
    # The assembler never emits one; a hand-built image is caught before
    # the fetch could wrap around to the end of the program.
    image = ProgramImage([Instruction(OPCODES["jmp"], (-1,))], {}, 0, {})
    with pytest.raises(MachineError, match="instruction 0: branch target -1"):
        Machine(image)


def _ret_to(address):
    machine = Machine(assemble("ret\nhalt\n"), MachineConfig(data_space_words=64))
    machine.registers[15] = 10
    machine.data[10] = address
    return machine


def test_ret_to_corrupt_address_faults_at_next_fetch():
    ret_cost = OPCODES["ret"].cycles
    machine = _ret_to(-2)
    assert machine.run(ret_cost).instructions == 1  # budget ends with the ret
    assert machine.pc == -2
    with pytest.raises(MachineError, match="PC out of range: -2"):
        machine.run(10)
    machine = _ret_to(-2)
    with pytest.raises(MachineError, match="PC out of range: -2"):
        machine.run(10)
    assert machine.pc == -2 and machine.total_cycles == ret_cost


def test_data_image_loaded_at_boot():
    machine, _ = run_asm(".data x: 11, 22\n  ldi r1, x\n  ld r2, r1, 1\n  halt\n")
    assert machine.registers[2] == 22


def test_power_fail_wipes_sram_and_registers():
    machine, _ = run_asm(".data x: 5\n  ldi r1, x\n  ldi r2, 9\n  st r2, r1, 0\n  halt\n")
    machine.power_fail()
    assert all(r == 0 for r in machine.registers)
    assert machine.pc == 0
    assert machine.data[0] == 0  # SRAM gone


def test_power_fail_preserves_fram_data():
    config = MachineConfig(data_space_words=64, data_in_fram=True)
    machine, _ = run_asm(
        ".data x: 5\n  ldi r1, x\n  ldi r2, 9\n  st r2, r1, 0\n  halt\n",
        config=config,
    )
    machine.power_fail()
    assert machine.data[0] == 9  # FRAM survives


def test_cold_boot_reinitialises_data():
    machine, _ = run_asm(".data x: 5\n  ldi r1, x\n  ldi r2, 9\n  st r2, r1, 0\n  halt\n")
    machine.cold_boot()
    assert machine.data[0] == 5
    assert machine.registers[15] == machine.config.data_space_words


def test_snapshot_full_round_trip():
    source = """
.data count: 0
  ldi r2, count
loop:
  ld  r1, r2, 0
  addi r1, r1, 1
  st  r1, r2, 0
  ldi r3, 50
  blt r1, r3, loop
  out 7, r1
  halt
"""
    machine = Machine(assemble(source))
    machine.run(120)  # partway through
    state = machine.capture_full()
    machine.power_fail()
    machine.restore(state)
    machine.run(10**6)
    assert machine.output_port.last == 50


def test_register_snapshot_needs_matching_memory():
    machine = Machine(assemble("ldi r1, 1\nhalt\n"))
    state = machine.capture_registers()
    assert state.data is None
    assert state.words() == 17


def test_restore_rejects_size_mismatch():
    machine_a = Machine(assemble("halt\n"), MachineConfig(data_space_words=64))
    machine_b = Machine(assemble("halt\n"), MachineConfig(data_space_words=128))
    state = machine_a.capture_full()
    with pytest.raises(MachineError, match="mismatch"):
        machine_b.restore(state)


def test_fram_data_config_counts_fram_accesses():
    config = MachineConfig(data_space_words=64, data_in_fram=True)
    machine, slice_ = run_asm(
        ".reserve buf, 2\n  ldi r1, buf\n  st r1, r1, 0\n  ld r2, r1, 0\n  halt\n",
        config=config,
    )
    assert slice_.fram_writes >= 1
    assert slice_.sram_reads == 0


def test_sram_data_config_counts_sram_accesses():
    machine, slice_ = run_asm(
        ".reserve buf, 2\n  ldi r1, buf\n  st r1, r1, 0\n  ld r2, r1, 0\n  halt\n"
    )
    assert slice_.sram_writes >= 1
    assert slice_.sram_reads >= 1
    assert slice_.fram_writes == 0


def test_instruction_fetches_counted_as_fram_reads():
    machine, slice_ = run_asm("nop\nnop\nhalt\n")
    assert slice_.fram_reads == 3


def test_program_too_big_for_data_space_rejected():
    with pytest.raises(MachineError, match="data words"):
        Machine(assemble(".reserve big, 100\nhalt\n"),
                MachineConfig(data_space_words=64))
