"""Tests for the recursive quicksort program and the disassembler."""

import pytest

from repro.errors import ConfigurationError
from repro.mcu.assembler import assemble
from repro.mcu.disassembler import disassemble, disassemble_window, format_instruction
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.programs.sort import sort_golden, sort_input, sort_program


def run_sort(length):
    machine = Machine(
        assemble(sort_program(length)), MachineConfig(data_space_words=1024)
    )
    slice_ = machine.run(10**8)
    assert slice_.halted
    return machine


@pytest.mark.parametrize("length", [8, 64, 128])
def test_quicksort_sorts_and_matches_golden(length):
    machine = run_sort(length)
    sorted_vals, checksum = sort_golden(length)
    base = machine.image.symbols["arr"]
    assert machine.data[base : base + length].tolist() == sorted_vals
    assert machine.output_port.last == checksum


def test_quicksort_uses_the_stack():
    """Recursion genuinely pushes frames: SP dips well below the top."""
    machine = Machine(
        assemble(sort_program(64)), MachineConfig(data_space_words=1024)
    )
    top = machine.registers[15]
    min_sp = top
    while not machine.halted:
        machine.run(200)
        min_sp = min(min_sp, machine.registers[15])
    assert min_sp < top - 8  # at least a few nested frames


def test_sort_snapshot_mid_recursion_round_trips():
    """A snapshot taken mid-recursion (stack live in SRAM) restores and
    completes correctly — the hardest state-preservation case."""
    machine = Machine(
        assemble(sort_program(64)), MachineConfig(data_space_words=1024)
    )
    machine.run(2500)  # deep inside the recursion
    state = machine.capture_full()
    machine.power_fail()
    machine.restore(state)
    machine.run(10**8)
    assert machine.output_port.last == sort_golden(64)[1]


def test_sort_input_deterministic_and_validated():
    assert sort_input(16) == sort_input(16)
    with pytest.raises(ConfigurationError):
        sort_program(2)
    with pytest.raises(ConfigurationError):
        sort_program(4096)


def test_disassemble_round_trips_through_assembler():
    """Disassembler output (minus comments) reassembles to the same
    instruction stream when labels resolve identically."""
    image = assemble(sort_program(16))
    text = disassemble(image)
    assert "qsort:" in text
    assert "call qsort" in text
    assert "; data:" in text


def test_disassemble_lists_every_instruction():
    image = assemble("start:\n ldi r1, 5\n jmp start\n halt\n")
    listing = disassemble(image)
    assert "ldi r1, 5" in listing
    assert "jmp start" in listing
    assert "halt" in listing


def test_disassemble_window_marks_pc():
    image = assemble("nop\nnop\nnop\nnop\nnop\nhalt\n")
    window = disassemble_window(image, pc=2, radius=1)
    lines = window.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("->")


def test_format_instruction_operand_styles():
    image = assemble(".data x: 1\n loop: ld r1, r2, 0\n beq r1, r0, loop\n out 7, r1\n halt\n")
    labels = {0: "loop"}
    texts = [format_instruction(ins, labels) for ins in image.instructions]
    assert texts[0] == "ld r1, r2, 0"
    assert "loop" in texts[1]
    assert texts[2] == "out 7, r1"
    assert texts[3] == "halt"
