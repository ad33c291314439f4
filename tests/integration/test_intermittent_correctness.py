"""Cross-module correctness: real programs, real strategies, real outages.

The contract under test is the whole point of transient computing: a
program executed across supply interruptions must produce *bit-identical*
results to an uninterrupted run.
"""

import pytest

from repro.core.system import EnergyDrivenSystem
from repro.harvest.synthetic import SquareWavePowerHarvester
from repro.mcu.assembler import assemble
from repro.mcu.clock import ClockPlan, OperatingPoint
from repro.mcu.engine import MachineEngine
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.power_model import MSP430_FRAM_MODEL, MSP430_SRAM_MODEL
from repro.mcu.programs import (
    crc_golden,
    crc_program,
    fft_golden,
    fft_program,
    matmul_golden,
    matmul_program,
    sieve_golden,
    sieve_program,
)
from repro.power.rail import ResistiveLoad
from repro.storage.capacitor import Capacitor
from repro.transient.base import TransientPlatform, TransientPlatformConfig
from repro.transient.hibernus import Hibernus
from repro.transient.hibernus_pp import HibernusPP
from repro.transient.mementos import Mementos
from repro.transient.nvp import NVProcessor
from repro.transient.quickrecall import QuickRecall


def run_program_intermittently(
    source, strategy, data_in_fram=False, duration=4.0, data_words=2048
):
    """Run a program on a 100 kHz core under a harsh intermittent supply.

    The slow core clock makes every workload span several supply cycles
    (so checkpointing genuinely matters), while snapshot DMA still runs at
    the 8 MHz snapshot clock.
    """
    machine = Machine(
        assemble(source),
        MachineConfig(data_space_words=data_words, data_in_fram=data_in_fram),
    )
    model = MSP430_FRAM_MODEL if data_in_fram else MSP430_SRAM_MODEL
    engine = MachineEngine(machine, power_model=model)
    platform = TransientPlatform(
        engine,
        strategy,
        power_model=model,
        clock=ClockPlan([OperatingPoint(1e5, 3.0)]),
        config=TransientPlatformConfig(rail_capacitance=22e-6),
    )
    system = EnergyDrivenSystem(dt=1e-4)
    system.set_storage(Capacitor(22e-6, v_max=3.3))
    system.add_power_source(SquareWavePowerHarvester(20e-3, period=0.1, duty=0.25))
    system.set_platform(platform)
    system.add_load(ResistiveLoad(6000.0))
    system.run(duration)
    return platform, machine


@pytest.mark.parametrize(
    "strategy_factory",
    [Hibernus, HibernusPP, NVProcessor],
    ids=["hibernus", "hibernus++", "nvp"],
)
def test_crc_bit_exact_across_outages(strategy_factory):
    platform, machine = run_program_intermittently(
        crc_program(256), strategy_factory()
    )
    assert platform.metrics.first_completion_time is not None
    assert machine.output_port.last == crc_golden(256)
    # The run really was interrupted (supply dips drove checkpoints or
    # brownouts) — otherwise this test proves nothing.
    assert platform.metrics.snapshots_completed + platform.metrics.brownouts >= 1


def test_crc_bit_exact_quickrecall_unified_fram():
    platform, machine = run_program_intermittently(
        crc_program(256), QuickRecall(), data_in_fram=True
    )
    assert platform.metrics.first_completion_time is not None
    assert machine.output_port.last == crc_golden(256)


def test_crc_bit_exact_mementos():
    platform, machine = run_program_intermittently(crc_program(256), Mementos())
    assert platform.metrics.first_completion_time is not None
    assert machine.output_port.last == crc_golden(256)


def test_fft_bit_exact_across_outages():
    platform, machine = run_program_intermittently(fft_program(64), Hibernus())
    assert platform.metrics.first_completion_time is not None
    assert machine.output_port.last == fft_golden(64)[2]


def test_matmul_memory_exact_across_outages():
    platform, machine = run_program_intermittently(matmul_program(8), Hibernus())
    c, checksum = matmul_golden(8)
    assert machine.output_port.last == checksum
    base = machine.image.symbols["mat_c"]
    assert machine.data[base : base + 64].tolist() == c


def test_sieve_exact_across_outages():
    platform, machine = run_program_intermittently(sieve_program(400), Hibernus())
    assert machine.output_port.last == sieve_golden(400)


def test_null_strategy_cannot_finish_what_it_restarts():
    """The baseline control: without checkpointing, a workload longer than
    one powered interval never completes."""
    from repro.transient.base import NullStrategy

    platform, machine = run_program_intermittently(
        crc_program(256), NullStrategy(), duration=3.0
    )
    assert platform.metrics.first_completion_time is None
    assert platform.metrics.brownouts >= 1
