"""Program library vs golden models: the bit-exactness contract."""

import pytest

from repro.errors import ConfigurationError
from repro.mcu.assembler import assemble
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.peripherals import ADCPeripheral, Radio, SensorPeripheral
from repro.mcu.programs import (
    counter_program,
    crc_golden,
    crc_program,
    fft_golden,
    fft_input_samples,
    fft_program,
    fir_golden,
    fir_program,
    matmul_golden,
    matmul_program,
    sense_program,
    sieve_golden,
    sieve_program,
)


def run_to_halt(source, config=None, peripherals=None, budget=5_000_000):
    machine = Machine(assemble(source), config)
    for port, p in (peripherals or {}).items():
        machine.attach_peripheral(port, p)
    slice_ = machine.run(budget)
    assert slice_.halted, "program did not finish"
    return machine


@pytest.mark.parametrize("n", [16, 64, 128])
def test_fft_checksum_matches_golden(n):
    machine = run_to_halt(fft_program(n))
    _, _, checksum = fft_golden(n)
    assert machine.output_port.last == checksum


def test_fft_memory_matches_golden_exactly():
    n = 32
    machine = run_to_halt(fft_program(n))
    re, im, _ = fft_golden(n)
    base_re = machine.image.symbols["re_arr"]
    base_im = machine.image.symbols["im_arr"]
    assert machine.data[base_re : base_re + n].tolist() == re
    assert machine.data[base_im : base_im + n].tolist() == im


def test_fft_rejects_non_power_of_two():
    with pytest.raises(ConfigurationError):
        fft_program(48)
    with pytest.raises(ConfigurationError):
        fft_golden(2)


def test_fft_input_samples_are_words():
    for value in fft_input_samples(64):
        assert 0 <= value <= 0xFFFF


@pytest.mark.parametrize("length", [16, 64])
def test_crc_matches_golden(length):
    machine = run_to_halt(crc_program(length))
    assert machine.output_port.last == crc_golden(length)


def test_crc_message_deterministic():
    from repro.mcu.programs.crc import crc_message

    assert crc_message(10) == crc_message(10)
    with pytest.raises(ConfigurationError):
        crc_message(0)


@pytest.mark.parametrize("n", [4, 8])
def test_matmul_matches_golden(n):
    machine = run_to_halt(matmul_program(n))
    c, checksum = matmul_golden(n)
    assert machine.output_port.last == checksum
    base = machine.image.symbols["mat_c"]
    assert machine.data[base : base + n * n].tolist() == c


def test_matmul_size_validation():
    with pytest.raises(ConfigurationError):
        matmul_program(1)
    with pytest.raises(ConfigurationError):
        matmul_program(99)


@pytest.mark.parametrize("limit", [50, 400])
def test_sieve_matches_golden(limit):
    machine = run_to_halt(sieve_program(limit))
    assert machine.output_port.last == sieve_golden(limit)


def test_sieve_known_prime_counts():
    assert sieve_golden(10) == 4      # 2, 3, 5, 7
    assert sieve_golden(100) == 25
    with pytest.raises(ConfigurationError):
        sieve_program(2)


def test_fir_matches_golden_with_shared_adc_stream():
    machine = run_to_halt(
        fir_program(48), peripherals={0: ADCPeripheral()}
    )
    _, checksum = fir_golden(48)
    assert machine.output_port.last == checksum


def test_fir_validation():
    with pytest.raises(ConfigurationError):
        fir_program(4)


def test_sense_produces_expected_packets():
    radio = Radio()
    machine = run_to_halt(
        sense_program(32),
        peripherals={1: SensorPeripheral(), 2: radio},
    )
    assert machine.output_port.last == 32
    assert len(radio.packets) == 4          # one packet per 8 samples
    assert all(len(p) == 8 for p in radio.packets)
    assert radio.energy_spent > 0.0


def test_sense_validation():
    with pytest.raises(ConfigurationError):
        sense_program(12)  # not a multiple of 8


def test_counter_counts_to_target():
    machine = run_to_halt(counter_program(321))
    assert machine.output_port.last == 321


def test_counter_validation():
    with pytest.raises(ConfigurationError):
        counter_program(0)
    with pytest.raises(ConfigurationError):
        counter_program(40000)


def test_programs_survive_snapshot_mid_run():
    """Full snapshot/restore mid-FFT preserves bit-exactness."""
    n = 64
    machine = Machine(assemble(fft_program(n)))
    machine.run(5000)
    state = machine.capture_full()
    machine.power_fail()
    machine.restore(state)
    machine.run(10**7)
    assert machine.output_port.last == fft_golden(n)[2]
