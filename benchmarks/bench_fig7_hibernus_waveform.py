"""Fig. 7 — Hibernus executing an FFT across an intermittent supply.

The paper's waveform: a system runs directly from a half-wave rectified
sine.  Each cycle, V_cc charges, the system computes, V_cc sags through
V_H (snapshot + hibernate), then recovers through V_R (restore).  "During
the third cycle, an FFT that began at the beginning of execution is
completed."

The bench runs the ``fig7`` preset (:func:`~repro.spec.presets.fig7_spec`,
the scenario ``repro fig7`` and the service run) on both kernels,
reproduces the full waveform and checks:

* exactly one snapshot per supply dip (no redundant snapshots),
* restores happen on upward V_R crossings,
* the FFT completes during the third supply cycle,
* the result is bit-identical to an uninterrupted run.
"""

import dataclasses

import pytest

from repro.analysis.report import format_table, print_section
from repro.mcu.programs import fft_golden
from repro.sim import waveform
from repro.spec import HarvesterSpec
from repro.spec.presets import fig7_spec

from conftest import KERNELS, once

SUPPLY_HZ = 4.7
FFT_SIZE = 512


def run_fig7(kernel: str):
    spec = fig7_spec(fft_size=FFT_SIZE, supply_hz=SUPPLY_HZ)
    result = spec.with_override("kernel", kernel).run()
    return result.platform, result.platform.strategy, result


def dc_control_spec():
    """The Fig. 7 scenario on a bench DC supply instead of the rectified
    sine."""
    return dataclasses.replace(
        fig7_spec(fft_size=FFT_SIZE, duration=0.5),
        name=f"fig7-fft{FFT_SIZE}-dc",
        harvesters=(
            HarvesterSpec(
                "signal-generator",
                {"amplitude": 3.3, "frequency": 0.0, "source_resistance": 50.0},
            ),
        ),
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_fig7_hibernus_fft_waveform(benchmark, kernel):
    platform, strategy, result = once(benchmark, lambda: run_fig7(kernel))
    metrics = platform.metrics
    vcc = result.vcc()

    completion = metrics.first_completion_time
    completion_cycle = int(completion * SUPPLY_HZ) + 1
    hibernate_crossings = waveform.falling_crossings(vcc, strategy.v_hibernate)
    # Restore events appear as transitions into the RESTORE state (code 2);
    # the rail voltage itself is pulled back under V_R by the restore DMA
    # within the same timestep, so a V_R crossing never gets sampled.
    state = result.traces["state"]
    restore_entries = [
        float(state.times[i])
        for i in range(1, len(state))
        if state.values[i] == 2.0 and state.values[i - 1] != 2.0
    ]

    print_section(
        f"Fig. 7: hibernus running FFT-{FFT_SIZE} from a "
        f"{SUPPLY_HZ} Hz half-wave rectified supply",
        format_table(
            ["quantity", "value"],
            [
                ["V_H (Eq. 4)", f"{strategy.v_hibernate:.2f} V"],
                ["V_R", f"{strategy.v_restore:.2f} V"],
                ["snapshots", metrics.snapshots_completed],
                ["restores", metrics.restores_completed],
                ["snapshot aborts", metrics.snapshots_aborted],
                ["FFT completed at", f"{completion:.3f} s"],
                ["supply cycle of completion", completion_cycle],
                ["V_cc range", f"{vcc.minimum():.2f} .. {vcc.maximum():.2f} V"],
            ],
        ),
    )

    # The paper's waveform, point by point:
    assert completion is not None
    assert completion_cycle == 3, "FFT must complete during the third cycle"
    assert metrics.snapshots_completed == 2, "one snapshot per dip before completion"
    assert metrics.restores_completed == 2
    assert metrics.snapshots_aborted == 0
    # One V_H crossing per pre-completion dip (the 'single snapshot per
    # supply failure' property).
    pre = [t for t in hibernate_crossings if t < completion]
    assert len(pre) >= metrics.snapshots_completed
    # Restores happen on supply recovery, before the completion.
    assert len([t for t in restore_entries if t < completion]) >= 2
    # Bit-exact result across the interruptions.
    assert platform.engine.machine.output_port.last == fft_golden(FFT_SIZE)[2]


@pytest.mark.parametrize("kernel", KERNELS)
def test_fig7_uninterrupted_reference(benchmark, kernel):
    """Control: the same FFT with a solid supply completes in the first
    cycle with no snapshots — the overhead is intermittency-driven."""

    def run():
        return dc_control_spec().with_override("kernel", kernel).run().platform

    platform = once(benchmark, run)
    assert platform.metrics.first_completion_time is not None
    assert platform.metrics.snapshots_completed == 0
    assert platform.engine.machine.output_port.last == fft_golden(FFT_SIZE)[2]
