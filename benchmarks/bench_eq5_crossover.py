"""Expression (5) — the Hibernus vs QuickRecall crossover frequency.

    f_crossover = (P_FRAM - P_SRAM) / (E_hibernus - E_quickrecall)

Below f_crossover, Hibernus wins: its rare-but-expensive full-RAM
snapshots cost less than QuickRecall's permanent FRAM execution penalty.
Above it, QuickRecall wins.  We sweep the supply interruption frequency
with a programmable-supply profile (as the ENSsys'15 evaluation did),
measure the energy each system needs to finish the same workload, and
compare the measured crossover with the analytic prediction.

The rows are the ``crossover-hibernus`` and ``crossover-quickrecall``
presets (:func:`~repro.spec.presets.crossover_spec`) run through
:func:`~repro.spec.runner.evaluate` — the same rows ``repro crossover``
and the service produce — on both kernels.  The supply is the preset's
trapezoid bench waveform between 3.2 V and 1.6 V, feeding the rail
through an ideal-diode rectifier, with a bleed resistor so the rail
follows each down-ramp through the thresholds.
"""

import pytest

from repro.analysis.crossover import find_crossover
from repro.analysis.report import format_table, print_section, relative_error
from repro.core.design import crossover_frequency
from repro.mcu.engine import SyntheticEngine
from repro.mcu.power_model import MSP430_FRAM_MODEL, MSP430_SRAM_MODEL
from repro.spec.presets import crossover_spec
from repro.spec.runner import evaluate

from conftest import KERNELS, once

FREQUENCIES = [2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0]


def run_sweep(kernel: str):
    """``(f, E hibernus, E quickrecall, hib snaps, qr snaps)`` per
    frequency: each strategy's energy to finish the workload."""
    series = {}
    for strategy in ("hibernus", "quickrecall"):
        base = crossover_spec(strategy).with_override("kernel", kernel)
        series[strategy], _ = evaluate(base, [
            (base.with_override("frequency", f), {"frequency": f},
             {"frequency": f})
            for f in FREQUENCIES
        ])
        for row in series[strategy]:
            assert row["completed"], (
                f"{strategy} never finished at {row['frequency']} Hz"
                f" ({row.error})"
            )
    return [
        (f, hib["energy_total"], qr["energy_total"], hib["snapshots"],
         qr["snapshots"])
        for f, hib, qr in zip(
            FREQUENCIES, series["hibernus"], series["quickrecall"]
        )
    ]


def analytic_crossover():
    """Eq. (5) computed from the platforms' own cost models."""
    sram_engine = SyntheticEngine(total_cycles=1)
    p_sram = MSP430_SRAM_MODEL.active_power(8e6, 3.0)
    p_fram = MSP430_FRAM_MODEL.active_power(8e6, 3.0)
    # Per-interruption NVM cost difference: snapshot + restore, full vs regs.
    full_words = sram_engine.full_state_words
    reg_words = sram_engine.register_state_words
    model = MSP430_SRAM_MODEL
    _, e_hib = model.snapshot_cost(full_words, 8e6, 3.0)
    _, e_hib_r = model.restore_cost(full_words, 8e6, 3.0)
    _, e_qr = model.snapshot_cost(reg_words, 8e6, 3.0)
    _, e_qr_r = model.restore_cost(reg_words, 8e6, 3.0)
    return crossover_frequency(p_fram, p_sram, e_hib + e_hib_r, e_qr + e_qr_r)


@pytest.mark.parametrize("kernel", KERNELS)
def test_eq5_crossover(benchmark, kernel):
    rows = once(benchmark, lambda: run_sweep(kernel))
    frequencies = [r[0] for r in rows]
    e_hib = [r[1] for r in rows]
    e_qr = [r[2] for r in rows]
    measured = find_crossover(frequencies, e_hib, e_qr)
    predicted = analytic_crossover()

    print_section(
        "Eq. (5): Hibernus vs QuickRecall energy to complete the workload",
        "\n".join(
            [
                format_table(
                    ["f_interrupt (Hz)", "E hibernus (mJ)", "E quickrecall (mJ)",
                     "hib snaps", "qr snaps"],
                    [
                        [f, eh * 1e3, eq * 1e3, hs, qs]
                        for f, eh, eq, hs, qs in rows
                    ],
                ),
                f"measured crossover: {measured:.1f} Hz, "
                f"analytic Eq. (5): {predicted:.1f} Hz "
                f"(relative error {relative_error(measured, predicted):.2f})",
            ]
        ),
    )

    # Who wins where: Hibernus at low interruption rates, QuickRecall at
    # high ones — the paper's Eq. (5) story.
    assert e_hib[0] < e_qr[0]
    assert e_hib[-1] > e_qr[-1]
    assert measured is not None
    # Shape, not absolute numbers: within a factor of ~2 of the analytic.
    assert relative_error(measured, predicted) < 1.0
    # Snapshot counts scale with interruption frequency for both.
    assert rows[-1][3] > rows[0][3]
    assert rows[-1][4] > rows[0][4]
