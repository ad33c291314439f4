"""Named scenario presets: the paper's figure scenarios as specs.

These are the declarative equivalents of the hand-wired scenarios the CLI
and examples used to build imperatively.  ``python -m repro.cli spec
fig7`` dumps one as JSON; edit it and feed it back with ``run``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.errors import SpecError
from repro.spec.specs import (
    HarvesterSpec,
    LoadSpec,
    PlatformSpec,
    ScenarioSpec,
    StorageSpec,
)


def fig7_spec(
    fft_size: int = 512,
    supply_hz: float = 4.7,
    duration: float = 1.2,
    capacitance: float = 22e-6,
    source_resistance: float = 1500.0,
) -> ScenarioSpec:
    """Fig. 7: Hibernus computing an FFT from a half-wave rectified supply."""
    return ScenarioSpec(
        name=f"fig7-fft{fft_size}",
        dt=50e-6,
        duration=duration,
        storage=StorageSpec(
            "capacitor", {"capacitance": capacitance, "v_max": 3.3}
        ),
        harvesters=(
            HarvesterSpec(
                "signal-generator",
                {
                    "amplitude": 4.5,
                    "frequency": supply_hz,
                    "rectified": True,
                    "source_resistance": source_resistance,
                },
            ),
        ),
        platform=PlatformSpec(
            strategy="hibernus",
            program="fft",
            program_params={"n": fft_size},
            machine_params={"data_space_words": max(2048, 4 * fft_size)},
        ),
    )


def quickstart_spec() -> ScenarioSpec:
    """The README/Fig. 6 quickstart: fig7 with the bench-supply impedance."""
    return dataclasses.replace(
        fig7_spec(duration=1.0, source_resistance=1200.0), name="quickstart"
    )


def crossover_spec(
    strategy: str = "hibernus",
    frequency: float = 10.0,
    total_cycles: int = 4_000_000,
    duration: float = 30.0,
) -> ScenarioSpec:
    """One Eq. (5) crossover point: energy to finish a fixed workload.

    The supply is the Eq. 5 bench waveform — a trapezoid between 3.2 V
    and 1.6 V at the given interruption ``frequency`` — feeding the rail
    through an ideal-diode rectifier; a bleed resistor makes the rail
    genuinely follow the down-ramp.  ``stop_on_completion`` ends each run
    as soon as the workload finishes.
    """
    if strategy == "hibernus":
        strategy_params = {"v_hibernate": 2.8, "v_restore": 3.0}
        power_model = "msp430-sram"
    elif strategy == "quickrecall":
        strategy_params = {"v_hibernate": 2.1, "v_restore": 3.0}
        power_model = "msp430-fram"
    else:
        raise SpecError(
            f"crossover preset knows 'hibernus' and 'quickrecall', "
            f"not {strategy!r}"
        )
    return ScenarioSpec(
        name=f"crossover-{strategy}",
        dt=1e-4,
        duration=duration,
        stop_on_completion=True,
        storage=StorageSpec("capacitor", {"capacitance": 22e-6, "v_max": 3.3}),
        harvesters=(
            HarvesterSpec(
                "trapezoid-supply",
                {"frequency": frequency, "source_resistance": 10.0},
                rectifier="half-wave",
                rectifier_params={"forward_drop": 0.0, "on_resistance": 0.1},
            ),
        ),
        loads=(LoadSpec("resistive", {"resistance": 560.0}),),
        platform=PlatformSpec(
            strategy=strategy,
            strategy_params=strategy_params,
            engine="synthetic",
            engine_params={"total_cycles": total_cycles},
            power_model=power_model,
        ),
    )


_PRESETS: Dict[str, Callable[..., ScenarioSpec]] = {
    "fig7": fig7_spec,
    "quickstart": quickstart_spec,
    "crossover-hibernus": lambda **kw: crossover_spec("hibernus", **kw),
    "crossover-quickrecall": lambda **kw: crossover_spec("quickrecall", **kw),
}


def preset_names() -> List[str]:
    """The available preset names."""
    return sorted(_PRESETS)


def preset(name: str, **kwargs) -> ScenarioSpec:
    """Build a named preset scenario.

    Raises:
        SpecError: for unknown names, listing the valid ones.
    """
    factory = _PRESETS.get(name)
    if factory is None:
        raise SpecError(
            f"unknown preset {name!r}; available presets: {preset_names()}"
        )
    return factory(**kwargs)
