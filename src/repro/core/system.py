"""System composition: wire harvester, conditioning, storage and loads.

:class:`EnergyDrivenSystem` is the public build-and-run API the examples
use.  It assembles the Fig. 3 (energy-neutral) or Fig. 4 (power-neutral /
direct) architectures from parts, installs the standard probes, and runs
the simulation kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError, SpecError
from repro.harvest.base import PowerHarvester, VoltageHarvester
from repro.power.converter import ConversionStage
from repro.power.mppt import FractionalVocMPPT
from repro.power.rail import (
    HarvesterInjector,
    RailLoad,
    RectifiedInjector,
    SupplyRail,
)
from repro.power.rectifier import HalfWaveRectifier
from repro.sim.engine import Simulator
from repro.sim.probes import Trace
from repro.storage.base import StorageElement
from repro.transient.base import PlatformState, TransientPlatform


@dataclass
class SystemRunResult:
    """Traces plus component references from one run."""

    t_end: float
    traces: Dict[str, Trace]
    rail: SupplyRail
    platform: Optional[TransientPlatform]

    def vcc(self) -> Trace:
        """The rail voltage trace (the oscilloscope's V_cc channel)."""
        return self.traces["vcc"]


#: The standard probes: the only trace names a run can record.
STANDARD_PROBES = ("vcc", "state", "frequency")


def check_trace_names(names: Sequence[str]) -> None:
    """Raise :class:`SpecError` unless every name is a standard probe:
    a misspelled trace must fail the request, not every row."""
    unknown = [name for name in names if name not in STANDARD_PROBES]
    if unknown:
        raise SpecError(
            f"unknown trace name(s) {unknown}; recordable traces: "
            f"{list(STANDARD_PROBES)}"
        )


#: Numeric encoding of platform states for the 'state' probe.
STATE_CODES = {
    PlatformState.OFF: 0.0,
    PlatformState.SLEEP: 1.0,
    PlatformState.RESTORE: 2.0,
    PlatformState.SNAPSHOT: 3.0,
    PlatformState.ACTIVE: 4.0,
}


class EnergyDrivenSystem:
    """Builder/runner for a single-rail energy-driven system.

    Typical use::

        system = EnergyDrivenSystem(dt=50e-6)
        system.set_storage(Capacitor(22e-6, v_max=3.3))
        system.add_voltage_source(SignalGenerator(3.3, 4.7, rectified=True))
        system.set_platform(platform)
        result = system.run(1.0)

    ``kernel="fast"`` selects the chunked execution kernel (identical
    physics, macro-chunked between component-declared events through
    every platform state — see :mod:`repro.sim.kernel`); the default
    is the per-step reference kernel.
    """

    def __init__(self, dt: float, kernel: str = "reference"):
        self.simulator = Simulator(dt, kernel=kernel)
        self.rail: Optional[SupplyRail] = None
        self.platform: Optional[TransientPlatform] = None
        self._probes_installed = False

    # -- construction ------------------------------------------------------

    def set_storage(self, storage: StorageElement) -> SupplyRail:
        """Create the supply rail around ``storage``."""
        if self.rail is not None:
            raise ConfigurationError("storage already set")
        self.rail = SupplyRail(storage)
        self.simulator.add(self.rail)
        return self.rail

    def _require_rail(self) -> SupplyRail:
        if self.rail is None:
            raise ConfigurationError("call set_storage() first")
        return self.rail

    def add_power_source(
        self,
        harvester: PowerHarvester,
        converter: Optional[ConversionStage] = None,
        mppt: Optional[FractionalVocMPPT] = None,
    ) -> None:
        """Attach a power-domain harvester (Fig. 3 style front end)."""
        self._require_rail().attach_injector(
            HarvesterInjector(harvester, converter=converter, mppt=mppt)
        )

    def add_voltage_source(
        self,
        harvester: VoltageHarvester,
        rectifier: Optional[HalfWaveRectifier] = None,
    ) -> None:
        """Attach a voltage-domain harvester through a rectifier (Fig. 4)."""
        self._require_rail().attach_injector(RectifiedInjector(harvester, rectifier))

    def set_platform(self, platform: TransientPlatform) -> None:
        """Attach the MCU platform as the rail's load."""
        if self.platform is not None:
            raise ConfigurationError("platform already set")
        self.platform = platform
        self._require_rail().attach_load(platform)

    def add_load(self, load: RailLoad) -> None:
        """Attach an additional (non-platform) load."""
        self._require_rail().attach_load(load)

    # -- probes / running ----------------------------------------------------

    def install_probes(
        self, decimate: int = 1, names: Sequence[str] = STANDARD_PROBES
    ) -> None:
        """Install the standard probes named in ``names`` (state and
        frequency need a platform).  The first call fixes the set, so
        calling it before :meth:`run` records fewer, or none.

        All three are chunk-capable: vcc reads the rail's per-chunk
        voltage record, and state/frequency are constant across a chunk
        by construction (chunks never span a platform state transition),
        so the fast kernel can bulk-sample them.
        """
        check_trace_names(names)
        if self._probes_installed:
            return
        self._probes_installed = True
        rail = self._require_rail()
        probes = {
            "vcc": (lambda: rail.voltage,
                    lambda k: rail.last_chunk_voltages()),
        }
        if self.platform is not None:
            platform = self.platform

            def state_code() -> float:
                return STATE_CODES[platform.state]

            def frequency() -> float:
                return (
                    platform.clock.frequency
                    if platform.state is PlatformState.ACTIVE
                    else 0.0
                )

            # Constant across a chunk: the 0-d form fills the chunk's
            # samples with the one value.
            probes["state"] = (state_code, lambda k: state_code())
            probes["frequency"] = (frequency, lambda k: frequency())
        for name in STANDARD_PROBES:
            if name in names and name in probes:
                fn, chunk_fn = probes[name]
                self.simulator.probe(
                    name, fn, decimate=decimate, chunk_fn=chunk_fn
                )

    def probe(self, name: str, fn, decimate: int = 1, chunk_fn=None) -> None:
        """Install a custom probe.

        Custom probes without a ``chunk_fn`` disable chunking under the
        fast kernel (their values must be observed every step); pass one
        returning per-step values for a k-step chunk, or one 0-d value
        when the signal is constant over the chunk, to keep it engaged.
        """
        self.simulator.probe(name, fn, decimate=decimate, chunk_fn=chunk_fn)

    def stop_when(self, condition, chunk_safe: bool = False) -> None:
        """Stop a run as soon as ``condition(t)`` returns True.

        ``chunk_safe=True`` asserts the condition can only become true
        during per-step execution, letting the fast kernel keep chunking
        (see :meth:`repro.sim.engine.Simulator.stop_when`).
        """
        self.simulator.stop_when(condition, chunk_safe=chunk_safe)

    def run(self, duration: float, decimate: int = 1) -> SystemRunResult:
        """Run for ``duration`` seconds, recording all three standard
        probes unless :meth:`install_probes` already ran.

        ``decimate`` is the probes' sampling period and that of the
        rail's V_cc envelope (:class:`~repro.power.rail.RailStats`).
        """
        if decimate < 1:
            raise ConfigurationError(f"decimate must be >= 1, got {decimate}")
        self.install_probes(decimate=decimate)
        self._require_rail().stats.vcc_every = decimate
        result = self.simulator.run(duration)
        return SystemRunResult(
            t_end=result.t_end,
            traces=result.traces,
            rail=self._require_rail(),
            platform=self.platform,
        )

    def reset(self) -> None:
        """Reset the simulator and all components for a fresh run."""
        self.simulator.reset()
