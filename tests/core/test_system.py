"""Tests for the EnergyDrivenSystem composition API."""

import pytest

from repro.core.system import EnergyDrivenSystem
from repro.errors import ConfigurationError
from repro.harvest.base import ConstantPowerHarvester
from repro.harvest.synthetic import SignalGenerator
from repro.mcu.engine import SyntheticEngine
from repro.power.rail import ResistiveLoad
from repro.storage.capacitor import Capacitor
from repro.transient.base import NullStrategy, TransientPlatform


def make_platform():
    return TransientPlatform(SyntheticEngine(total_cycles=50_000), NullStrategy())


def test_requires_storage_first():
    system = EnergyDrivenSystem(dt=1e-3)
    with pytest.raises(ConfigurationError, match="set_storage"):
        system.add_power_source(ConstantPowerHarvester(1e-3))
    with pytest.raises(ConfigurationError, match="set_storage"):
        system.set_platform(make_platform())


def test_storage_only_set_once():
    system = EnergyDrivenSystem(dt=1e-3)
    system.set_storage(Capacitor(10e-6))
    with pytest.raises(ConfigurationError, match="already set"):
        system.set_storage(Capacitor(10e-6))


def test_platform_only_set_once():
    system = EnergyDrivenSystem(dt=1e-3)
    system.set_storage(Capacitor(10e-6))
    system.set_platform(make_platform())
    with pytest.raises(ConfigurationError, match="already set"):
        system.set_platform(make_platform())


def test_run_produces_standard_traces():
    system = EnergyDrivenSystem(dt=1e-3)
    system.set_storage(Capacitor(22e-6, v_max=3.3))
    system.add_power_source(ConstantPowerHarvester(5e-3))
    system.set_platform(make_platform())
    result = system.run(0.2)
    assert "vcc" in result.traces
    assert "state" in result.traces
    assert "frequency" in result.traces
    assert result.vcc().maximum() > 2.0
    assert result.platform.metrics.cycles_executed > 0


def test_voltage_source_system_runs():
    system = EnergyDrivenSystem(dt=1e-3)
    system.set_storage(Capacitor(22e-6, v_max=3.3))
    system.add_voltage_source(SignalGenerator(3.3, 0.0, source_resistance=100.0))
    result = system.run(0.2)
    assert result.vcc().maximum() > 2.5


def test_extra_loads_attach():
    system = EnergyDrivenSystem(dt=1e-3)
    system.set_storage(Capacitor(22e-6, v_initial=3.0))
    system.add_load(ResistiveLoad(1e4))
    result = system.run(0.1)
    assert result.rail.stats.consumed > 0.0


def test_custom_probe():
    system = EnergyDrivenSystem(dt=1e-3)
    system.set_storage(Capacitor(10e-6, v_initial=2.0))
    system.probe("double_v", lambda: 2.0 * system.rail.voltage)
    result = system.run(0.05)
    assert abs(result.traces["double_v"].values[0] - 4.0) < 0.1


def test_system_without_platform_has_no_state_trace():
    system = EnergyDrivenSystem(dt=1e-3)
    system.set_storage(Capacitor(10e-6, v_initial=1.0))
    result = system.run(0.05)
    assert "vcc" in result.traces
    assert "state" not in result.traces
    assert result.platform is None


def test_reset_allows_second_run():
    system = EnergyDrivenSystem(dt=1e-3)
    system.set_storage(Capacitor(22e-6))
    system.add_power_source(ConstantPowerHarvester(5e-3))
    system.set_platform(make_platform())
    first = system.run(0.1)
    system.reset()
    second = system.run(0.1)
    assert abs(len(first.vcc()) - len(second.vcc())) <= 1


@pytest.mark.parametrize("kernel", ["reference", "fast"])
def test_a_finished_fig7_run_is_freed_by_reference_counting(kernel):
    """A built and run Fig. 7 system holds no reference cycle: dropping
    it frees its machine at once, with the cyclic collector off, and
    leaves the collector nothing."""
    import gc
    import weakref

    from repro.spec.presets import preset

    spec = preset("fig7", fft_size=64).with_override("kernel", kernel)
    spec.build().run(0.2)  # library and program caches warm
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        system = spec.build()
        system.run(spec.duration)
        machine = weakref.ref(system.platform.engine.machine)
        del system
        assert machine() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
