"""Spec validation, dict/JSON round-trips, and build equivalence."""

import numpy as np
import pytest

from repro.core.system import EnergyDrivenSystem
from repro.errors import SpecError
from repro.harvest.synthetic import SquareWavePowerHarvester
from repro.mcu.assembler import assemble
from repro.mcu.engine import MachineEngine
from repro.mcu.machine import Machine, MachineConfig
from repro.mcu.programs import fft_program
from repro.power.rail import ResistiveLoad
from repro.spec import (
    HarvesterSpec,
    LoadSpec,
    PlatformSpec,
    ScenarioSpec,
    StorageSpec,
)
from repro.spec.presets import crossover_spec, fig7_spec, preset, preset_names
from repro.storage.capacitor import Capacitor
from repro.transient.base import TransientPlatform, TransientPlatformConfig
from repro.transient.hibernus import Hibernus


def small_fig7(duration=0.6):
    return fig7_spec(fft_size=64, duration=duration)


# -- validation ---------------------------------------------------------


def test_unknown_storage_kind_fails_eagerly():
    with pytest.raises(SpecError) as excinfo:
        StorageSpec("flux-capacitor")
    assert "capacitor" in str(excinfo.value)


def test_misspelled_harvester_param_fails_eagerly():
    with pytest.raises(SpecError) as excinfo:
        HarvesterSpec("signal-generator", {"amplitud": 3.3})
    assert "amplitud" in str(excinfo.value)
    assert "amplitude" in str(excinfo.value)


def test_rectifier_and_converter_mutually_exclusive():
    with pytest.raises(SpecError):
        HarvesterSpec("signal-generator", rectifier="half-wave",
                      converter="boost")


def test_converter_on_voltage_harvester_rejected_at_build():
    spec = ScenarioSpec(
        harvesters=(HarvesterSpec("signal-generator",
                                  {"amplitude": 3.3, "frequency": 4.7},
                                  converter="boost"),),
    )
    with pytest.raises(SpecError) as excinfo:
        spec.build()
    assert "voltage-domain" in str(excinfo.value)


def test_empty_platform_section_rejected():
    with pytest.raises(SpecError) as excinfo:
        ScenarioSpec.from_dict({"storage": {"kind": "capacitor"},
                                "platform": {}})
    assert "strategy" in str(excinfo.value)


def test_machine_engine_needs_program():
    with pytest.raises(SpecError):
        PlatformSpec(strategy="hibernus")


def test_synthetic_engine_needs_total_cycles():
    with pytest.raises(SpecError):
        PlatformSpec(strategy="hibernus", engine="synthetic")


def test_machine_engine_params_validated_eagerly():
    with pytest.raises(SpecError) as excinfo:
        PlatformSpec(strategy="hibernus", program="fft",
                     engine_params={"include_peripheral": True})
    assert "include_peripheral" in str(excinfo.value)
    # power_model is supplied by build() itself, never via engine_params.
    with pytest.raises(SpecError):
        PlatformSpec(strategy="hibernus", program="fft",
                     engine_params={"power_model": "msp430-sram"})
    # The legitimate MachineEngine keywords still pass.
    PlatformSpec(strategy="hibernus", program="fft",
                 engine_params={"include_peripherals": True})


@pytest.mark.parametrize("program, port", [("fir", 0), ("sense", 1)])
def test_a_program_reading_an_unattached_port_is_refused(program, port):
    # build() attaches only the output port, so every run would fail at
    # the first `in` with "no peripheral at port N", into a stored row.
    payload = fig7_spec().to_dict()
    payload["platform"].update(program=program, program_params={})
    with pytest.raises(SpecError, match=f"port {port}"):
        ScenarioSpec.from_dict(payload)


def test_a_program_parameter_its_generator_rejects_is_refused():
    # The FFT generator takes power-of-two sizes only: an `n` of 100
    # would otherwise validate and fail every point's build() into a
    # stored error row.
    with pytest.raises(SpecError, match="program 'fft' rejects parameters"):
        fig7_spec().with_overrides({"n": 100})
    assert fig7_spec().with_overrides({"n": 128}).platform.program_params \
        == {"n": 128}


def test_unknown_config_key_rejected():
    with pytest.raises(SpecError) as excinfo:
        PlatformSpec(strategy="null", engine="synthetic",
                     engine_params={"total_cycles": 1000},
                     config={"v_minimum": 1.8})
    assert "v_min" in str(excinfo.value)


def test_scenario_scalar_validation():
    with pytest.raises(SpecError):
        ScenarioSpec(dt=0.0)
    with pytest.raises(SpecError):
        ScenarioSpec(duration=-1.0)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(SpecError) as excinfo:
        ScenarioSpec.from_dict({"storage": {"kind": "capacitor"},
                                "harvseters": []})
    assert "harvseters" in str(excinfo.value)


# -- round-trips --------------------------------------------------------


def test_dict_round_trip_identity():
    spec = small_fig7()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_json_round_trip_identity():
    spec = crossover_spec("quickrecall", frequency=40.0)
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_file_round_trip(tmp_path):
    spec = small_fig7()
    path = tmp_path / "scenario.json"
    spec.save(path)
    assert ScenarioSpec.load(path) == spec


def test_invalid_json_is_a_spec_error():
    with pytest.raises(SpecError):
        ScenarioSpec.from_json("{not json")
    with pytest.raises(SpecError):
        ScenarioSpec.from_json("[1, 2]")


def test_all_presets_round_trip():
    for name in preset_names():
        spec = preset(name)
        assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_clock_voltage_round_trips_without_clock_frequency():
    import dataclasses

    spec = small_fig7()
    spec = dataclasses.replace(
        spec, platform=dataclasses.replace(spec.platform, clock_voltage=2.5)
    )
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_wrong_value_type_is_a_spec_error_not_a_traceback():
    spec = ScenarioSpec.from_dict({
        "storage": {"kind": "capacitor", "params": {"capacitance": "22e-6"}},
    })
    with pytest.raises(SpecError) as excinfo:
        spec.build()
    assert "capacitor" in str(excinfo.value)


# -- build equivalence --------------------------------------------------


def test_built_system_matches_hand_wired_vcc_trace():
    """The acceptance-criterion check: spec build == imperative build."""
    duration = 0.6
    spec = ScenarioSpec.from_json(small_fig7(duration).to_json())
    vcc_spec = spec.build().run(duration).vcc()

    machine = Machine(
        assemble(fft_program(64)), MachineConfig(data_space_words=2048)
    )
    platform = TransientPlatform(
        MachineEngine(machine),
        Hibernus(),
        config=TransientPlatformConfig(rail_capacitance=22e-6),
    )
    from repro.harvest.synthetic import SignalGenerator

    system = EnergyDrivenSystem(dt=50e-6)
    system.set_storage(Capacitor(22e-6, v_max=3.3))
    system.add_voltage_source(
        SignalGenerator(4.5, 4.7, rectified=True, source_resistance=1500.0)
    )
    system.set_platform(platform)
    vcc_hand = system.run(duration).vcc()

    assert np.array_equal(vcc_spec.times, vcc_hand.times)
    assert np.array_equal(vcc_spec.values, vcc_hand.values)


def test_power_domain_build_and_bleed_load():
    spec = ScenarioSpec(
        name="electrical-only",
        dt=1e-4,
        duration=0.5,
        storage=StorageSpec("capacitor", {"capacitance": 47e-6, "v_max": 3.3}),
        harvesters=(HarvesterSpec("square-wave-power",
                                  {"on_power": 5e-3, "period": 0.1}),),
        loads=(LoadSpec("resistive", {"resistance": 10_000.0}),),
    )
    system = spec.build()
    rail = system.rail
    assert isinstance(rail.storage, Capacitor)
    assert any(isinstance(l, ResistiveLoad) for l in rail._loads)
    assert isinstance(
        rail._injectors[0].harvester, SquareWavePowerHarvester
    )
    result = system.run(spec.duration)
    assert result.vcc().maximum() > 0.0


def test_rail_capacitance_follows_storage_by_default():
    spec = small_fig7().with_override("capacitance", 47e-6)
    platform = spec.build().platform
    assert platform.config.rail_capacitance == 47e-6


def test_explicit_rail_capacitance_wins():
    spec = small_fig7()
    platform_spec = spec.platform
    import dataclasses

    spec = dataclasses.replace(
        spec,
        platform=dataclasses.replace(
            platform_spec, config={"rail_capacitance": 33e-6}
        ),
    )
    platform = spec.build().platform
    assert platform.config.rail_capacitance == 33e-6


def test_stop_on_completion_ends_run_early():
    spec = crossover_spec("hibernus", frequency=10.0, total_cycles=100_000)
    result = spec.build().run(spec.duration)
    assert result.platform.metrics.first_completion_time is not None
    assert result.t_end < spec.duration


# -- overrides / sweep expansion ---------------------------------------


def test_bare_override_resolves_uniquely():
    spec = small_fig7()
    assert spec.with_override("capacitance", 47e-6).storage.params[
        "capacitance"] == 47e-6
    assert spec.with_override("frequency", 9.4).harvesters[0].params[
        "frequency"] == 9.4
    assert spec.with_override("duration", 2.0).duration == 2.0


def test_qualified_override_paths():
    spec = small_fig7()
    assert spec.with_override("storage__v_max", 3.0).storage.params[
        "v_max"] == 3.0
    assert spec.with_override("harvester0__amplitude", 5.0).harvesters[0].params[
        "amplitude"] == 5.0
    assert spec.with_override("config__v_min", 1.9).platform.config[
        "v_min"] == 1.9
    assert spec.with_override("strategy__v_restore", 3.0).platform.strategy_params[
        "v_restore"] == 3.0


def test_unknown_override_key_lists_candidates():
    with pytest.raises(SpecError) as excinfo:
        small_fig7().with_override("capacitanse", 1e-6)
    assert "capacitance" in str(excinfo.value)


def test_ambiguous_override_requires_qualification():
    spec = small_fig7()
    # 'v_max' exists on the storage element; make it ambiguous by adding a
    # second harvester carrying a parameter of the same name as the first.
    two = spec.harvesters + (HarvesterSpec(
        "signal-generator", {"amplitude": 1.0, "frequency": 1.0}),)
    import dataclasses

    spec2 = dataclasses.replace(spec, harvesters=two)
    with pytest.raises(SpecError) as excinfo:
        spec2.with_override("amplitude", 2.0)
    message = str(excinfo.value)
    assert "harvester0__amplitude" in message
    assert "harvester1__amplitude" in message


def test_sweep_expansion_order_and_size():
    spec = small_fig7()
    variants = spec.sweep(capacitance=[10e-6, 22e-6, 47e-6],
                          frequency=[2.0, 10.0, 40.0])
    assert len(variants) == 9
    # Later keys vary fastest (nested-loop order).
    assert variants[0].storage.params["capacitance"] == 10e-6
    assert variants[0].harvesters[0].params["frequency"] == 2.0
    assert variants[1].harvesters[0].params["frequency"] == 10.0
    assert variants[3].storage.params["capacitance"] == 22e-6
    # The base spec is untouched (specs are frozen values).
    assert spec.storage.params["capacitance"] == 22e-6


def test_sweep_rejects_empty_dimension():
    with pytest.raises(SpecError):
        small_fig7().sweep(capacitance=[])


def test_kernel_field_validates_and_roundtrips():
    with pytest.raises(SpecError):
        ScenarioSpec(kernel="warp")
    spec = small_fig7().with_override("kernel", "fast")
    assert spec.kernel == "fast"
    assert spec.to_dict()["kernel"] == "fast"
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    # The default kernel stays out of the serialized form.
    assert "kernel" not in small_fig7().to_dict()


def test_kernel_field_reaches_the_simulator():
    spec = small_fig7().with_override("kernel", "fast")
    assert spec.build().simulator.kernel == "fast"
    assert small_fig7().build().simulator.kernel == "reference"


def test_strategy_kind_is_an_override_path():
    """'strategy' swaps the checkpointing strategy kind (qualified form
    platform__strategy), enabling categorical strategy sweeps/searches."""
    from repro.spec.presets import crossover_spec

    base = crossover_spec("hibernus")
    swapped = base.with_override("strategy", "quickrecall")
    assert swapped.platform.strategy == "quickrecall"
    assert base.platform.strategy == "hibernus"  # original untouched
    qualified = base.with_override("platform__strategy", "quickrecall")
    assert qualified == swapped
    # The swap revalidates: an unknown strategy kind fails eagerly.
    with pytest.raises(SpecError):
        base.with_override("strategy", "no-such-strategy")


def test_platform_builds_share_the_prepared_program_not_the_machine():
    from repro.spec.presets import preset

    spec = preset("fig7", fft_size=64)
    first = spec.build().platform.engine.machine
    second = spec.build().platform.engine.machine
    assert first.image is second.image and first._code is second._code
    assert first is not second
    assert first.data is not second.data and first.ports is not second.ports
