"""Catalog-wide construction, serialization and smoke-run coverage.

Every name in the component registry must (a) construct through
``create()`` with its canonical minimal parameters, (b) survive a
``ScenarioSpec`` JSON round-trip when it has a spec slot, and (c) run
100 simulation steps without raising.  This is the safety net that keeps
``python -m repro.cli components`` honest: nothing can sit in the
catalog that the spec layer cannot actually build and run, unless the
spec layer refuses it by name (a program reading a peripheral that a
spec-built machine never attaches).
"""

import dataclasses

import pytest

from repro.errors import SpecError
from repro.spec import ScenarioSpec, available, kinds
from repro.spec.registry import create
from repro.spec.specs import (
    HarvesterSpec,
    LoadSpec,
    PlatformSpec,
    StorageSpec,
)

#: Minimal constructor parameters for factories with required arguments;
#: every name not listed must construct with no arguments at all.
REQUIRED_PARAMS = {
    ("harvester", "constant-power"): {"power": 1e-3},
    ("harvester", "half-wave-sine-power"): {"peak_power": 2e-3,
                                            "frequency": 8.0},
    ("harvester", "sine-voltage"): {"amplitude": 3.5, "frequency": 5.0},
    ("harvester", "signal-generator"): {"amplitude": 4.0, "frequency": 4.7},
    ("harvester", "square-wave-power"): {"on_power": 1e-3, "period": 0.05},
    ("harvester", "gated-power"): {
        "inner": None,  # replaced with a live harvester below
        "mean_on": 0.5, "mean_off": 0.5,
    },
    ("storage", "capacitor"): {"capacitance": 47e-6},
    ("storage", "supercapacitor"): {"capacitance": 100e-6},
    ("storage", "battery"): {"capacity": 0.05},
    ("load", "resistive"): {"resistance": 4700.0},
    ("converter", "linear-regulator"): {"v_out": 3.0},
    ("engine", "synthetic"): {"total_cycles": 10_000},
}

#: Programs that read a port no spec-built machine attaches, and that
#: port: their specs are refused at validation.
UNATTACHED_PORT_PROGRAMS = {"fir": 0, "sense": 1}

#: Kinds that are constructed indirectly (exercised via platform specs).
INDIRECT_KINDS = {"engine", "governor"}


def catalog():
    for kind in kinds():
        for name in available(kind):
            yield kind, name


def construction_params(kind, name):
    params = dict(REQUIRED_PARAMS.get((kind, name), {}))
    if (kind, name) == ("harvester", "gated-power"):
        params["inner"] = create("harvester", "constant-power",
                                 {"power": 1e-3})
    return params


@pytest.mark.parametrize("kind,name", sorted(catalog()))
def test_every_registered_component_constructs(kind, name):
    if kind == "engine" and name == "machine":
        pytest.skip("machine engine needs an assembled program "
                    "(built via PlatformSpec below)")
    component = create(kind, name, construction_params(kind, name))
    assert component is not None


def scenario_for(kind, name):
    """A minimal runnable scenario embedding component (kind, name)."""
    params = {
        key: value
        for key, value in REQUIRED_PARAMS.get((kind, name), {}).items()
    }
    base = dict(
        name=f"catalog-{kind}-{name}",
        dt=1e-4,
        duration=1.0,
        storage=StorageSpec("capacitor", {"capacitance": 47e-6,
                                          "v_initial": 2.0}),
    )
    if kind == "harvester":
        if name == "gated-power":
            return None  # takes a live harvester object; not spec-addressable
        base["harvesters"] = (HarvesterSpec(name, params),)
        return ScenarioSpec(**base)
    if kind == "storage":
        base["storage"] = StorageSpec(name, params)
        return ScenarioSpec(**base)
    if kind == "load":
        base["loads"] = (LoadSpec(name, params),)
        return ScenarioSpec(**base)
    if kind == "rectifier":
        base["harvesters"] = (
            HarvesterSpec(
                "signal-generator",
                {"amplitude": 4.0, "frequency": 4.7},
                rectifier=name,
            ),
        )
        return ScenarioSpec(**base)
    if kind == "converter":
        base["harvesters"] = (
            HarvesterSpec(
                "constant-power", {"power": 1e-3},
                converter=name, converter_params=params,
            ),
        )
        return ScenarioSpec(**base)
    if kind == "mppt":
        base["harvesters"] = (
            HarvesterSpec("constant-power", {"power": 1e-3}, mppt=name),
        )
        return ScenarioSpec(**base)
    if kind == "strategy":
        base["platform"] = PlatformSpec(
            strategy=name,
            engine="synthetic",
            engine_params={"total_cycles": 50_000},
        )
        return ScenarioSpec(**base)
    if kind == "program":
        base["platform"] = PlatformSpec(strategy="hibernus", program=name)
        return ScenarioSpec(**base)
    if kind == "power-model":
        base["platform"] = PlatformSpec(
            strategy="hibernus",
            engine="synthetic",
            engine_params={"total_cycles": 50_000},
            power_model=name,
        )
        return ScenarioSpec(**base)
    return None  # engine/governor: constructed indirectly


@pytest.mark.parametrize("kind,name", sorted(catalog()))
def test_catalog_scenarios_roundtrip_and_run_100_steps(kind, name):
    if kind in INDIRECT_KINDS:
        pytest.skip(f"{kind} components are exercised through platforms")
    if kind == "program" and name in UNATTACHED_PORT_PROGRAMS:
        port = UNATTACHED_PORT_PROGRAMS[name]
        with pytest.raises(SpecError, match=f"port {port}"):
            scenario_for(kind, name)
        return
    scenario = scenario_for(kind, name)
    if scenario is None:
        pytest.skip(f"{kind} {name!r} is not spec-addressable")
    # JSON round-trip must be lossless.
    assert ScenarioSpec.from_json(scenario.to_json()) == scenario
    # And the built system must survive a 100-step smoke run.
    system = scenario.build()
    system.install_probes()
    result = system.simulator.run(max_steps=100)
    assert result.steps == 100
    assert "vcc" in result.traces
