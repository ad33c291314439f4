"""Tests for harvester base classes and combinators."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.harvest.base import (
    ConstantPowerHarvester,
    PowerHarvester,
    ScaledHarvester,
    SummedHarvester,
    VoltageHarvester,
)
from repro.harvest.kinetic import ImpactKineticHarvester, VibrationHarvester
from repro.harvest.solar import PhotovoltaicHarvester
from repro.harvest.synthetic import GatedPowerHarvester
from repro.harvest.wind import MicroWindTurbine


def test_constant_power_is_constant():
    h = ConstantPowerHarvester(2e-3)
    assert h.power(0.0) == 2e-3
    assert h.power(1e6) == 2e-3


def test_constant_power_rejects_negative():
    with pytest.raises(ConfigurationError):
        ConstantPowerHarvester(-1.0)


def test_mean_power_of_constant():
    h = ConstantPowerHarvester(5e-3)
    assert math.isclose(h.mean_power(1.0, 0.01), 5e-3)


def test_mean_power_validates_args():
    h = ConstantPowerHarvester(1.0)
    with pytest.raises(ConfigurationError):
        h.mean_power(0.0, 0.1)
    with pytest.raises(ConfigurationError):
        h.mean_power(1.0, 0.0)


def test_scaled_harvester_applies_gain():
    h = ScaledHarvester(ConstantPowerHarvester(2.0), gain=0.25)
    assert h.power(0.0) == 0.5


def test_scaled_harvester_rejects_negative_gain():
    with pytest.raises(ConfigurationError):
        ScaledHarvester(ConstantPowerHarvester(1.0), gain=-0.1)


def test_summed_harvester_adds_sources():
    h = SummedHarvester(
        [ConstantPowerHarvester(1.0), ConstantPowerHarvester(2.0)]
    )
    assert h.power(0.0) == 3.0


def test_summed_harvester_needs_sources():
    with pytest.raises(ConfigurationError):
        SummedHarvester([])


def test_voltage_harvester_requires_positive_resistance():
    with pytest.raises(ConfigurationError):
        VoltageHarvester(source_resistance=0.0)


def test_abstract_methods_raise():
    with pytest.raises(NotImplementedError):
        PowerHarvester().power(0.0)
    with pytest.raises(NotImplementedError):
        VoltageHarvester(source_resistance=1.0).open_circuit_voltage(0.0)


def test_seeded_rng_reproducible_after_reset():
    class Noisy(PowerHarvester):
        def power(self, t):
            return float(self.rng.random())

    h = Noisy(seed=123)
    first = [h.power(0.0) for _ in range(5)]
    h.reset()
    second = [h.power(0.0) for _ in range(5)]
    assert first == second


def _draws(make, sample, times):
    """``sample`` over ``times`` on a fresh harvester, then again after
    its reset; the first pass's digest."""
    import hashlib

    harvester = make()
    sample = sample(harvester)
    first = [sample(t) for t in times]
    harvester.reset()
    second = [sample(t) for t in times]
    assert second == first
    return hashlib.sha256(repr(first).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,make,sample,times,digest", [
    ("pv-indoor", lambda: PhotovoltaicHarvester.indoor_fig1b(seed=13),
     lambda h: h.power, [0.0137 * k for k in range(400)],
     "f51b31d06da163b6"),
    ("pv-outdoor", lambda: PhotovoltaicHarvester.outdoor(seed=11),
     lambda h: h.power, [97.0 * k for k in range(400)], "e57717eccee2285a"),
    ("wind", lambda: MicroWindTurbine.single_gust(turbulence=0.3, seed=7),
     lambda h: h.open_circuit_voltage, [0.0137 * k for k in range(400)],
     "b611baa5aab66b6a"),
    ("impact", lambda: ImpactKineticHarvester(seed=23),
     lambda h: h.open_circuit_voltage, [0.0137 * k for k in range(400)],
     "db421b2fcbe72e79"),
    ("vibration", lambda: VibrationHarvester(amplitude_noise=0.2, seed=29),
     lambda h: h.power, [0.0137 * k for k in range(400)],
     "f4c2d6ed29643b7e"),
    ("gated", lambda: GatedPowerHarvester(ConstantPowerHarvester(1e-3),
                                          0.05, 0.02, seed=5),
     lambda h: h.power, [0.0137 * k for k in range(400)],
     "c62c7c687384dda9"),
])
def test_seeded_harvesters_draw_the_pinned_streams(name, make, sample, times,
                                                   digest):
    """The generator is made on first use, yet a seeded harvester draws
    the stream an eagerly made generator drew (digests pinned from it),
    and again after reset()."""
    assert _draws(make, sample, times) == digest, name


def test_unseeded_harvesters_draw_fresh_entropy():
    class Noisy(PowerHarvester):
        def power(self, t):
            return float(self.rng.random())

    a, b = Noisy(), Noisy()
    first = [a.power(0.0) for _ in range(4)]
    assert first != [b.power(0.0) for _ in range(4)]
    a.reset()
    assert first != [a.power(0.0) for _ in range(4)]


@pytest.mark.parametrize("name", ["fig7", "crossover-hibernus"])
def test_closed_form_presets_create_no_generator(monkeypatch, name):
    """Closed-form supplies never draw: building and running the paper's
    presets makes no random generator."""
    import numpy as np

    from repro.spec.presets import preset

    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    spec = preset(name).with_overrides({"kernel": "fast", "duration": 0.3})
    spec.build().run(spec.duration)
    assert made == []
