"""Window independence of source plans.

The batch's shared plans (``_PlanCache``, grown by doubling) and the
injectors' ``SourcePlanMemo`` look-ahead both serve a chunk's source
values as a slice of a longer window that started earlier.  That is
sound only if the values for steps ``[a, b)`` are bit-identical whether
evaluated alone or inside ``[a - k, b + m)``; these tests pin that for
every registered chunk-safe harvester and the combinators.
"""

import random

import numpy as np
import pytest

from repro.harvest.base import PowerHarvester, ScaledHarvester, SummedHarvester
from repro.harvest.synthetic import HalfWaveRectifiedSinePower, TrapezoidSupply
from repro.spec import registry

#: Constructor arguments for every chunk-safe registered harvester.
CHUNK_SAFE = {
    "constant-power": dict(power=2e-3),
    "gated-power": dict(
        inner=HalfWaveRectifiedSinePower(5e-3, 3.0),
        mean_on=0.05, mean_off=0.03, seed=4,
    ),
    "half-wave-sine-power": dict(peak_power=5e-3, frequency=7.3),
    "signal-generator": dict(amplitude=4.5, frequency=4.7, rectified=True),
    "sine-voltage": dict(amplitude=3.0, frequency=11.0, phase=0.3),
    "square-wave-power": dict(
        on_power=3e-3, period=0.07, duty=0.3, t_offset=0.01
    ),
    "trapezoid-supply": dict(frequency=37.0),
}


def registered(name):
    return lambda: registry.resolve("harvester", name)(**CHUNK_SAFE[name])


def wrappers():
    gated = registered("gated-power")
    return {
        "scaled(half-wave-sine-power)": lambda: ScaledHarvester(
            registered("half-wave-sine-power")(), 0.7
        ),
        "scaled(gated-power)": lambda: ScaledHarvester(gated(), 1.3),
        "summed(square-wave, gated, constant)": lambda: SummedHarvester([
            registered("square-wave-power")(), gated(),
            registered("constant-power")(),
        ]),
    }


SOURCES = {name: registered(name) for name in CHUNK_SAFE}
SOURCES.update(wrappers())


def evaluate(harvester, steps, dt):
    times = steps * dt
    if isinstance(harvester, PowerHarvester):
        return harvester.power_array(times)
    return harvester.open_circuit_voltage_array(times)


def test_every_chunk_safe_harvester_is_covered():
    """A new chunk-safe harvester must join the table above."""
    safe = set()
    for name in registry.available("harvester"):
        kwargs = CHUNK_SAFE.get(name, {})
        harvester = registry.resolve("harvester", name)(**kwargs)
        if harvester.chunk_safe():
            safe.add(name)
    assert safe == set(CHUNK_SAFE)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_window_is_a_bit_identical_slice_of_an_earlier_longer_one(name):
    make = SOURCES[name]
    assert make().chunk_safe()
    rng = random.Random(name)
    shared = make()  # one instance across every window, as in a run
    for trial in range(60):
        dt = rng.choice((1e-4, 5e-5, 2e-5))
        a = rng.randrange(0, 400_000)
        n = rng.randrange(1, 300)
        k = rng.randrange(0, min(a, 5000) + 1)
        m = rng.randrange(0, 5000)
        alone = evaluate(make(), np.arange(a, a + n), dt)
        longer = evaluate(make(), np.arange(a - k, a + n + m), dt)
        assert longer[k:k + n].tobytes() == alone.tobytes(), (trial, dt, a)
        reused = evaluate(shared, np.arange(a - k, a + n + m), dt)
        assert reused[k:k + n].tobytes() == alone.tobytes(), (trial, dt, a)


def test_memo_windows_match_per_chunk_evaluation():
    """Injector windows served from the look-ahead equal evaluating each
    chunk's own time grid, as the memo-less kernel did."""
    from repro.power.rail import RectifiedInjector
    from repro.sim.kernel import chunk_times

    dt = 1e-4
    injector = RectifiedInjector(TrapezoidSupply(frequency=23.0))
    fresh = TrapezoidSupply(frequency=23.0)
    rng = random.Random(5)
    step = 0
    while step < 30_000:
        n = rng.randrange(2, 200)
        plan = injector.chunk_plan(step * dt, dt, n)
        expected = fresh.open_circuit_voltage_array(
            chunk_times(step * dt, dt, n)
        )
        assert plan.values.tobytes() == expected.tobytes()
        step += rng.randrange(1, n + 1)
