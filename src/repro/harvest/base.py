"""Harvester base classes and simple combinators."""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.spec.registry import register


class Harvester:
    """Common base: reproducible randomness + reset semantics.

    The random generator is made on first use (closed-form sources
    never draw), from ``seed``; :meth:`reset` restarts it.
    """

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._generator: Optional[np.random.Generator] = None

    def chunk_safe(self) -> bool:
        """True when output sampling is pure (idempotent per time point).

        The fast kernel precomputes source values for steps it may then
        discard at an event boundary and re-evaluate per-step; that is
        only sound when repeated evaluation at the same time returns the
        same value without consuming state (e.g. per-call RNG draws).
        Closed-form sources override this to True; the conservative
        default keeps stateful harvesters on per-step execution.
        """
        return False

    def reset(self) -> None:
        """Restore the harvester to its initial (identically seeded) state."""
        self._generator = None

    @property
    def _rng(self) -> np.random.Generator:
        generator = self._generator
        if generator is None:
            generator = self._generator = np.random.default_rng(self._seed)
        return generator

    @property
    def rng(self) -> np.random.Generator:
        """The harvester's private random generator."""
        return self._rng


class PowerHarvester(Harvester):
    """A source characterised by instantaneous available power ``P_h(t)``.

    Subclasses implement :meth:`power`.  Values are watts and must be
    non-negative; the conditioning chain decides how much of this power can
    actually be pushed into the rail at the rail's present voltage.
    """

    def power(self, t: float) -> float:
        """Available harvested power (W) at simulation time ``t``."""
        raise NotImplementedError

    def power_array(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`power` over a chunk of sample times.

        The default loops over :meth:`power` in time order.  The fast
        kernel only consumes this when :meth:`~Harvester.chunk_safe` is
        True — a discarded chunk re-evaluates its boundary step, which is
        only sound for pure sampling; closed-form sources override this
        with true numpy implementations.
        """
        return np.array([self.power(float(t)) for t in times], dtype=float)

    def mean_power(self, duration: float, dt: float) -> float:
        """Average of :meth:`power` sampled every ``dt`` over ``duration``."""
        if duration <= 0 or dt <= 0:
            raise ConfigurationError("duration and dt must be positive")
        samples = np.arange(0.0, duration, dt)
        return float(np.mean([self.power(float(t)) for t in samples]))


class VoltageHarvester(Harvester):
    """A source characterised by open-circuit voltage and source resistance.

    The paper's wind-turbine traces (Fig. 1a) and the signal-generator
    validation (§III) are voltage sources; they reach the rail through a
    rectifier (:mod:`repro.power.rectifier`).
    """

    def __init__(self, source_resistance: float, seed: Optional[int] = None):
        super().__init__(seed)
        if source_resistance <= 0.0:
            raise ConfigurationError(
                f"source resistance must be positive, got {source_resistance!r}"
            )
        self.source_resistance = source_resistance

    def open_circuit_voltage(self, t: float) -> float:
        """Open-circuit output voltage (V) at time ``t``; may be negative."""
        raise NotImplementedError

    def open_circuit_voltage_array(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`open_circuit_voltage` over a chunk of times.

        Default: a time-ordered loop over the scalar method.  Consumed by
        the fast kernel only when :meth:`~Harvester.chunk_safe` is True;
        closed-form sources override with numpy expressions.
        """
        return np.array(
            [self.open_circuit_voltage(float(t)) for t in times], dtype=float
        )

    def chunk_waveform(self) -> Optional[Tuple[Any, ...]]:
        """The closed-form waveform descriptor the compiled chunk loop
        evaluates per step (a code from :data:`repro.sim.kernel.TRAPEZOID_WAVE`
        on, then its parameters), or None: the fast kernel then reads
        :meth:`open_circuit_voltage_array` through a memo.

        Only the exact classes whose waveform the loop transcribes
        publish one; a subclass may override the waveform.
        """
        return None


@register("constant-power", kind="harvester")
class ConstantPowerHarvester(PowerHarvester):
    """A flat power source — the degenerate 'battery-like' case."""

    def __init__(self, power: float):
        super().__init__(seed=None)
        if power < 0.0:
            raise ConfigurationError(f"power must be non-negative, got {power!r}")
        self._power = power

    def power(self, t: float) -> float:
        return self._power

    def power_array(self, times: np.ndarray) -> np.ndarray:
        return np.full(len(times), self._power, dtype=float)

    def chunk_safe(self) -> bool:
        return True


class ScaledHarvester(PowerHarvester):
    """Scales another power harvester by a constant gain.

    Useful for spatial variation studies: the same temporal profile at a
    sunnier or shadier placement.
    """

    def __init__(self, inner: PowerHarvester, gain: float):
        super().__init__(seed=None)
        if gain < 0.0:
            raise ConfigurationError(f"gain must be non-negative, got {gain!r}")
        self._inner = inner
        self._gain = gain

    def power(self, t: float) -> float:
        return self._gain * self._inner.power(t)

    def power_array(self, times: np.ndarray) -> np.ndarray:
        return self._gain * self._inner.power_array(times)

    def chunk_safe(self) -> bool:
        return self._inner.chunk_safe()

    def reset(self) -> None:
        self._inner.reset()


class SummedHarvester(PowerHarvester):
    """Sum of several power harvesters (multi-source energy harvesting)."""

    def __init__(self, harvesters: Sequence[PowerHarvester]):
        super().__init__(seed=None)
        if not harvesters:
            raise ConfigurationError("SummedHarvester needs at least one source")
        self._harvesters = list(harvesters)

    def power(self, t: float) -> float:
        return sum(h.power(t) for h in self._harvesters)

    def power_array(self, times: np.ndarray) -> np.ndarray:
        # Same accumulation order as the scalar sum(): 0 + p_0 + p_1 + ...
        total = np.zeros(len(times), dtype=float)
        for harvester in self._harvesters:
            total = total + harvester.power_array(times)
        return total

    def chunk_safe(self) -> bool:
        return all(h.chunk_safe() for h in self._harvesters)

    def reset(self) -> None:
        for harvester in self._harvesters:
            harvester.reset()
