"""Synthetic / bench sources.

The paper validates hibernus "powered from multiple sources including
controlled sources (signal generator at DC-20 Hz)" — these classes are those
controlled sources.  Fig. 7 drives the system directly from a half-wave
rectified sine; :class:`SignalGenerator` with ``rectified=True`` reproduces
exactly that supply.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.harvest.base import PowerHarvester, VoltageHarvester
from repro.sim.kernel import SINE_WAVE, TRAPEZOID_WAVE
from repro.spec.registry import register


@register("sine-voltage", kind="harvester")
class SineVoltageHarvester(VoltageHarvester):
    """Pure sinusoidal voltage source: ``V(t) = A * sin(2*pi*f*t + phase)``."""

    def __init__(
        self,
        amplitude: float,
        frequency: float,
        source_resistance: float = 100.0,
        phase: float = 0.0,
    ):
        super().__init__(source_resistance)
        if amplitude < 0.0:
            raise ConfigurationError(f"amplitude must be >= 0, got {amplitude!r}")
        if frequency < 0.0:
            raise ConfigurationError(f"frequency must be >= 0, got {frequency!r}")
        self.amplitude = amplitude
        self.frequency = frequency
        self.phase = phase

    def open_circuit_voltage(self, t: float) -> float:
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t + self.phase)

    def open_circuit_voltage_array(self, times: np.ndarray) -> np.ndarray:
        omega = 2.0 * math.pi * self.frequency
        return self.amplitude * np.sin(omega * times + self.phase)

    def chunk_safe(self) -> bool:
        return True


@register("signal-generator", kind="harvester")
class SignalGenerator(VoltageHarvester):
    """Bench signal generator, DC to tens of Hz (§III validation source).

    Args:
        amplitude: peak output voltage in volts.
        frequency: output frequency in hertz. 0 selects DC at ``amplitude``.
        rectified: if True the output is half-wave rectified in the
            generator itself (``max(0, sin)``), matching the Fig. 7 supply.
        source_resistance: output impedance in ohms.
    """

    def __init__(
        self,
        amplitude: float,
        frequency: float,
        rectified: bool = False,
        source_resistance: float = 50.0,
    ):
        super().__init__(source_resistance)
        if amplitude < 0.0:
            raise ConfigurationError(f"amplitude must be >= 0, got {amplitude!r}")
        if frequency < 0.0:
            raise ConfigurationError(f"frequency must be >= 0, got {frequency!r}")
        self.amplitude = amplitude
        self.frequency = frequency
        self.rectified = rectified

    def open_circuit_voltage(self, t: float) -> float:
        if self.frequency == 0.0:
            return self.amplitude
        raw = self.amplitude * math.sin(2.0 * math.pi * self.frequency * t)
        if self.rectified:
            return max(raw, 0.0)  # keeps -0.0, as numpy's maximum
        return raw

    def open_circuit_voltage_array(self, times: np.ndarray) -> np.ndarray:
        if self.frequency == 0.0:
            return np.full(len(times), self.amplitude, dtype=float)
        omega = 2.0 * math.pi * self.frequency
        raw = self.amplitude * np.sin(omega * times)
        if self.rectified:
            return np.maximum(0.0, raw)
        return raw

    def chunk_waveform(self) -> Optional[Tuple[Any, ...]]:
        if type(self) is not SignalGenerator:
            return None
        return (SINE_WAVE, 2.0 * math.pi * self.frequency, self.amplitude,
                1.0 if self.rectified else 0.0,
                1.0 if self.frequency == 0.0 else 0.0)

    def chunk_safe(self) -> bool:
        return True


@register("half-wave-sine-power", kind="harvester")
class HalfWaveRectifiedSinePower(PowerHarvester):
    """Half-wave rectified sine expressed directly as available power.

    A convenience for power-domain experiments (Fig. 8 drives the DFS
    governor from the half-wave rectified output of a wind turbine): the
    power available follows ``P_peak * max(0, sin(2*pi*f*t))^2`` since power
    scales with the square of the source voltage into a matched load.
    """

    def __init__(self, peak_power: float, frequency: float):
        super().__init__(seed=None)
        if peak_power < 0.0:
            raise ConfigurationError(f"peak power must be >= 0, got {peak_power!r}")
        if frequency <= 0.0:
            raise ConfigurationError(f"frequency must be > 0, got {frequency!r}")
        self.peak_power = peak_power
        self.frequency = frequency

    def power(self, t: float) -> float:
        s = math.sin(2.0 * math.pi * self.frequency * t)
        if s <= 0.0:
            return 0.0
        return self.peak_power * s * s

    def power_array(self, times: np.ndarray) -> np.ndarray:
        s = np.sin((2.0 * math.pi * self.frequency) * times)
        return np.where(s <= 0.0, 0.0, self.peak_power * s * s)

    def chunk_safe(self) -> bool:
        return True


@register("square-wave-power", kind="harvester")
class SquareWavePowerHarvester(PowerHarvester):
    """On/off power source with a fixed period and duty cycle.

    This is the canonical 'intermittent supply' abstraction used throughout
    the transient-computing literature to sweep interruption frequency —
    it drives the Eq. 5 crossover bench.
    """

    def __init__(self, on_power: float, period: float, duty: float = 0.5, t_offset: float = 0.0):
        super().__init__(seed=None)
        if on_power < 0.0:
            raise ConfigurationError(f"on power must be >= 0, got {on_power!r}")
        if period <= 0.0:
            raise ConfigurationError(f"period must be > 0, got {period!r}")
        if not 0.0 < duty <= 1.0:
            raise ConfigurationError(f"duty must be in (0, 1], got {duty!r}")
        self.on_power = on_power
        self.period = period
        self.duty = duty
        self.t_offset = t_offset

    def power(self, t: float) -> float:
        phase = math.fmod(t + self.t_offset, self.period) / self.period
        if phase < 0.0:
            phase += 1.0
        return self.on_power if phase < self.duty else 0.0

    def power_array(self, times: np.ndarray) -> np.ndarray:
        phase = np.fmod(times + self.t_offset, self.period) / self.period
        phase = np.where(phase < 0.0, phase + 1.0, phase)
        return np.where(phase < self.duty, self.on_power, 0.0)

    def chunk_safe(self) -> bool:
        return True


@register("trapezoid-supply", kind="harvester")
class TrapezoidSupply(VoltageHarvester):
    """Periodic trapezoid supply: the Eq. (5) crossover bench waveform.

    Each period ramps down from ``v_high`` to ``v_low`` at ``ramp_down``
    V/s, dwells at ``v_low`` for ``dwell_low`` seconds, ramps back up at
    ``ramp_up`` V/s, and holds ``v_high`` for the rest of the period.
    With ``v_low`` below a platform's brownout voltage this produces one
    supply interruption per period — the canonical interruption-frequency
    sweep axis.
    """

    def __init__(
        self,
        frequency: float = 10.0,
        v_high: float = 3.2,
        v_low: float = 1.6,
        ramp_down: float = 230.0,
        ramp_up: float = 4000.0,
        dwell_low: float = 2e-3,
        source_resistance: float = 10.0,
    ):
        super().__init__(source_resistance)
        if frequency <= 0.0:
            raise ConfigurationError(f"frequency must be > 0, got {frequency!r}")
        if not 0.0 <= v_low < v_high:
            raise ConfigurationError("need 0 <= v_low < v_high")
        if ramp_down <= 0.0 or ramp_up <= 0.0 or dwell_low < 0.0:
            raise ConfigurationError("ramps must be positive, dwell non-negative")
        period = 1.0 / frequency
        swing = v_high - v_low
        if swing / ramp_down + dwell_low + swing / ramp_up > period:
            raise ConfigurationError(
                "trapezoid does not fit in one period; raise the ramp rates, "
                "shorten dwell_low, or lower the frequency"
            )
        self.frequency = frequency
        self.v_high = v_high
        self.v_low = v_low
        self.ramp_down = ramp_down
        self.ramp_up = ramp_up
        self.dwell_low = dwell_low

    def open_circuit_voltage(self, t: float) -> float:
        period = 1.0 / self.frequency
        phase = math.fmod(t, period)
        if phase < 0.0:
            phase += period
        t_down = (self.v_high - self.v_low) / self.ramp_down
        if phase < t_down:
            return self.v_high - self.ramp_down * phase
        phase -= t_down
        if phase < self.dwell_low:
            return self.v_low
        phase -= self.dwell_low
        t_up = (self.v_high - self.v_low) / self.ramp_up
        if phase < t_up:
            return self.v_low + self.ramp_up * phase
        return self.v_high

    def open_circuit_voltage_array(self, times: np.ndarray) -> np.ndarray:
        period = 1.0 / self.frequency
        phase = np.fmod(times, period)
        phase = np.where(phase < 0.0, phase + period, phase)
        t_down = (self.v_high - self.v_low) / self.ramp_down
        t_up = (self.v_high - self.v_low) / self.ramp_up
        after_down = phase - t_down
        after_dwell = after_down - self.dwell_low
        # The scalar method's branches, applied last to first so the
        # earliest matching segment wins.
        values = np.where(
            after_dwell < t_up,
            self.v_low + self.ramp_up * after_dwell,
            self.v_high,
        )
        values = np.where(after_down < self.dwell_low, self.v_low, values)
        return np.where(
            phase < t_down, self.v_high - self.ramp_down * phase, values
        )

    def chunk_waveform(self) -> Optional[Tuple[Any, ...]]:
        if type(self) is not TrapezoidSupply:
            return None
        swing = self.v_high - self.v_low
        return (TRAPEZOID_WAVE, 1.0 / self.frequency, self.v_high,
                self.v_low, self.ramp_down, self.ramp_up, self.dwell_low,
                swing / self.ramp_down, swing / self.ramp_up)

    def chunk_safe(self) -> bool:
        return True


@register("gated-power", kind="harvester")
class GatedPowerHarvester(PowerHarvester):
    """Wraps a power harvester with random on/off gating.

    Models supplies that disappear unpredictably (occlusion of a PV cell,
    RF reader leaving range).  Gate durations are exponentially distributed
    with separate means for the on and off states; the realisation is
    pre-computed lazily so :meth:`power` stays O(1) amortised.
    """

    def __init__(
        self,
        inner: PowerHarvester,
        mean_on: float,
        mean_off: float,
        seed: Optional[int] = 0,
    ):
        super().__init__(seed=seed)
        if mean_on <= 0.0 or mean_off <= 0.0:
            raise ConfigurationError("mean_on and mean_off must be positive")
        self._inner = inner
        self._mean_on = mean_on
        self._mean_off = mean_off
        self._edges = [0.0]
        self._state_on = [True]

    def _extend_to(self, t: float) -> None:
        while self._edges[-1] <= t:
            on = self._state_on[-1]
            mean = self._mean_on if on else self._mean_off
            self._edges.append(self._edges[-1] + float(self._rng.exponential(mean)))
            self._state_on.append(not on)

    def _gate(self, t: float) -> bool:
        self._extend_to(t)
        # Find the interval containing t: edges[i] <= t < edges[i+1].
        lo, hi = 0, len(self._edges) - 1
        while lo < hi - 1:
            mid = (lo + hi) // 2
            if self._edges[mid] <= t:
                lo = mid
            else:
                hi = mid
        return self._state_on[lo]

    def power(self, t: float) -> float:
        if not self._gate(t):
            return 0.0
        return self._inner.power(t)

    def power_array(self, times: np.ndarray) -> np.ndarray:
        if len(times) == 0:
            return np.zeros(0, dtype=float)
        self._extend_to(float(times[-1]))
        edges = np.asarray(self._edges, dtype=float)
        on = np.asarray(self._state_on, dtype=bool)
        gate = on[np.searchsorted(edges, times, side="right") - 1]
        return np.where(gate, self._inner.power_array(times), 0.0)

    def chunk_safe(self) -> bool:
        # The gate realisation is lazily extended but cached: re-querying
        # the same times is idempotent.  Safety reduces to the inner source.
        return self._inner.chunk_safe()

    def reset(self) -> None:
        super().reset()
        self._inner.reset()
        self._edges = [0.0]
        self._state_on = [True]
