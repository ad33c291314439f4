"""Signal probes and trace recording.

A :class:`Probe` samples a scalar-returning callable once per engine step
(optionally decimated).  The collected samples become a :class:`Trace`, a
thin wrapper over numpy arrays with the handful of operations the analysis
code needs (slicing by time, min/max, mean, integration).

Samples land in numpy arrays that double as they fill, and the fast
kernel appends a whole chunk's decimated samples at once through
:meth:`Recorder.sample_chunk`.  Recording is opt-in: nothing on the row
path installs a probe (rows read the rail's running V_cc envelope,
:class:`~repro.power.rail.RailStats`), so probes serve plotting,
golden traces and ``capture_traces`` callers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class Trace:
    """A regularly-ish sampled signal: paired time and value arrays."""

    name: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ConfigurationError(
                f"trace {self.name!r}: times and values lengths differ "
                f"({self.times.shape} vs {self.values.shape})"
            )

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def dt(self) -> float:
        """Median sample spacing (robust to decimation boundary effects)."""
        if len(self) < 2:
            return 0.0
        return float(np.median(np.diff(self.times)))

    def between(self, t_start: float, t_end: float) -> "Trace":
        """Return the sub-trace with ``t_start <= t <= t_end``."""
        mask = (self.times >= t_start) & (self.times <= t_end)
        return Trace(self.name, self.times[mask], self.values[mask])

    def value_at(self, t: float) -> float:
        """Linearly interpolated value at time ``t``."""
        return float(np.interp(t, self.times, self.values))

    def minimum(self) -> float:
        """Smallest sample value."""
        return float(self.values.min())

    def maximum(self) -> float:
        """Largest sample value."""
        return float(self.values.max())

    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return float(self.values.mean())

    def peak_to_peak(self) -> float:
        """max - min."""
        return self.maximum() - self.minimum()

    def integral(self) -> float:
        """Trapezoidal integral over time (e.g. power trace -> energy)."""
        if len(self) < 2:
            return 0.0
        return float(np.trapezoid(self.values, self.times))

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples strictly above ``threshold``."""
        if len(self) == 0:
            return 0.0
        return float(np.mean(self.values > threshold))


#: Initial sample-buffer allocation; buffers double as they fill.
_INITIAL_CAPACITY = 1024


class Probe:
    """Samples ``fn()`` every ``decimate`` engine steps.

    Args:
        name: probe name (trace key).
        fn: zero-argument callable returning the present sample value.
        decimate: record every ``decimate``-th step.
        chunk_fn: optional bulk sampler for the fast kernel — called with
            the number of steps a chunk advanced and returning that many
            per-step values, or a single 0-d value (a float or 0-d
            array) meaning "constant over the chunk".  Probes without
            one force the fast kernel back to per-step execution (values
            must be observed every step; there is no way to reconstruct
            them after the fact).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[], float],
        decimate: int = 1,
        chunk_fn: Optional[Callable[[int], np.ndarray]] = None,
    ):
        if decimate < 1:
            raise ConfigurationError(f"decimate must be >= 1, got {decimate}")
        self.name = name
        self._fn = fn
        self._decimate = decimate
        self._chunk_fn = chunk_fn
        self._counter = 0
        self._times = np.empty(_INITIAL_CAPACITY, dtype=float)
        self._values = np.empty(_INITIAL_CAPACITY, dtype=float)
        #: Samples stored.
        self._n = 0

    @property
    def chunkable(self) -> bool:
        """True when the probe can be bulk-sampled by the fast kernel."""
        return self._chunk_fn is not None

    # -- storage ---------------------------------------------------------

    def _grow(self, needed: int) -> None:
        capacity = self._times.size
        if needed <= capacity:
            return
        new_capacity = max(needed, 2 * capacity)
        times = np.empty(new_capacity, dtype=float)
        values = np.empty(new_capacity, dtype=float)
        times[: self._n] = self._times[: self._n]
        values[: self._n] = self._values[: self._n]
        self._times = times
        self._values = values

    # -- sampling --------------------------------------------------------

    def sample(self, t: float) -> None:
        """Record a sample if this step is on the decimation grid."""
        self._counter += 1
        if self._counter >= self._decimate:
            self._counter = 0
            n = self._n
            if n == self._times.size:
                self._grow(n + 1)
            self._times[n] = t
            self._values[n] = self._fn()
            self._n = n + 1

    def sample_chunk(self, first_step: int, k: int, dt: float) -> None:
        """Record a chunk of ``k`` steps on the regular ``steps * dt`` grid.

        Step ``first_step + j`` is sampled at ``(first_step + j) * dt``
        with ``chunk_fn(k)[j]``, for the ``j`` on the decimation grid
        only: just those sample times are materialised.  The decimation
        counter carries over between chunks and per-step samples, so
        both select the same steps.  A 0-d ``chunk_fn`` result fills
        every sample of the chunk with that one value.
        """
        if k == 0:
            return
        d = self._decimate
        values = self._chunk_fn(k)
        first = 0 if d == 1 else d - self._counter - 1
        self._counter = (self._counter + k) % d
        if first >= k:
            return
        start = first_step + first
        times = np.arange(start, first_step + k, d) * dt
        values = np.asarray(values, dtype=float)
        if d > 1 and values.ndim:
            values = values[first::d]
        n = self._n
        end = n + times.size
        if end > self._times.size:
            self._grow(end)
        self._times[n:end] = times
        self._values[n:end] = values
        self._n = end

    def clear(self) -> None:
        """Drop all recorded samples (buffers are kept allocated)."""
        self._counter = 0
        self._n = 0

    def trace(self) -> Trace:
        """Materialise the samples as a :class:`Trace`."""
        return Trace(
            self.name,
            self._times[: self._n].copy(),
            self._values[: self._n].copy(),
        )


class Recorder:
    """A named collection of probes sampled together by the engine."""

    def __init__(self) -> None:
        self._probes: Dict[str, Probe] = {}

    def add(
        self,
        name: str,
        fn: Callable[[], float],
        decimate: int = 1,
        chunk_fn: Optional[Callable[[int], np.ndarray]] = None,
    ) -> Probe:
        """Create and register a probe. Names must be unique."""
        if name in self._probes:
            raise ConfigurationError(f"duplicate probe name {name!r}")
        probe = Probe(name, fn, decimate=decimate, chunk_fn=chunk_fn)
        self._probes[name] = probe
        return probe

    def sample(self, t: float) -> None:
        """Sample every probe at time ``t``."""
        for probe in self._probes.values():
            probe.sample(t)

    def sample_chunk(self, first_step: int, k: int, dt: float) -> None:
        """Bulk-sample every probe for a chunk of ``k`` steps.

        ``first_step`` is the 1-based index of the first step in the
        chunk, so sample times are ``first_step*dt .. (first_step+k-1)*dt``
        — the exact ``steps * dt`` grid per-step execution produces.
        """
        for probe in self._probes.values():
            probe.sample_chunk(first_step, k, dt)

    def chunk_capable(self) -> bool:
        """True when every probe supports bulk chunk sampling."""
        return all(probe.chunkable for probe in self._probes.values())

    def clear(self) -> None:
        """Clear all probes' samples."""
        for probe in self._probes.values():
            probe.clear()

    def traces(self) -> Dict[str, Trace]:
        """Snapshot all probes as traces keyed by name."""
        return {name: probe.trace() for name, probe in self._probes.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._probes
