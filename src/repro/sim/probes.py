"""Signal probes and trace recording.

A :class:`Probe` samples a scalar-returning callable once per engine step
(optionally decimated).  The collected samples become a :class:`Trace`, a
thin wrapper over numpy arrays with the handful of operations the analysis
code needs (slicing by time, min/max, mean, integration).

Storage is a preallocated numpy ring buffer: samples land in
amortised-doubling arrays rather than Python lists, the fast kernel
appends whole chunks at once through :meth:`Recorder.sample_chunk`, and an
optional ``capacity`` turns the buffer into a true ring that retains only
the most recent samples (long soak runs at bounded memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

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


#: Initial ring-buffer allocation (samples); buffers double as they fill.
_INITIAL_CAPACITY = 1024

#: Cap on up-front :meth:`Probe.reserve` allocations (samples) so a huge
#: requested horizon cannot balloon memory; growth falls back to doubling.
_MAX_RESERVE = 4_000_000


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
        capacity: optional ring limit — when set, only the most recent
            ``capacity`` (decimated) samples are retained.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[], float],
        decimate: int = 1,
        chunk_fn: Optional[Callable[[int], np.ndarray]] = None,
        capacity: Optional[int] = None,
    ):
        if decimate < 1:
            raise ConfigurationError(f"decimate must be >= 1, got {decimate}")
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self._fn = fn
        self._decimate = decimate
        self._chunk_fn = chunk_fn
        self._capacity = capacity
        self._counter = 0
        size = capacity if capacity is not None else _INITIAL_CAPACITY
        self._times = np.empty(size, dtype=float)
        self._values = np.empty(size, dtype=float)
        #: Samples stored; for a full ring this stays at ``capacity``.
        self._n = 0
        #: Ring write head (index of the next slot), used when capacity set.
        self._head = 0

    @property
    def chunkable(self) -> bool:
        """True when the probe can be bulk-sampled by the fast kernel."""
        return self._chunk_fn is not None

    # -- storage ---------------------------------------------------------

    def reserve(self, steps: int) -> None:
        """Pre-size the sample buffers for a run of ``steps`` steps.

        A no-op for ring probes (fixed capacity) and for buffers that
        are already large enough.  Callers that know the run horizon
        (the fast kernel) use this to skip the
        incremental grow-and-copy churn of long runs.
        """
        if self._capacity is not None:
            return
        needed = steps // self._decimate + 2
        if needed > _MAX_RESERVE:
            needed = _MAX_RESERVE
        self._grow(needed)

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

    def _append(self, times: np.ndarray, values: np.ndarray) -> None:
        """Store ``times`` with ``values``: one per time, or one 0-d value."""
        k = times.size
        if k == 0:
            return
        if self._capacity is None:
            n = self._n
            end = n + k
            if end > self._times.size:
                self._grow(end)
            self._times[n:end] = times
            self._values[n:end] = values
            self._n = end
            return
        cap = self._capacity
        constant = values.ndim == 0
        if k >= cap:  # only the newest `cap` samples survive
            self._times[:] = times[k - cap :]
            self._values[:] = values if constant else values[k - cap :]
            self._n = cap
            self._head = 0
            return
        first = min(k, cap - self._head)
        self._times[self._head : self._head + first] = times[:first]
        self._values[self._head : self._head + first] = (
            values if constant else values[:first]
        )
        rest = k - first
        if rest:
            self._times[:rest] = times[first:]
            self._values[:rest] = values if constant else values[first:]
        self._head = (self._head + k) % cap
        self._n = min(self._n + k, cap)

    # -- sampling --------------------------------------------------------

    def sample(self, t: float) -> None:
        """Record a sample if this step is on the decimation grid."""
        self._counter += 1
        if self._counter >= self._decimate:
            self._counter = 0
            if self._capacity is None:
                n = self._n
                if n == self._times.size:
                    self._grow(n + 1)
                self._times[n] = t
                self._values[n] = self._fn()
                self._n = n + 1
            else:
                head = self._head
                self._times[head] = t
                self._values[head] = self._fn()
                self._head = (head + 1) % self._capacity
                self._n = min(self._n + 1, self._capacity)

    def sample_chunk_grid(
        self,
        first_step: int,
        k: int,
        dt: float,
        grids: Dict[Tuple[int, int], np.ndarray],
    ) -> None:
        """Record a chunk of ``k`` steps on the regular ``steps * dt`` grid.

        Step ``first_step + j`` is sampled at ``(first_step + j) * dt``
        with ``chunk_fn(k)[j]``, for the ``j`` on the decimation grid
        only: just those sample times are materialised.  The decimation
        counter carries over between chunks and per-step samples, so
        both select the same steps.

        ``grids`` shares those time arrays between the probes of one
        chunk: it maps ``(first sampled step, decimation)`` to the times,
        which fixes the array since every probe's chunk ends on the
        same step.  A 0-d ``chunk_fn`` result fills every sample of the
        chunk with that one value.
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
        times = grids.get((start, d))
        if times is None:
            times = grids[start, d] = np.arange(start, first_step + k, d) * dt
        values = np.asarray(values, dtype=float)
        if d > 1 and values.ndim:
            values = values[first::d]
        self._append(times, values)

    def clear(self) -> None:
        """Drop all recorded samples (buffers are kept allocated)."""
        self._counter = 0
        self._n = 0
        self._head = 0

    def trace(self) -> Trace:
        """Materialise the samples as a :class:`Trace` (oldest first)."""
        if self._capacity is not None and self._n == self._capacity:
            head = self._head
            times = np.concatenate((self._times[head:], self._times[:head]))
            values = np.concatenate((self._values[head:], self._values[:head]))
            return Trace(self.name, times, values)
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
        capacity: Optional[int] = None,
    ) -> Probe:
        """Create and register a probe. Names must be unique."""
        if name in self._probes:
            raise ConfigurationError(f"duplicate probe name {name!r}")
        probe = Probe(name, fn, decimate=decimate, chunk_fn=chunk_fn,
                      capacity=capacity)
        self._probes[name] = probe
        return probe

    def reserve(self, steps: int) -> None:
        """Pre-size every probe's buffers for a run of ``steps`` steps."""
        for probe in self._probes.values():
            probe.reserve(steps)

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
        grids: Dict[Tuple[int, int], np.ndarray] = {}
        for probe in self._probes.values():
            probe.sample_chunk_grid(first_step, k, dt, grids)

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
