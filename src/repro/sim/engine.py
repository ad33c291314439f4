"""The fixed-timestep simulation engine.

Components implement a tiny protocol (:meth:`Component.step` plus an optional
:meth:`Component.reset`).  The engine owns time: it calls each component once
per step, in registration order, then samples every probe.  Registration
order therefore defines the causal order within one timestep; systems built
by :mod:`repro.core.system` register source conditioning before the rail and
the rail before loads are sampled.

Two kernels execute that schedule:

* ``"reference"`` — the plain per-step loop; the semantic baseline.
* ``"fast"`` — advances in macro-chunks of up to ``chunk_size`` steps
  through :meth:`Component.step_chunk` when the (single) component can
  vectorize its current regime, falling back to per-step execution at
  every declared event boundary — voltage thresholds *and* timed events
  (snapshot/restore completion, workload task boundaries), so the step
  an event fires on always runs the unmodified reference path (see
  :mod:`repro.sim.kernel`).  A chunk that stops short is followed by
  that event step directly; only a refused chunk backs off.  Probes
  must be chunk-capable (see :class:`~repro.sim.probes.Probe`) for
  chunking to engage; otherwise the fast kernel behaves exactly like the
  reference one.  A stop condition registered without ``chunk_safe=True``
  also disables chunking — it must be observed after every step; a
  ``chunk_safe`` condition (one that can only turn true during per-step
  execution, e.g. workload completion) keeps chunking engaged and still
  fires on the same step under both kernels.

Time is derived, not accumulated: ``t == steps * dt`` always, so a
10-million-step run lands on exactly ``10e6 * dt`` seconds instead of
drifting by accumulated rounding error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import ChunkStats, validate_kernel
from repro.sim.probes import Recorder, Trace


class Component:
    """Base class for anything stepped by the :class:`Simulator`.

    Subclasses override :meth:`step`; :meth:`reset` restores construction
    state so the same system object can be re-run.  Components that can
    vectorize stretches of their dynamics additionally override
    :meth:`step_chunk`, which the fast kernel calls.
    """

    def step(self, t: float, dt: float) -> None:
        """Advance the component from ``t`` to ``t + dt``."""
        raise NotImplementedError

    def step_chunk(self, t0: float, dt: float, n: int) -> int:
        """Advance up to ``n`` steps starting at ``t0``; return steps taken.

        Returning 0 means the component cannot chunk its present regime
        (an event boundary is imminent or its state is not vectorizable);
        the engine then executes one reference :meth:`step` and backs
        off before asking again.  A non-zero return k means the
        component advanced exactly k full steps with per-step semantics
        identical to k :meth:`step` calls; ``k < n`` means it stopped
        before a declared event boundary, so the engine runs the next
        step, the event step, through :meth:`step` without asking.
        """
        return 0

    def reset(self) -> None:
        """Restore the component to its initial state (default: no-op)."""


StopCondition = Callable[[float], bool]

#: Initial (and post-event) macro-chunk length for the fast kernel.
_MIN_CHUNK = 64
#: Cap on the failed-chunk-attempt backoff (reference steps skipped).
_MAX_BACKOFF = 64


@dataclass
class SimulationResult:
    """Outcome of a :meth:`Simulator.run` call.

    Attributes:
        t_end: simulation time when the run stopped.
        steps: number of timesteps executed.
        stopped_early: True when a stop condition fired before ``duration``.
        traces: recorded signal traces keyed by probe name.
    """

    t_end: float
    steps: int
    stopped_early: bool
    traces: Dict[str, Trace] = field(default_factory=dict)

    def trace(self, name: str) -> Trace:
        """Return the trace recorded under ``name``.

        Raises:
            KeyError: if no probe with that name was registered.
        """
        return self.traces[name]


class Simulator:
    """Fixed-timestep simulator.

    Args:
        dt: timestep in seconds. Must be positive.
        components: initial component list (more can be added later).
        kernel: ``"reference"`` (plain per-step loop) or ``"fast"``
            (chunked execution where components support it; identical
            per-step semantics, see the module docstring).
        chunk_size: maximum steps per macro-chunk for the fast kernel.

    The engine is deliberately simple — a loop over components — because all
    the interesting dynamics live in the components (rail integration, MCU
    execution, governor control).  Determinism is guaranteed: no wall-clock
    or global RNG access happens here.
    """

    def __init__(
        self,
        dt: float,
        components: Optional[Sequence[Component]] = None,
        kernel: str = "reference",
        chunk_size: int = 4096,
    ):
        if dt <= 0.0:
            raise ConfigurationError(f"timestep must be positive, got {dt!r}")
        try:
            self.kernel = validate_kernel(kernel)
        except ValueError as error:
            raise ConfigurationError(str(error)) from error
        if chunk_size < 2:
            raise ConfigurationError(f"chunk_size must be >= 2, got {chunk_size}")
        self.dt = dt
        self.t = 0.0
        self.steps = 0
        self.chunk_size = chunk_size
        #: Fast-kernel diagnostics: how much of the run actually chunked.
        self.chunk_stats = ChunkStats()
        self._components: List[Component] = list(components or [])
        self._recorder = Recorder()
        self._stop_conditions: List[StopCondition] = []
        self._has_unchunkable_conditions = False

    @property
    def recorder(self) -> Recorder:
        """The recorder holding all registered probes."""
        return self._recorder

    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        self._components.append(component)
        return component

    def probe(
        self,
        name: str,
        fn: Callable[[], float],
        decimate: int = 1,
        chunk_fn=None,
    ) -> None:
        """Register a probe sampling ``fn()`` every ``decimate`` steps.

        ``chunk_fn`` makes the probe bulk-samplable by the fast kernel:
        called with a chunk's step count, it returns that many per-step
        values, or one 0-d value when the signal is constant over the
        chunk (see :class:`~repro.sim.probes.Probe`).
        """
        self._recorder.add(name, fn, decimate=decimate, chunk_fn=chunk_fn)

    def stop_when(self, condition: StopCondition, chunk_safe: bool = False) -> None:
        """Stop the run as soon as ``condition(t)`` returns True.

        The condition is evaluated after each step, so the state that made it
        true is already recorded.

        Under the fast kernel a condition registered with the default
        ``chunk_safe=False`` disables chunking — it must be observed after
        every step, and a chunk only checks at its boundary.  Pass
        ``chunk_safe=True`` for conditions that can only become true
        during per-step execution (e.g. workload completion: the platform
        is never ACTIVE inside a chunk), which keeps chunking engaged
        while still firing on exactly the same step as the reference
        kernel.
        """
        self._stop_conditions.append(condition)
        if not chunk_safe:
            self._has_unchunkable_conditions = True

    def reset(self) -> None:
        """Reset time, probes, chunk diagnostics and every component."""
        self.t = 0.0
        self.steps = 0
        self.chunk_stats = ChunkStats()
        self._recorder.clear()
        for component in self._components:
            component.reset()

    def step(self) -> None:
        """Advance the simulation by one timestep."""
        for component in self._components:
            component.step(self.t, self.dt)
        self.steps += 1
        # Derived, not accumulated: t == steps * dt exactly, so long runs
        # do not drift by summed rounding error.
        self.t = self.steps * self.dt
        self._recorder.sample(self.t)

    def _last_startable_step(self, t_stop: float) -> int:
        """Largest step index allowed to *start* a step before ``t_stop``.

        The per-step loop starts a step while ``t < t_stop - dt/2``; with
        ``t == steps * dt`` that predicate is exactly ``steps <= s`` for
        the integer this computes, so the chunked path executes the same
        step count as per-step execution.
        """
        limit = t_stop - 0.5 * self.dt
        s = int(limit / self.dt)
        while s * self.dt >= limit:
            s -= 1
        while (s + 1) * self.dt < limit:
            s += 1
        return s

    def run(
        self,
        duration: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> SimulationResult:
        """Run for ``duration`` seconds (or until a stop condition fires).

        Args:
            duration: seconds of simulated time to advance. May be omitted
                when ``max_steps`` is given.
            max_steps: hard cap on step count regardless of duration.

        Returns:
            A :class:`SimulationResult` with the recorded traces.

        Raises:
            ConfigurationError: when neither bound is provided.
        """
        if duration is None and max_steps is None:
            raise ConfigurationError("run() needs duration and/or max_steps")
        t_stop = self.t + duration if duration is not None else None
        steps_before = self.steps
        # Instrumentation is per *run*, never per step: one span, a few
        # counter bumps from the cumulative ChunkStats delta.
        stats = self.chunk_stats
        chunks0, chunked0, fallback0 = (
            stats.chunks, stats.chunked_steps, stats.fallback_steps,
        )
        reasons0 = dict(stats.fallbacks)
        t0 = time.monotonic()
        with obs.span("kernel.run", kernel=self.kernel) as kspan:
            if self.kernel == "fast":
                stopped_early = self._run_fast(t_stop, max_steps, steps_before)
            else:
                stopped_early = self._run_reference(
                    t_stop, max_steps, steps_before
                )
            kspan.annotate(steps=self.steps - steps_before)
        if obs.obs_enabled():
            obs.counter("repro_kernel_runs_total", kernel=self.kernel).inc()
            obs.counter(
                "repro_kernel_steps_total", kernel=self.kernel
            ).inc(self.steps - steps_before)
            obs.histogram(
                "repro_kernel_run_seconds", kernel=self.kernel
            ).observe(time.monotonic() - t0)
            if self.kernel == "fast":
                obs.counter("repro_kernel_chunks_total").inc(
                    stats.chunks - chunks0
                )
                obs.counter("repro_kernel_chunked_steps_total").inc(
                    stats.chunked_steps - chunked0
                )
                obs.counter("repro_kernel_fallback_steps_total").inc(
                    stats.fallback_steps - fallback0
                )
                for reason, count in stats.fallbacks.items():
                    obs.counter(
                        "repro_kernel_fallback_steps_by_reason_total",
                        reason=reason,
                    ).inc(count - reasons0[reason])
        return SimulationResult(
            t_end=self.t,
            steps=self.steps - steps_before,
            stopped_early=stopped_early,
            traces=self._recorder.traces(),
        )

    def _run_reference(
        self,
        t_stop: Optional[float],
        max_steps: Optional[int],
        steps_before: int,
    ) -> bool:
        while True:
            if t_stop is not None and self.t >= t_stop - 0.5 * self.dt:
                return False
            if max_steps is not None and self.steps - steps_before >= max_steps:
                return False
            self.step()
            if any(cond(self.t) for cond in self._stop_conditions):
                return True

    def _run_fast(
        self,
        t_stop: Optional[float],
        max_steps: Optional[int],
        steps_before: int,
    ) -> bool:
        dt = self.dt
        component = self._components[0] if len(self._components) == 1 else None
        # Chunking engages only when the whole per-step schedule can be
        # reproduced in bulk: at most one component, that component
        # overrides step_chunk (an empty simulator chunks trivially),
        # every probe knows how to produce per-step values for a chunk,
        # and no stop condition demands per-step observation.
        chunkable = (
            self._recorder.chunk_capable()
            and not self._has_unchunkable_conditions
            and (
                not self._components
                or (
                    component is not None
                    and type(component).step_chunk is not Component.step_chunk
                )
            )
        )
        conditions = self._stop_conditions
        s_max = self._last_startable_step(t_stop) if t_stop is not None else None
        # Scheduling heuristics (semantics-neutral: steps not chunked just
        # run per-step): chunks start short and double while fully
        # consumed, so a chunk ending at a nearby event boundary never
        # pays for a full-length source plan.  A chunk that stops short
        # ended before a declared boundary, so the next step is the event
        # step and runs per-step without a chunk attempt.  Only a refused
        # attempt backs off, exponentially, so unchunkable regimes
        # (interpreted ACTIVE execution) don't re-probe the component
        # every step.  Every per-step step is counted under its reason.
        grow = _MIN_CHUNK
        skip = 0
        backoff = 0
        event = False
        stats = self.chunk_stats
        fallbacks = stats.fallbacks
        step_chunk = component.step_chunk if component is not None else None
        while True:
            if s_max is not None and self.steps > s_max:
                return False
            if max_steps is not None and self.steps - steps_before >= max_steps:
                return False
            if event:
                event = False
                reason = "event"
            elif skip:
                skip -= 1
                reason = "backoff"
            else:
                n = min(grow, self.chunk_size)
                if s_max is not None:
                    n = min(n, s_max - self.steps + 1)
                if max_steps is not None:
                    n = min(n, max_steps - (self.steps - steps_before))
                if not chunkable or n <= 1:
                    reason = "unchunkable"
                else:
                    taken = n if step_chunk is None else step_chunk(
                        self.t, dt, n
                    )
                    if taken:
                        reason = None
                        backoff = 0
                        if taken == n:
                            grow = min(2 * n, self.chunk_size)
                        else:
                            grow = _MIN_CHUNK
                            event = True
                        stats.chunks += 1
                        stats.chunked_steps += taken
                        first = self.steps + 1
                        self.steps += taken
                        self.t = self.steps * dt
                        self._recorder.sample_chunk(first, taken, dt)
                    else:
                        reason = "refused"
                        backoff = (
                            min(2 * backoff, _MAX_BACKOFF) if backoff else 1
                        )
                        skip = backoff
            if reason is not None:
                fallbacks[reason] += 1
                stats.fallback_steps += 1
                self.step()
            if conditions and any(cond(self.t) for cond in conditions):
                return True

    def run_steps(self, n: int) -> SimulationResult:
        """Run at most ``n`` steps.

        Stop conditions registered with :meth:`stop_when` still apply:
        the run ends at the first step after which one fires (with
        ``stopped_early`` set), so exactly ``n`` steps execute only when
        no stop condition fires earlier.
        """
        if n < 0:
            raise ConfigurationError(f"step count must be non-negative, got {n}")
        return self.run(max_steps=n)


def integrate_trapezoid(values: Sequence[float], dt: float) -> float:
    """Trapezoidal integral of regularly sampled ``values`` with spacing ``dt``.

    Utility used by energy accounting: the integral of a power trace is the
    energy over the run.
    """
    n = len(values)
    if n == 0:
        return 0.0
    if n == 1:
        return 0.0
    total = 0.5 * (values[0] + values[-1]) + sum(values[1:-1])
    return total * dt


def require_state(condition: bool, message: str) -> None:
    """Raise :class:`SimulationError` unless ``condition`` holds."""
    if not condition:
        raise SimulationError(message)
