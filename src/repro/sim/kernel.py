"""Chunk-protocol descriptors for the fast simulation kernel.

The fast kernel (``Simulator(kernel="fast")``) advances the simulation in
macro-chunks of up to N steps instead of one step at a time.  Inside a
chunk every per-step quantity must be either precomputable (source
waveforms, which depend only on time) or expressible as a closed
per-step update on a scalar state (the storage voltage).  Stateful
discrete components — the MCU platform, checkpointing strategies,
governors — cannot be vectorized; instead they *declare their event
boundaries* (threshold crossings, state-machine transitions) through the
descriptors in this module, and the chunk is split at the first step
whose voltage crosses one of them.  The boundary step itself, and every
step for which no descriptor is available, runs through the unmodified
reference path, so chunking changes the execution schedule but not the
physics.

Three descriptor families exist:

* :class:`CapacitorPhysics` — published by a storage element
  (:meth:`~repro.storage.base.StorageElement.chunk_physics`) whose
  charge/energy updates the rail may inline: capacitor-law physics with
  an overvoltage clamp, optional exponential leakage and an optional
  fixed draw-overhead factor (supercap ESR).
* :class:`LoadProfile` — published by a rail load
  (:meth:`~repro.power.rail.RailLoad.load_profile`): the load's *event
  schedule descriptor* for its present regime.  The demand may mix a
  constant power, a constant per-step energy, a current-like
  voltage-proportional term and a resistive term; ``v_rising`` /
  ``v_falling`` are the declared voltage event boundaries (the chunk
  ends *before* the first step whose rail voltage, as seen by this
  load, satisfies ``v >= v_rising`` or ``v < v_falling``), and
  ``max_steps`` is the declared *time-based* event boundary (snapshot /
  restore completion, workload task boundaries): the chunk may advance
  at most that many steps, so the step on which the timed event fires
  always executes through the reference path.
* :class:`VoltageSourcePlan` / :class:`PowerSourcePlan` — published by an
  injector (:meth:`~repro.power.rail.Injector.chunk_plan`): the source
  waveform for the chunk precomputed as a float64 array view plus the
  scalar parameters needed to turn it into charge/energy per step.

Source windows are float64 array views into a :class:`SourcePlanMemo`,
carrying the raw address of their first element: the compiled chunk
loop (:mod:`repro.sim._ckernel`) reads them in place, and the Python
chunk loops (the no-compiler rung) convert them to lists themselves.
Every other descriptor field is a plain Python float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

#: The simulation kernels a Simulator/ScenarioSpec may select.
KERNELS = ("reference", "fast")


def validate_kernel(kernel: str) -> str:
    """Return ``kernel`` if valid, raise ``ValueError`` otherwise."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose one of {list(KERNELS)}"
        )
    return kernel


def chunk_times(t0: float, dt: float, n: int) -> np.ndarray:
    """The ``n`` step-start times from ``t0`` on the exact engine grid.

    The engine derives time as ``t == steps * dt``; source plans must
    evaluate waveforms at exactly those floats, because
    ``fl(t0) + fl(i*dt)`` differs from ``fl((steps+i)*dt)`` by an ulp on
    a quarter of all steps — enough to flip a threshold comparison onto
    an adjacent step and desynchronize event timing between kernels.
    When ``t0`` sits on the grid (the only case the engine produces),
    the step index is recovered exactly; any off-grid ``t0`` falls back
    to the additive form.
    """
    step0 = round(t0 / dt)
    if step0 * dt == t0:
        return np.arange(step0, step0 + n) * dt
    return t0 + np.arange(n) * dt


@dataclass
class CapacitorPhysics:
    """Inline-able storage physics: ``E = C V^2 / 2`` with a clamp.

    Attributes:
        capacitance: farads.
        v_max: overvoltage clamp.
        leak_tau: RC self-discharge time constant in seconds, or None for
            an ideal element.
        draw_overhead: multiplicative overhead applied to every energy
            draw (1.0 for an ideal capacitor; ``1 + esr_loss_fraction``
            for a supercapacitor).
        read_voltage / write_voltage: accessors syncing the live storage
            object with the chunk loop's local scalar state.
    """

    capacitance: float
    v_max: float
    leak_tau: Optional[float]
    draw_overhead: float
    read_voltage: Callable[[], float]
    write_voltage: Callable[[float], None]

    def leak_factor(self, dt: float) -> Optional[float]:
        """Per-step exponential decay factor, or None when ideal."""
        if self.leak_tau is None:
            return None
        return math.exp(-dt / self.leak_tau)


@dataclass
class LoadProfile:
    """A load's declared behaviour between event boundaries.

    The per-step energy demand (joules), with ``v`` the rail voltage the
    load sees that step, is assembled exactly as the reference
    :meth:`~repro.power.rail.RailLoad.advance` implementations compute
    it::

        ((current * v) * current_gain) * dt    (when current != 0)
        + power * dt                           (when power != 0)
        + v * v / resistance * dt              (when resistance set)
        + energy                               (constant joules per step)

    The association order of the ``current`` term mirrors the MCU active
    power model (``(i_leak + i_per_hz*f) * V * factor``) so chunked
    execution reproduces the reference arithmetic bit-for-bit.

    ``v_rising`` / ``v_falling`` declare voltage event boundaries;
    ``max_steps`` declares a time-based event boundary (the profile is
    only valid for that many further steps — an in-flight snapshot or
    restore completing, a workload reaching its final cycles).  The
    chunk stops short of every declared boundary; the boundary step
    itself reruns through the reference path.

    ``commit`` is called once with ``(steps, dt, energy)`` after the
    chunk — ``energy`` being the total joules this load demanded over
    the committed steps — so the load can account bulk side effects
    (state-residency metrics, consumed-energy counters, operation
    countdowns) for the steps it was advanced through.
    """

    power: float = 0.0
    resistance: Optional[float] = None
    current: float = 0.0
    current_gain: float = 1.0
    energy: float = 0.0
    v_rising: float = math.inf
    v_falling: float = -math.inf
    max_steps: Optional[int] = None
    commit: Optional[Callable[[int, float, float], None]] = None


@dataclass
class VoltageSourcePlan:
    """A rectified voltage source precomputed over one chunk.

    Per step ``i`` the charging current is
    ``max(0, values[i] - v_rail - drop) / r_total`` — exactly the
    rectifier equation with the per-chunk constants folded in.
    ``address`` is the raw address of ``values[0]`` in a C-contiguous
    float64 array (see :meth:`SourcePlanMemo.window`), or 0 when the
    values are not known to be laid out that way.
    """

    values: Sequence[float]
    drop: float
    r_total: float
    address: int = 0


@dataclass
class PowerSourcePlan:
    """A power-domain source precomputed over one chunk.

    ``values[i]`` is the available power at step ``i``; when ``converter``
    is set it is passed through ``converter.output_power`` against the
    live rail voltage each step (the converter is a pure function of
    ``(p_in, v_in)``).  ``address`` as for :class:`VoltageSourcePlan`.
    """

    values: Sequence[float]
    converter: Optional[object] = None
    address: int = 0


#: Largest look-ahead a :class:`SourcePlanMemo` miss evaluates (steps).
LOOKAHEAD_CAP = 4096


class SourcePlanMemo:
    """Memoised per-step source values on the exact engine time grid.

    Closed-form harvesters evaluate their waveform over many steps at
    once (:func:`chunk_times`).  Because plan values are a pure function
    of the step index (``values[i]`` belongs to step ``step0 + i``, and
    evaluating a longer window that starts earlier yields bit-identical
    values for the overlapping steps), any requested window that falls
    inside a previously computed one is served as a slice — identical to
    recomputing it.

    :meth:`window` is the one entry point the injectors use.  On a miss
    it evaluates ``max(n, min(2 * held, LOOKAHEAD_CAP))`` steps from the
    requested step, ``held`` being the length of the window it replaces,
    so a run advancing chunk by chunk costs O(log) waveform evaluations
    until the look-ahead reaches its cap, then one per
    :data:`LOOKAHEAD_CAP` steps.  Each injector owns its memo; nothing
    is shared across runs.

    The memo holds one C-contiguous float64 array and serves windows as
    views into it, with the raw address of the first element: the
    compiled chunk loop reads them in place.  Only on-grid requests
    (``t0 == step0 * dt``, the only kind the engine produces) are
    memoised.
    """

    __slots__ = ("_step0", "_dt", "_values", "_address")

    def __init__(self) -> None:
        self._step0 = 0
        self._dt = 0.0
        self._values: Optional[np.ndarray] = None
        self._address = 0

    @staticmethod
    def grid_step(t0: float, dt: float) -> Optional[int]:
        """The exact step index of ``t0`` on the ``dt`` grid, or None."""
        step0 = round(t0 / dt)
        return step0 if step0 * dt == t0 else None

    def get(self, step0: int, dt: float, n: int) -> Optional[np.ndarray]:
        """A view of the cached values for ``[step0, step0 + n)``, or None."""
        values = self._values
        if values is None or dt != self._dt:
            return None
        lo = step0 - self._step0
        hi = lo + n
        if lo < 0 or hi > len(values):
            return None
        return values[lo:hi]

    def put(self, step0: int, dt: float, values: Sequence[float]) -> None:
        """Remember the values of steps ``[step0, step0 + len(values))``.

        A C-contiguous float64 array is kept as is (no copy), so a
        seeded plan stays shared with whoever else holds it.
        """
        self._step0 = step0
        self._dt = dt
        self._values = np.ascontiguousarray(values, dtype=float)
        self._address = self._values.ctypes.data

    def window(
        self,
        t0: float,
        dt: float,
        n: int,
        evaluate: Callable[[np.ndarray], np.ndarray],
    ) -> Tuple[np.ndarray, int]:
        """The values of the ``n`` steps from ``t0`` and their address.

        ``evaluate`` maps an array of step times to the waveform values;
        it runs only on a miss, over the look-ahead window.
        """
        step0 = self.grid_step(t0, dt)
        if step0 is None:
            values = np.ascontiguousarray(
                evaluate(chunk_times(t0, dt, n)), dtype=float
            )
            return values, values.ctypes.data
        values = self.get(step0, dt, n)
        if values is None:
            held = 0 if self._values is None else len(self._values)
            count = max(n, min(2 * held, LOOKAHEAD_CAP))
            self.put(step0, dt, evaluate(np.arange(step0, step0 + count) * dt))
            values = self._values[:n]
        return values, self._address + 8 * (step0 - self._step0)

    def clear(self) -> None:
        """Drop the cache (component reset / waveform state change)."""
        self._values = None
        self._address = 0


@dataclass
class ChunkStats:
    """Diagnostic counters a fast-kernel simulator accumulates."""

    chunks: int = 0
    chunked_steps: int = 0
    fallback_steps: int = 0

    def chunked_fraction(self) -> float:
        """Fraction of all steps executed through the chunk path."""
        total = self.chunked_steps + self.fallback_steps
        if total == 0:
            return 0.0
        return self.chunked_steps / total
