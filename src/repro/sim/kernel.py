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
whose voltage crosses one of them — or, for the platform's state
machine published as a :class:`TransitionTable`, follows it across the
transitions it can and splits before those it leaves to Python.  The
boundary step itself, and every step for which no descriptor is
available, runs through the unmodified reference path, so chunking
changes the execution schedule but not the physics.

Three descriptor families exist:

* :class:`CapacitorPhysics` — published by a storage element
  (:meth:`~repro.storage.base.StorageElement.chunk_physics`) whose
  charge/energy updates the rail may inline: capacitor-law physics with
  an overvoltage clamp, optional exponential leakage and an optional
  fixed draw-overhead factor (supercap ESR).
* :class:`LoadProfile` — published by a rail load
  (:meth:`~repro.power.rail.RailLoad.load_profile`): the load's *event
  schedule descriptor* for its present regime.  The demand may mix a
  constant power and a resistive term; ``v_rising`` /
  ``v_falling`` are the declared voltage event boundaries (the chunk
  ends *before* the first step whose rail voltage, as seen by this
  load, satisfies ``v >= v_rising`` or ``v < v_falling``), and
  ``max_steps`` is the declared *time-based* event boundary (a
  charge-and-fire task finishing): the chunk may advance
  at most that many steps, so the step on which the timed event fires
  always executes through the reference path.  A load with a state
  machine (the transient platform) publishes its
  :class:`TransitionTable` in ``table``; an interpreter's ACTIVE steps
  ride in the table, as its :class:`MachineSteps`.
* :class:`VoltageSourcePlan` / :class:`PowerSourcePlan` — published by an
  injector (:meth:`~repro.power.rail.Injector.chunk_plan`): the source
  waveform for the chunk precomputed as a float64 array view plus the
  scalar parameters needed to turn it into charge/energy per step.  A
  closed-form voltage source (``trapezoid-supply``,
  ``signal-generator``) on the engine grid publishes its waveform
  descriptor instead, which the compiled chunk loop evaluates per step.

Source windows are float64 array views into a :class:`SourcePlanMemo`,
carrying the raw address of their first element: the compiled chunk
loop (:mod:`repro.sim._ckernel`) reads them in place, and the Python
chunk loop (:func:`repro.power.rail.chunk_loop`) reads the memo's list
mirror at the window's index.  A closed-form plan resolves its window
only when read, so a chunk the compiled loop runs evaluates none.
Every other descriptor field is a plain Python float.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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

        v * v / resistance * dt + power * dt    (when resistance set)
        power * dt                              (otherwise)

    ``v_rising`` / ``v_falling`` declare voltage event boundaries;
    ``max_steps`` declares a time-based event boundary (the profile is
    only valid for that many further steps — a charge-and-fire task
    finishing).  The chunk stops short of every declared boundary; the
    boundary step itself reruns through the reference path.  A load
    with a state machine publishes it as ``table`` instead (see
    :class:`TransitionTable`); its other fields but ``commit`` are then
    unused.

    ``commit`` is called once with ``(steps, dt, energy)`` after the
    chunk — ``energy`` being the total joules this load demanded over
    the committed steps — so the load can account bulk side effects
    (state-residency metrics, consumed-energy counters, operation
    countdowns) for the steps it was advanced through.
    """

    power: float = 0.0
    resistance: Optional[float] = None
    v_rising: float = math.inf
    v_falling: float = -math.inf
    max_steps: Optional[int] = None
    commit: Optional[Callable[[int, float, float], None]] = None
    table: Optional["TransitionTable"] = None


@dataclass(eq=False)
class MachineSteps:
    """An interpreter's ACTIVE execution: a :class:`TransitionTable`'s
    ACTIVE row on an engine without a progress counter, which both
    chunk loops step one engine step per ACTIVE step.

    Each ACTIVE step the loops run ``machine`` as ``Machine.run(budget,
    stop_at_ckpt)`` would, through ``run`` (a ``PythonLoop``'s) or the
    packed ``code``, and add the slice's memory energy, priced at
    ``access`` per SRAM read, SRAM write, FRAM read and FRAM write as
    ``McuPowerModel.slice_memory_energy`` prices it (``fram``: data in
    FRAM), to the row's energy.  A step the chunk does not commit (a
    halt, ``ckpt`` pause, port or fault, or a later load's boundary) is
    undone: registers, PC and its logged writes.  The loops update the
    machine in place and write the committed steps' total ``cycles``,
    retired ``instructions`` and ``memory`` (in step order).
    """

    machine: Any
    run: Callable
    code: Any
    budget: int
    stop_at_ckpt: bool
    fram: bool
    access: Tuple[float, float, float, float]
    cycles: int = 0
    instructions: int = 0
    memory: float = 0.0


#: The transition table's states, in code order: the codes the state
#: probe records (``repro.core.system.STATE_CODES``).
TABLE_STATES = ("off", "sleep", "restore", "snapshot", "active")
OFF, SLEEP, RESTORE, SNAPSHOT, ACTIVE = range(5)

#: The transitions a table names, in code order.  The last three
#: always return to Python: the step that halts the workload, the step
#: that reaches a checkpoint site, and an interpreter step that does
#: port I/O or faults.
TRANSITIONS = (
    "boot", "brownout", "snapshot", "snapshot-done", "restore",
    "restore-done", "cold-start", "halt", "checkpoint-site",
    "port-or-fault",
)
(
    BOOT, BROWNOUT, SNAPSHOT_BEGIN, SNAPSHOT_DONE, RESTORE_BEGIN,
    RESTORE_DONE, COLD_START, HALT, CHECKPOINT_SITE, PORT_OR_FAULT,
) = range(len(TRANSITIONS))
#: Transitions one chunk logs at most.  A step logs three at most (a
#: boot, a hook, a completion), so a chunk ends after the step that
#: leaves less room than that: the buffers stay small.
LOG_CAPACITY = 256


@dataclass(eq=False)
class TransitionTable:
    """A transient platform's state machine as data, which both chunk
    loops follow across transitions.

    A load publishes one through ``LoadProfile.table`` (at most one per
    rail).  Each step, with ``v`` the rail voltage the load sees, the
    loops run the cascade of
    :meth:`~repro.transient.base.TransientPlatform.advance`:

    1. brownout: ``v < v_min`` takes any state but OFF to OFF (an
       in-flight snapshot aborts, which empties a single-slot store;
       progress drops to 0), and the step drains ``energies[OFF]``;
    2. boot: in OFF, ``v >= v_por`` enters ``boot_state`` (progress
       drops to 0 when that is ACTIVE: a cold start); below it the
       step drains ``energies[OFF]``;
    3. one hook: ACTIVE with ``v < guard`` begins a snapshot of
       ``snapshot_steps`` steps (capturing progress), or SLEEP with
       ``v >= wake`` begins a restore of ``restore_steps`` steps when a
       snapshot is held and cold-starts into ACTIVE otherwise;
    4. the physics of the resulting state: ``energies[state]``, plus
       ``((current * v) * current_gain) * dt`` in ACTIVE, where each
       step also adds ``budget`` cycles of progress or, with a
       ``machine`` (an engine without a progress counter: the
       interpreter), runs one engine step of it and adds the step's
       memory energy to ``energies[ACTIVE]`` (see :class:`MachineSteps`);
    5. after the physics, an operation counts down one step and, at 0,
       completes: a snapshot commits and sleeps, a restore reloads the
       snapshot's progress and goes ACTIVE.

    A transition whose bit is set in ``python`` is not followed: the
    loop stops before its step, which then runs through ``advance``.
    So does an ACTIVE step that would halt (progress reaching
    ``total``, or the machine's ``halt``), reach a checkpoint site
    (every ``site_interval`` cycles, 0 for none, or the machine's
    ``ckpt`` pause), or make the machine do port I/O or fault.  A
    machine step the chunk does not commit is undone.  ``stop`` names
    the code it stopped for (-1: none).

    The rows (the fields up to ``python``) are constants: a load that
    needs other rows publishes another table.  The running fields
    (``state`` ... ``machine``) are read at the chunk's start and
    written back at its end.  The loops also write
    per-state committed step ``counts`` and energy ``sums`` (ACTIVE's
    without its constant part), ``states`` (each committed step's
    end-of-step state code, a float), ``log`` (one ``(step, code, v,
    active_steps)`` per followed transition, ``active_steps`` being the
    ACTIVE steps since the previous one; :data:`LOG_CAPACITY` at most,
    after which the chunk ends) and ``active_steps`` (those since the
    last).  The platform replays the log in its commit.
    """

    v_min: float
    v_por: float
    guard: float
    wake: float
    boot_state: int
    energies: Tuple[float, float, float, float, float]
    current: float
    current_gain: float
    snapshot_steps: int
    restore_steps: int
    budget: int
    total: int
    site_interval: int
    single_slot: bool
    python: int
    state: int = OFF
    executed: int = 0
    left: int = 0
    has_snapshot: bool = False
    pending: int = 0
    payload: int = 0
    machine: Optional[MachineSteps] = None
    counts: Sequence[float] = (0,) * 5
    sums: Sequence[float] = (0.0,) * 5
    states: Sequence[float] = ()
    log: list = field(default_factory=list)
    active_steps: int = 0
    stop: int = -1


def operation_steps(remaining: float, dt: float) -> int:
    """Steps until an operation with ``remaining`` seconds completes:
    the reference countdown's ``remaining -= dt`` until ``<= 0``,
    float for float (at least 1)."""
    steps = 1
    remaining -= dt
    while remaining > 0.0:
        remaining -= dt
        steps += 1
    return steps


#: Closed-form waveform codes: the first item of a harvester's
#: :meth:`~repro.harvest.base.VoltageHarvester.chunk_waveform`
#: descriptor, followed by its parameters:
#:
#: * ``TRAPEZOID_WAVE``: period, v_high, v_low, ramp_down, ramp_up,
#:   dwell_low, t_down, t_up (``TrapezoidSupply``);
#: * ``SINE_WAVE``: omega, amplitude, rectified, dc (``SignalGenerator``;
#:   the flags as 0.0/1.0, dc for ``frequency == 0``).
TRAPEZOID_WAVE, SINE_WAVE = 0, 1
#: The most parameters a waveform descriptor carries.
WAVE_PARAMS = 8


class VoltageSourcePlan:
    """A rectified voltage source over one chunk.

    Per step ``i`` the charging current is
    ``max(0, values[i] - v_rail - drop) / r_total`` — exactly the
    rectifier equation with the per-chunk constants folded in.
    ``address`` is the raw address of ``values[0]`` in a C-contiguous
    float64 array (see :meth:`SourcePlanMemo.window`), or 0 when the
    values are not known to be laid out that way.  ``index`` is the
    position of ``values[0]`` in ``memo``'s held values, or None when
    no memo holds them.

    A closed-form source on the engine grid also carries its
    ``waveform`` descriptor (see :data:`TRAPEZOID_WAVE`), ``take_abs``
    (a bridge rectifier reads ``|V_oc|``) and ``step0``, the grid index
    of the chunk's first step: the compiled chunk loop evaluates such a
    source itself at ``(step0 + i) * dt``.  Its ``values``, ``address``
    and ``index`` are then resolved by ``window`` (a
    :meth:`SourcePlanMemo.window` call) on first access, so a chunk the
    compiled loop runs never evaluates them.
    """

    __slots__ = ("drop", "r_total", "memo", "waveform", "take_abs",
                 "step0", "_window", "_values", "_address", "_index")

    def __init__(
        self,
        values: Optional[Sequence[float]],
        drop: float,
        r_total: float,
        address: int = 0,
        memo: Optional["SourcePlanMemo"] = None,
        index: Optional[int] = None,
        waveform: Optional[Tuple[Any, ...]] = None,
        take_abs: bool = False,
        step0: int = 0,
        window: Optional[Callable[[], Tuple[Any, int, Optional[int]]]] = None,
    ):
        self.drop = drop
        self.r_total = r_total
        self.memo = memo
        self.waveform = waveform
        self.take_abs = take_abs
        self.step0 = step0
        self._window = window
        self._values = values
        self._address = address
        self._index = index

    def _resolve(self) -> None:
        if self._window is not None:
            self._values, self._address, self._index = self._window()
            self._window = None

    @property
    def values(self) -> Sequence[float]:
        self._resolve()
        return self._values

    @property
    def address(self) -> int:
        self._resolve()
        return self._address

    @property
    def index(self) -> Optional[int]:
        self._resolve()
        return self._index


@dataclass
class PowerSourcePlan:
    """A power-domain source precomputed over one chunk.

    ``values[i]`` is the available power at step ``i``; when ``converter``
    is set it is passed through ``converter.output_power`` against the
    live rail voltage each step (the converter is a pure function of
    ``(p_in, v_in)``).  ``address``, ``memo`` and ``index`` as for
    :class:`VoltageSourcePlan`.
    """

    values: Sequence[float]
    converter: Optional[object] = None
    address: int = 0
    memo: Optional["SourcePlanMemo"] = None
    index: Optional[int] = None


#: Steps a :class:`SourcePlanMemo` miss evaluates past the request.
LOOKAHEAD = 1024


class SourcePlanMemo:
    """Memoised per-step source values on the exact engine time grid.

    Closed-form harvesters evaluate their waveform over many steps at
    once (:func:`chunk_times`).  Because plan values are a pure function
    of the step index (``values[i]`` belongs to step ``step0 + i``, and
    evaluating a longer window that starts earlier yields bit-identical
    values for the overlapping steps), any requested window that falls
    inside a previously computed one is served as a slice — identical to
    recomputing it.

    :meth:`window` is the one entry point the injectors use.  The held
    window extends forward: a miss whose first step lies inside it or
    at its end keeps the held values from that step on and evaluates
    only the steps past the held end, through :data:`LOOKAHEAD` steps
    beyond the request; any other miss evaluates the request and the
    look-ahead afresh.  A run advancing chunk by chunk thus evaluates
    each step once, and an event-dense one (a chunk every few steps)
    makes one waveform call per :data:`LOOKAHEAD` steps, not one per
    chunk.  Each injector owns its memo; nothing is shared across runs.

    The memo holds one C-contiguous float64 array and serves windows as
    views into it, with the raw address of the first element: the
    compiled chunk loop reads them in place.  The Python chunk loop
    reads :meth:`floats`, a list mirror of the held array made on first
    demand and extended with it, so each value is converted at most
    once.  ``evaluated`` and ``converted`` count the values evaluated
    and converted since construction or :meth:`clear`.  Only on-grid
    requests (``t0 == step0 * dt``, the only kind the engine produces)
    are memoised.
    """

    __slots__ = ("_step0", "_dt", "_values", "_address", "_floats",
                 "evaluated", "converted")

    def __init__(self) -> None:
        self.clear()

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
        self._floats = []

    def window(
        self,
        t0: float,
        dt: float,
        n: int,
        evaluate: Callable[[np.ndarray], np.ndarray],
    ) -> Tuple[np.ndarray, int, Optional[int]]:
        """The values of the ``n`` steps from ``t0``, their address and
        their index in the held values (None: not held).

        ``evaluate`` maps an array of step times to the waveform values;
        it runs only on a miss, over the steps the memo does not hold.
        """
        step0 = self.grid_step(t0, dt)
        if step0 is None:
            values = np.ascontiguousarray(
                evaluate(chunk_times(t0, dt, n)), dtype=float
            )
            self.evaluated += n
            return values, values.ctypes.data, None
        held = self._values
        lo = step0 - self._step0
        start, kept, mirror = step0, None, []
        if held is not None and dt == self._dt and 0 <= lo <= len(held):
            if lo + n <= len(held):
                return held[lo:lo + n], self._address + 8 * lo, lo
            # Extend forward: keep the held tail (and its mirror).
            start = self._step0 + len(held)
            kept, mirror = held[lo:], self._floats[lo:]
        fresh = evaluate(np.arange(start, step0 + n + LOOKAHEAD) * dt)
        self.evaluated += len(fresh)
        self.put(step0, dt, fresh if kept is None
                 else np.concatenate((kept, fresh)))
        self._floats = mirror
        return self._values[:n], self._address, 0

    def floats(self) -> List[float]:
        """The held values as a list of Python floats, indexed as the
        held array (a window's ``index`` applies to it)."""
        floats = self._floats
        missing = len(self._values) - len(floats)
        if missing:
            floats += self._values[len(floats):].tolist()
            self.converted += missing
        return floats

    def clear(self) -> None:
        """Drop the cache and reset the counters (component reset /
        waveform state change)."""
        self._step0 = 0
        self._dt = 0.0
        self._values = None
        self._address = 0
        self._floats = []
        self.evaluated = 0
        self.converted = 0


#: Why a fast-kernel step ran per-step (see :class:`ChunkStats`).
FALLBACK_REASONS = ("event", "refused", "backoff", "unchunkable")
#: The parts a run's wall time splits into (see :class:`ChunkStats`).
PARTS = ("prepare", "loop", "commit", "step")


@dataclass
class ChunkStats:
    """The kernel record of one :meth:`~repro.sim.engine.Simulator.run`,
    or a simulator's running sum of them (:meth:`merge`).

    ``fallback_steps`` counts every step run per-step; ``fallbacks``
    splits it by reason and always sums to it:

    * ``event`` — the step a chunk stopped before, short of a declared
      boundary or at its first step (``at_event``): the event step
      itself;
    * ``refused`` — a chunk attempt returned 0 without ``at_event`` (no
      load profile or source plan for the present regime);
    * ``backoff`` — skipped without an attempt while backing off after a
      refusal;
    * ``unchunkable`` — the schedule cannot chunk at all (a probe or
      stop condition needs per-step observation, a component has no
      ``step_chunk``), or a single step remains before the horizon.

    ``transitions`` counts the platform transitions chunks followed
    inline (see :class:`TransitionTable`), and ``fallback_transitions``
    the chunks that returned to Python before one, both by
    :data:`TRANSITIONS` name; the chunked component writes them, and
    ``at_event`` (whether its last attempt's first step is a declared
    boundary), into the record it is handed.

    ``parts`` splits the run's wall time, in seconds, by :data:`PARTS`:

    * ``prepare`` — a chunk attempt's storage physics, load profiles
      and source plans (all of a refused attempt);
    * ``loop`` — the compiled or Python chunk-loop call;
    * ``commit`` — the loads' commits (the transient platform's
      table-log replay among them) and the probes' chunk sampling;
    * ``step`` — the rest: steps run one at a time between chunk
      attempts, and the whole run on the reference kernel.

    The clock is read at those boundaries only (:meth:`lap`), never per
    step.
    """

    chunks: int = 0
    chunked_steps: int = 0
    fallback_steps: int = 0
    fallbacks: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FALLBACK_REASONS, 0)
    )
    transitions: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(TRANSITIONS, 0)
    )
    fallback_transitions: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(TRANSITIONS, 0)
    )
    parts: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PARTS, 0.0)
    )
    at_event: bool = field(default=False, repr=False, compare=False)
    #: The clock reading that ended the last part.
    mark: float = field(default=0.0, repr=False, compare=False)

    def lap(self, part: str) -> None:
        """Credit the wall time since the last boundary to ``part``."""
        now = time.perf_counter()
        self.parts[part] += now - self.mark
        self.mark = now

    def merge(self, other: "ChunkStats") -> None:
        """Add ``other``'s counts and part times to this record's."""
        self.chunks += other.chunks
        self.chunked_steps += other.chunked_steps
        self.fallback_steps += other.fallback_steps
        for mine, theirs in (
            (self.fallbacks, other.fallbacks),
            (self.transitions, other.transitions),
            (self.fallback_transitions, other.fallback_transitions),
            (self.parts, other.parts),
        ):
            for key, value in theirs.items():
                mine[key] += value

    def chunked_fraction(self) -> float:
        """Fraction of all steps executed through the chunk path."""
        total = self.chunked_steps + self.fallback_steps
        if total == 0:
            return 0.0
        return self.chunked_steps / total
