"""The transient platform: an MCU device attached to a supply rail.

:class:`TransientPlatform` is the :class:`~repro.power.rail.RailLoad` that
every checkpointing strategy drives.  It owns:

* a :class:`~repro.mcu.engine.ComputeEngine` (the interpreter or a
  synthetic workload),
* a :class:`~repro.mcu.power_model.McuPowerModel` and
  :class:`~repro.mcu.clock.ClockPlan`,
* a :class:`SnapshotStore` (NVM snapshot slots with atomic commit),
* a five-state machine: OFF, SLEEP, ACTIVE, SNAPSHOT, RESTORE.

The *strategy* decides transitions through callbacks; the platform enforces
the physics: brownout below ``v_min`` kills volatile state and aborts any
in-flight snapshot/restore, operations take real time and energy, and all
consumption is drawn from the rail.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional

from repro.errors import ConfigurationError, SimulationError, SnapshotError
from repro.mcu.clock import ClockPlan
from repro.mcu.engine import ComputeEngine
from repro.mcu.power_model import FRAM_TECH, SRAM_TECH, McuPowerModel
from repro.power.rail import RailLoad
from repro.results.metrics import register_metric
from repro.sim import kernel
from repro.sim.kernel import (
    BOOT,
    BROWNOUT,
    COLD_START,
    RESTORE_BEGIN,
    RESTORE_DONE,
    SNAPSHOT_BEGIN,
    SNAPSHOT_DONE,
    TRANSITIONS,
    LoadProfile,
    SourcePlanMemo,
    TransitionTable,
    operation_steps,
)
from repro.spec.registry import register


class PlatformState(enum.Enum):
    """Device power/execution state."""

    OFF = "off"
    SLEEP = "sleep"
    ACTIVE = "active"
    SNAPSHOT = "snapshot"
    RESTORE = "restore"


#: Platform states by transition-table code (``kernel.TABLE_STATES``).
_BY_CODE = tuple(PlatformState(name) for name in kernel.TABLE_STATES)
_CODE = {state: code for code, state in enumerate(_BY_CODE)}
_OPERATIONS = (PlatformState.SNAPSHOT, PlatformState.RESTORE)
#: The state each followed transition leaves the platform in (a boot's
#: is the table's ``boot_state``).
_SUCCESSOR = {
    BROWNOUT: kernel.OFF,
    SNAPSHOT_BEGIN: kernel.SNAPSHOT,
    SNAPSHOT_DONE: kernel.SLEEP,
    RESTORE_BEGIN: kernel.RESTORE,
    RESTORE_DONE: kernel.ACTIVE,
    COLD_START: kernel.ACTIVE,
}


class SnapshotStore:
    """NVM snapshot slots with atomic commit.

    Writes go to the slot *after* the current one; only :meth:`commit`
    makes it visible.  An aborted write (brownout mid-snapshot) therefore
    never corrupts the last good snapshot — with at least two slots, which
    is the default.  A single-slot store models designs that bet on the
    Eq. (4) guarantee instead (an aborted write loses everything).
    """

    def __init__(self, slots: int = 2):
        if slots < 1:
            raise ConfigurationError(f"need at least one slot, got {slots}")
        self._slots: List[Optional[tuple]] = [None] * slots
        self._current = -1
        self._writing = -1
        self._pending: Optional[tuple] = None
        self.sequence = 0
        self.words_written = 0
        self.aborted_writes = 0

    @property
    def slot_count(self) -> int:
        """Number of snapshot slots."""
        return len(self._slots)

    def has_snapshot(self) -> bool:
        """True when a committed snapshot exists."""
        return self._current >= 0

    def latest(self) -> Any:
        """The most recently committed snapshot payload.

        Raises:
            SnapshotError: when nothing has been committed.
        """
        if not self.has_snapshot():
            raise SnapshotError("no committed snapshot")
        return self._slots[self._current][0]

    def latest_words(self) -> int:
        """NVM word count of the most recently committed snapshot."""
        if not self.has_snapshot():
            raise SnapshotError("no committed snapshot")
        return self._slots[self._current][1]

    def begin_write(self, payload: Any, words: int) -> None:
        """Start writing ``payload`` (``words`` NVM words) to the next slot."""
        self._writing = (self._current + 1) % len(self._slots)
        self._pending = (payload, words)
        self.words_written += words

    def commit(self) -> None:
        """Atomically publish the in-flight write."""
        if self._writing < 0:
            raise SnapshotError("commit without begin_write")
        self._slots[self._writing] = self._pending
        self._current = self._writing
        self._writing = -1
        self._pending = None
        self.sequence += 1

    def abort(self) -> None:
        """Discard the in-flight write (supply died mid-snapshot).

        With one slot the previous snapshot is also lost — the slot was
        being overwritten.
        """
        if self._writing < 0:
            return
        if len(self._slots) == 1:
            self._slots[0] = None
            self._current = -1
        self._writing = -1
        self._pending = None
        self.aborted_writes += 1

    def invalidate(self) -> None:
        """Drop all snapshots (fresh deployment)."""
        self._slots = [None] * len(self._slots)
        self._current = -1
        self._writing = -1
        self._pending = None


@dataclass(frozen=True)
class TransientPlatformConfig:
    """Electrical/boot parameters of the device.

    Attributes:
        v_min: brownout voltage; below it all volatile state is lost (the
            paper's expression (2) right-hand side).
        v_por: power-on-reset voltage; rising past it from OFF boots the
            device (the strategy then decides what to do).
        rail_capacitance: the total rail capacitance C the strategy may use
            for Eq. (4) calibration.  It should match the attached storage
            element; strategies that self-calibrate (Hibernus++) ignore it.
        snapshot_frequency: core clock used during snapshot/restore DMA
            (strategies snapshot at a fixed safe frequency).
        on_complete: 'sleep' parks the device when the workload halts;
            'restart' cold-boots the engine for continuous duty.
    """

    v_min: float = 1.8
    v_por: float = 2.0
    rail_capacitance: float = 22e-6
    snapshot_frequency: float = 8e6
    on_complete: str = "sleep"

    def __post_init__(self) -> None:
        if not 0.0 < self.v_min <= self.v_por:
            raise ConfigurationError("need 0 < v_min <= v_por")
        if self.rail_capacitance <= 0.0:
            raise ConfigurationError("rail capacitance must be positive")
        if self.snapshot_frequency <= 0.0:
            raise ConfigurationError("snapshot frequency must be positive")
        if self.on_complete not in ("sleep", "restart"):
            raise ConfigurationError("on_complete must be 'sleep' or 'restart'")


class InlineHooks(NamedTuple):
    """A strategy's part of the transition table the chunk loops follow
    (see :meth:`TransientPlatform.load_profile`): where its hooks act
    and what they do there.

    The thresholds vouch that a hook is a pure no-op on the near side
    of them; each hook field vouches that the hook, at its threshold,
    always leaves the state named and changes nothing else the table
    reads (thresholds, snapshot geometry).  Other side effects are
    fine: the platform replays the real hook, with the step's time and
    voltage, in order.  A None threshold and the other defaults vouch
    for nothing, which keeps those transitions in Python.  The platform
    reads the record once per chunk, so a strategy whose thresholds
    move (Hibernus++) publishes the present ones.

    Attributes:
        boot: the state :meth:`Strategy.on_boot` leaves a booting device
            in: SLEEP, or ACTIVE through
            :meth:`TransientPlatform.cold_start`.
        wake: :meth:`Strategy.on_sleep`, at ``wake_at``, calls
            :meth:`TransientPlatform.wake`.
        snapshot_words: :meth:`Strategy.on_active`, at ``guard``, begins
            a snapshot of this many NVM words.
        wake_at: the SLEEP row's exit: while ``v`` stays strictly below
            it, :meth:`Strategy.on_sleep` is a pure no-op.
        guard: the ACTIVE row's exit: while ``v`` stays strictly above
            it, :meth:`Strategy.on_active` is a pure no-op (no snapshot
            trigger, no state transition, no mutation).
            (:meth:`Strategy.on_checkpoint_site` needs no guard: chunks
            stop strictly before a checkpoint site.)
    """

    boot: Optional[PlatformState] = None
    wake: bool = False
    snapshot_words: Optional[int] = None
    wake_at: Optional[float] = None
    guard: Optional[float] = None


class Strategy:
    """Checkpointing/adaptation policy driven by platform callbacks.

    Callbacks run with the platform in a consistent state and may invoke
    the platform's transition methods (:meth:`TransientPlatform.go_active`,
    :meth:`~TransientPlatform.go_sleep`,
    :meth:`~TransientPlatform.begin_snapshot`,
    :meth:`~TransientPlatform.begin_restore`,
    :meth:`~TransientPlatform.wake`).  Each rule lives in its hook;
    :meth:`inline_hooks` only declares, for the fast kernel's transition
    table, where a hook acts and which transition it then takes.
    """

    name = "abstract"

    def configure(self, platform: "TransientPlatform") -> None:
        """One-time design/boot-time calibration hook."""

    def on_boot(self, platform: "TransientPlatform", t: float, v: float) -> None:
        """Device crossed v_por from OFF.  Decide restore/cold start/sleep."""
        raise NotImplementedError

    def on_active(self, platform: "TransientPlatform", t: float, v: float) -> None:
        """Called every step while ACTIVE, before cycles execute."""

    def on_sleep(self, platform: "TransientPlatform", t: float, v: float) -> None:
        """Called every step while SLEEPING."""

    def inline_hooks(self, platform: "TransientPlatform") -> InlineHooks:
        """Where the hooks act and what they do there (see
        :class:`InlineHooks`).  The base vouches only for its own no-op
        hooks, which never act (``wake_at=inf``, ``guard=-inf``).  A
        subclass declares the hooks it defines; one that overrides a
        hook it does not declare keeps that hook in Python."""
        kind = type(self)
        return InlineHooks(
            wake_at=math.inf if kind.on_sleep is Strategy.on_sleep else None,
            guard=-math.inf if kind.on_active is Strategy.on_active else None,
        )

    def on_checkpoint_site(
        self, platform: "TransientPlatform", t: float, v: float
    ) -> None:
        """Execution paused at a ``ckpt`` marker (only when the strategy
        enabled ``stop_at_checkpoints``)."""

    def on_snapshot_complete(
        self, platform: "TransientPlatform", t: float, v: float
    ) -> None:
        """A snapshot write committed."""

    def on_restore_complete(
        self, platform: "TransientPlatform", t: float, v: float
    ) -> None:
        """A restore finished; engine state is the snapshot's."""

    def on_power_fail(self, platform: "TransientPlatform", t: float) -> None:
        """Brownout: volatile state is gone."""

    def reset(self) -> None:
        """Forget adaptive state (fresh deployment)."""


@dataclass
class PlatformMetrics:
    """Counters and energy breakdown accumulated over a run."""

    boots: int = 0
    brownouts: int = 0
    snapshots_started: int = 0
    snapshots_completed: int = 0
    snapshots_aborted: int = 0
    restores_started: int = 0
    restores_completed: int = 0
    restores_aborted: int = 0
    cold_boots: int = 0
    cycles_executed: int = 0
    completions: int = 0
    first_completion_time: Optional[float] = None
    energy: Dict[str, float] = field(
        default_factory=lambda: {
            "active": 0.0,
            "sleep": 0.0,
            "off": 0.0,
            "snapshot": 0.0,
            "restore": 0.0,
            "memory": 0.0,
            "peripheral": 0.0,
        }
    )
    time_in_state: Dict[str, float] = field(
        default_factory=lambda: {state.value: 0.0 for state in PlatformState}
    )

    def total_energy(self) -> float:
        """Total joules consumed across all categories."""
        return sum(self.energy.values())

    def overhead_energy(self) -> float:
        """Joules spent on checkpointing rather than computation."""
        return self.energy["snapshot"] + self.energy["restore"]


@dataclass
class _Operation:
    kind: str  # 'snapshot' | 'restore'
    remaining: float
    power: float
    words: int
    payload: Any = None
    #: ``(remaining, dt, steps)``: the countdown's steps left from that
    #: ``remaining`` (so a long operation is counted down once, not once
    #: per chunk).
    countdown: tuple = ()


class TransientPlatform(RailLoad):
    """The rail-attached MCU device (see module docstring)."""

    def __init__(
        self,
        engine: ComputeEngine,
        strategy: Strategy,
        power_model: Optional[McuPowerModel] = None,
        clock: Optional[ClockPlan] = None,
        config: Optional[TransientPlatformConfig] = None,
        store: Optional[SnapshotStore] = None,
    ):
        self.engine = engine
        self.strategy = strategy
        self.power_model = power_model or McuPowerModel()
        self.clock = clock or ClockPlan.msp430_like()
        self.config = config or TransientPlatformConfig()
        self.store = store or SnapshotStore()
        self.state = PlatformState.OFF
        self.metrics = PlatformMetrics()
        #: When True, ACTIVE execution pauses at ckpt markers and the
        #: strategy's on_checkpoint_site fires (Mementos mode).
        self.stop_at_checkpoints = False
        #: Latched once the workload completes in 'sleep' mode: the device
        #: parks permanently instead of being re-woken by its strategy.
        self.workload_done = False
        self._operation: Optional[_Operation] = None
        #: Operation costs by (kind, words), the fast kernel's table
        #: profile with what its rows were built from, the running
        #: chunk's start and the machine plan its table runs, until
        #: committed (see _table_profile).
        self._costs: Dict[tuple, tuple] = {}
        self._table_key: Optional[tuple] = None
        self._table: Optional[TransitionTable] = None
        self._words: tuple = (None, None)
        self._chunk: tuple = ()
        self._plan: Optional[tuple] = None
        strategy.configure(self)

    # ------------------------------------------------------------------
    # Transition methods (called by strategies)
    # ------------------------------------------------------------------

    def go_active(self) -> None:
        """Enter ACTIVE execution."""
        self.state = PlatformState.ACTIVE

    def go_sleep(self) -> None:
        """Enter low-power SLEEP (volatile state retained)."""
        self.state = PlatformState.SLEEP

    def begin_snapshot(self, full: bool = True, words: Optional[int] = None) -> None:
        """Start writing a snapshot of the current volatile state to NVM.

        Args:
            full: capture RAM + registers (True) or registers only.
            words: override the NVM word count used for cost accounting —
                hardware-assisted backups (NVP) move less data than the
                logical state they preserve.
        """
        payload = self.engine.capture(full)
        if words is None:
            words = (
                self.engine.full_state_words
                if full
                else self.engine.register_state_words
            )
        duration, power = self._operation_cost("snapshot", words)
        self.store.begin_write(payload, words)
        self._operation = _Operation("snapshot", duration, power, words)
        self.state = PlatformState.SNAPSHOT
        self.metrics.snapshots_started += 1

    def begin_restore(self) -> None:
        """Start copying the latest snapshot back into volatile state.

        Raises:
            SnapshotError: when no snapshot is committed.
        """
        payload = self.store.latest()
        words = self.store.latest_words()
        duration, power = self._operation_cost("restore", words)
        self._operation = _Operation("restore", duration, power, words,
                                     payload)
        self.state = PlatformState.RESTORE
        self.metrics.restores_started += 1

    def cold_start(self) -> None:
        """Cold-boot the engine (all progress lost) and go active."""
        self.engine.cold_boot()
        self.metrics.cold_boots += 1
        self.go_active()

    def wake(self) -> None:
        """Restore the held snapshot, else cold-start."""
        if self.store.has_snapshot():
            self.begin_restore()
        else:
            self.cold_start()

    def _operation_cost(self, kind: str, words: int) -> "tuple[float, float]":
        """``(duration, power)`` of a ``words``-word snapshot or restore
        (memoised: a pure function of the power model and config)."""
        cost = self._costs.get((kind, words))
        if cost is None:
            frequency = self.config.snapshot_frequency
            if kind == "snapshot":
                duration, energy = self.power_model.snapshot_cost(
                    words, frequency, voltage=3.0, fram=FRAM_TECH
                )
            else:
                duration, energy = self.power_model.restore_cost(
                    words, frequency, voltage=3.0, fram=FRAM_TECH,
                    sram=SRAM_TECH,
                )
            cost = self._costs[kind, words] = (
                duration, energy / duration if duration > 0 else 0.0
            )
        return cost

    # ------------------------------------------------------------------
    # RailLoad interface
    # ------------------------------------------------------------------

    def advance(self, t: float, dt: float, v_rail: float) -> float:
        energy = 0.0
        # Brownout check first: losing power trumps everything.
        if v_rail < self.config.v_min:
            if self.state is not PlatformState.OFF:
                self._brownout(t)
            self.metrics.time_in_state[PlatformState.OFF.value] += dt
            energy = self.power_model.off_power * dt
            self.metrics.energy["off"] += energy
            return energy

        if self.state is PlatformState.OFF:
            if v_rail >= self.config.v_por:
                self._boot(t, v_rail)
            else:
                self.metrics.time_in_state[PlatformState.OFF.value] += dt
                energy = self.power_model.off_power * dt
                self.metrics.energy["off"] += energy
                return energy

        # Strategy hooks may change state before the step's physics run.
        if self.state is PlatformState.ACTIVE:
            self.strategy.on_active(self, t, v_rail)
        elif self.state is PlatformState.SLEEP and not self.workload_done:
            self.strategy.on_sleep(self, t, v_rail)

        state = self.state
        self.metrics.time_in_state[state.value] += dt

        if state is PlatformState.ACTIVE:
            energy = self._step_active(t, dt, v_rail)
        elif state is PlatformState.SLEEP:
            energy = self.power_model.sleep_power * dt
            self.metrics.energy["sleep"] += energy
        elif state in (PlatformState.SNAPSHOT, PlatformState.RESTORE):
            energy = self._step_operation(t, dt, v_rail)
        else:  # OFF handled above; defensive
            energy = self.power_model.off_power * dt
            self.metrics.energy["off"] += energy
        return energy

    def load_profile(
        self, t: float, dt: float, v_rail: float
    ) -> Optional[LoadProfile]:
        """Fast-kernel descriptor: the platform's transition table.

        The chunk loops follow the table (:class:`~repro.sim.kernel.
        TransitionTable`) across transitions, through the cascade of
        :meth:`advance`: brownout, boot, one strategy hook, the
        physics of the resulting state, then operation completion.  Its
        rows come from the power model, the strategy's declared
        thresholds and hooks (:meth:`Strategy.inline_hooks`, read once
        per chunk), and the engine's progress
        counter (:meth:`~repro.mcu.engine.ComputeEngine.progress_counter`),
        and are rebuilt only when one of those changes; the running state
        is set every chunk.  Each row, in :meth:`advance`'s own
        comparisons:

        * **OFF** — ``off_power``; boots at ``v >= v_por``.
        * **SLEEP** — ``sleep_power``; wakes at ``v >= wake``.
        * **ACTIVE** — core power proportional to the rail voltage plus
          the engine's per-step memory energy and cycles, from its
          progress counter
          (:meth:`~repro.mcu.engine.ComputeEngine.progress_counter`) or,
          on an engine without one (the interpreter), from one engine
          step of its stepped plan
          (:meth:`~repro.mcu.engine.ComputeEngine.active_plan`) per
          step; snapshots at ``v <= guard``.
        * **SNAPSHOT / RESTORE** — constant operation power for the
          operation's step count (the reference's ``remaining -= dt``
          countdown); then commits and sleeps, or reloads and goes
          ACTIVE.
        * every state but OFF browns out at ``v < v_min``.

        These return to Python (the chunk stops before the step, which
        runs through :meth:`advance`): the step that halts the workload
        or reaches a checkpoint site, and an interpreter step that does
        port I/O or faults; a hook the strategy does not vouch for;
        completion and power-fail hooks the strategy overrides
        (Hibernus++'s adaptation, NVP, Mementos); and entering a state
        the table cannot follow: ACTIVE on an engine without a progress
        counter (a cold start or a restore changes the interpreter's
        state in Python), or a state whose threshold the strategy does
        not declare.  A chunk starts ACTIVE on such an engine only with
        its stepped plan.

        The commit replays the loop's transition log through the
        platform's own methods and hooks, in order, so the store, the
        engine and the counters keep one implementation; a replay the
        table disagrees with raises :class:`SimulationError`.
        """
        if type(self).advance is not TransientPlatform.advance:
            # A subclass with its own per-step physics must publish its
            # own profiles; the base declarations would skip them.
            return None
        frequency = self.clock.frequency
        budget = max(0, int(frequency * dt))
        counter = self.engine.progress_counter(budget) if budget else None
        return self._table_profile(t, dt, frequency, budget, counter)

    def _table_profile(self, t, dt, frequency, budget, counter
                       ) -> Optional[LoadProfile]:
        """This chunk's table profile (see :meth:`load_profile`), or
        None when the present state has no row.  The rows are rebuilt
        only when what they are built from changes; the running state,
        and an ACTIVE chunk's machine plan, are set per chunk."""
        store = self.store
        hooks = self.strategy.inline_hooks(self)
        if self.workload_done:
            # A done workload parks in SLEEP; its hooks never run again.
            hooks = hooks._replace(boot=PlatformState.SLEEP,
                                   wake_at=math.inf)
        state = self.state
        operation = self._operation
        plan = None
        if state is PlatformState.ACTIVE and counter is None:
            plan = self.engine.active_plan(budget, self.stop_at_checkpoints)
        if (
            state is PlatformState.ACTIVE
            and (hooks.guard is None or counter is None and plan is None)
            or state is PlatformState.SLEEP and hooks.wake_at is None
            or state in _OPERATIONS and operation is None
        ):
            return None
        # The words of the snapshot in flight or else of one the guard
        # would begin, and of the one a restore would read.
        writing = hooks.snapshot_words
        if operation is not None and operation.kind == "snapshot":
            writing = operation.words
        held = store.has_snapshot()
        reading = store.latest_words() if held else writing
        if counter is None:
            executed, total, site, energy = 0, 0, 0, 0.0
        else:
            executed, total, site, energy = counter
            if not self.stop_at_checkpoints:
                site = 0
        key = (
            dt, frequency, budget, counter is None, total, site, energy,
            hooks, writing, reading, store.slot_count,
        )
        if key != self._table_key:
            self._table_key = key
            self._table = self._build_table(key)
        table = self._table
        table.state = _CODE[state]
        table.executed = table.pending = executed
        table.left = 0
        if operation is not None:
            remaining = operation.remaining
            if operation.countdown[:2] == (remaining, dt):
                table.left = operation.countdown[2]
            else:
                table.left = operation_steps(remaining, dt)
        table.has_snapshot = held
        table.payload = store.latest() if held and counter is not None else 0
        table.machine = None if plan is None else plan[0]
        self._plan = plan
        self._chunk = (t, table.left)
        # A profile per chunk: a cached one would hold the platform
        # through its commit, a cycle only the garbage collector frees.
        return LoadProfile(table=table, commit=self._replay)

    def _build_table(self, key: tuple) -> TransitionTable:
        """A table's rows from what :meth:`_table_profile` read."""
        (dt, frequency, budget, no_counter, total, site, energy, hooks,
         writing, reading, slots) = key
        guard, wake, boot = hooks.guard, hooks.wake_at, hooks.boot
        strategy = type(self.strategy)
        active_row = guard is not None and not no_counter
        # The transitions that return to Python, as TRANSITIONS bits.
        python = 0
        if (
            boot is None
            or boot is PlatformState.SLEEP and wake is None
            or boot is PlatformState.ACTIVE and not active_row
        ):
            python |= 1 << BOOT
        if strategy.on_power_fail is not Strategy.on_power_fail:
            python |= 1 << BROWNOUT
        if not hooks.wake:
            python |= 1 << RESTORE_BEGIN | 1 << COLD_START
        if not active_row:
            python |= 1 << COLD_START | 1 << RESTORE_DONE
        if strategy.on_restore_complete is not Strategy.on_restore_complete:
            python |= 1 << RESTORE_DONE
        if (
            strategy.on_snapshot_complete is not Strategy.on_snapshot_complete
            or wake is None
        ):
            python |= 1 << SNAPSHOT_DONE
        # The snapshot row costs `writing` words: the snapshot in
        # flight's, else the guard's.  A new snapshot of other words,
        # and a commit that would change what restores read, stay in
        # Python.
        if hooks.snapshot_words is None or writing != hooks.snapshot_words:
            python |= 1 << SNAPSHOT_BEGIN
        if writing != reading:
            python |= 1 << SNAPSHOT_DONE
        self._words = writing, reading
        snapshot_steps, snapshot_power = self._operation_row(
            "snapshot", writing, dt)
        restore_steps, restore_power = self._operation_row(
            "restore", reading, dt)
        if guard is None or guard == -math.inf:
            guard_fall = -math.inf
        else:
            # `v <= guard` as the loops' strict `v < guard_fall`.
            guard_fall = math.nextafter(guard, math.inf)
        model = self.power_model
        table = TransitionTable(
            v_min=self.config.v_min,
            v_por=self.config.v_por,
            guard=guard_fall,
            wake=math.inf if wake is None else wake,
            boot_state=_CODE[boot] if boot is not None else kernel.SLEEP,
            energies=(
                model.off_power * dt, model.sleep_power * dt,
                restore_power * dt, snapshot_power * dt, 0.0 * dt + energy,
            ),
            current=model.active_current(frequency),
            current_gain=model.fram_execution_factor,
            snapshot_steps=snapshot_steps,
            restore_steps=restore_steps,
            budget=budget,
            total=total,
            site_interval=site,
            single_slot=slots == 1,
            python=python,
        )
        return table

    def _operation_row(self, kind: str, words: Optional[int], dt: float):
        """``(steps, power)`` of a fresh ``words``-word operation
        (``(0, 0.0)`` for none)."""
        if words is None:
            return 0, 0.0
        duration, power = self._operation_cost(kind, words)
        return operation_steps(duration, dt), power

    def _replay(self, steps: int, dt: float, energy: float) -> None:
        """Apply a chunk the loop followed through the table: its
        transitions (:meth:`_replay_log`), the ACTIVE steps after the
        last, then the bulk accounting."""
        table = self._table
        left = self._chunk[1]
        if table.log:
            left = self._replay_log(table, dt)
        if table.active_steps:
            self._commit_active(table.active_steps, table.budget)
        metrics = self.metrics
        for name, count, joules in zip(
            kernel.TABLE_STATES, table.counts, table.sums
        ):
            if count:
                metrics.time_in_state[name] += count * dt
                metrics.energy[name] += joules
        operation = self._operation
        if operation is not None:
            remaining = operation.remaining
            for _ in range(left - table.left):
                remaining -= dt
            operation.remaining = remaining
            operation.countdown = (remaining, dt, table.left)

    def _replay_log(self, table: TransitionTable, dt: float) -> int:
        """The chunk's transitions through the platform's own methods
        and hooks, each after the ACTIVE steps before it, at its step's
        time and voltage.  Returns the steps the operation in flight at
        the end had when the chunk began or when it began."""
        # The chunk's start and its in-flight operation's steps then;
        # the words the table's operation rows cost.
        t0, left = self._chunk
        snapshot_words, restore_words = self._words
        budget = table.budget
        step0 = SourcePlanMemo.grid_step(t0, dt)
        for step, code, v, active in table.log:
            if active:
                self._commit_active(active, budget)
            t = (step0 + step) * dt if step0 is not None else t0 + step * dt
            if code == BOOT:
                self._boot(t, v)
                successor = table.boot_state
            elif code == BROWNOUT:
                self._brownout(t)
            elif code == SNAPSHOT_BEGIN:
                self.strategy.on_active(self, t, v)
                left = table.snapshot_steps
                words = snapshot_words
            elif code == RESTORE_BEGIN or code == COLD_START:
                self.strategy.on_sleep(self, t, v)
                left = table.restore_steps
                words = restore_words
            else:
                self._complete_operation(t, v)
            if code != BOOT:
                successor = _SUCCESSOR[code]
            if self.state is not _BY_CODE[successor] or (
                successor in (kernel.SNAPSHOT, kernel.RESTORE)
                and self._operation.words != words
            ):
                raise SimulationError(
                    f"transition table disagrees with the platform: "
                    f"{TRANSITIONS[code]} at t={t!r} left "
                    f"{self.state.value}, the table "
                    f"{kernel.TABLE_STATES[successor]}"
                )
        if (
            self.state is not _BY_CODE[table.state]
            or self.store.has_snapshot() is not table.has_snapshot
        ):
            raise SimulationError(
                "transition table disagrees with the platform at the "
                "end of a chunk"
            )
        return left

    def _commit_active(self, steps: int, budget: int) -> None:
        """Commit ``steps`` ACTIVE steps the table followed to the
        engine, through its own plan: the machine plan the table ran
        (whose commit applies every step the chunk committed, so once
        a chunk), or else a constant one."""
        plan = self._plan
        if plan is not None:
            self._plan = None
        else:
            plan = self.engine.active_plan(budget, self.stop_at_checkpoints)
            if plan is None or plan[1] < steps:
                raise SimulationError(
                    f"transition table ran {steps} ACTIVE steps the engine "
                    f"does not vouch for"
                )
        cycles, memory = plan[2](steps)
        self.metrics.cycles_executed += cycles
        self.metrics.energy["memory"] += memory

    def reset(self) -> None:
        self.engine.reset()
        self.clock.reset()
        self.store.invalidate()
        self.strategy.reset()
        self.state = PlatformState.OFF
        self.metrics = PlatformMetrics()
        self.workload_done = False
        self._operation = None
        self.strategy.configure(self)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _boot(self, t: float, v: float) -> None:
        """The rail crossed v_por from OFF: count the boot and let the
        strategy choose (a completed workload parks in SLEEP)."""
        self.metrics.boots += 1
        if self.workload_done:
            self.go_sleep()
        else:
            self.strategy.on_boot(self, t, v)

    def _step_active(self, t: float, dt: float, v: float) -> float:
        frequency = self.clock.frequency
        budget = max(0, int(frequency * dt))
        active = self.power_model.active_power(frequency, v) * dt
        self.metrics.energy["active"] += active
        extra = 0.0
        # Execute through checkpoint sites until the step's cycle budget is
        # spent or the strategy changes state (e.g. starts a snapshot).
        while budget > 0 and self.state is PlatformState.ACTIVE:
            slice_ = self.engine.run_cycles(
                budget, stop_at_ckpt=self.stop_at_checkpoints
            )
            budget -= slice_.cycles
            self.metrics.cycles_executed += slice_.cycles
            self.metrics.energy["memory"] += slice_.memory_energy
            self.metrics.energy["peripheral"] += slice_.peripheral_energy
            extra += slice_.memory_energy + slice_.peripheral_energy
            if slice_.halted:
                self._handle_completion(t)
                break
            if slice_.hit_checkpoint:
                self.strategy.on_checkpoint_site(self, t, v)
                continue
            if slice_.cycles == 0:
                break
        return active + extra

    def _handle_completion(self, t: float) -> None:
        self.metrics.completions += 1
        if self.metrics.first_completion_time is None:
            self.metrics.first_completion_time = t
        if self.config.on_complete == "restart":
            self.engine.cold_boot()
        else:
            self.workload_done = True
            self.go_sleep()

    def _step_operation(self, t: float, dt: float, v: float) -> float:
        operation = self._operation
        if operation is None:
            # Defensive: state says op but none exists; park in sleep.
            self.go_sleep()
            return self.power_model.sleep_power * dt
        energy = operation.power * dt
        self.metrics.energy[operation.kind] += energy
        operation.remaining -= dt
        if operation.remaining <= 0.0:
            self._complete_operation(t, v)
        return energy

    def _complete_operation(self, t: float, v: float) -> None:
        """The in-flight snapshot commits and the device sleeps, or the
        restore reloads the engine and the device goes active."""
        operation = self._operation
        self._operation = None
        if operation.kind == "snapshot":
            self.store.commit()
            self.metrics.snapshots_completed += 1
            self.go_sleep()
            self.strategy.on_snapshot_complete(self, t, v)
        else:
            self.engine.restore(operation.payload)
            self.metrics.restores_completed += 1
            self.go_active()
            self.strategy.on_restore_complete(self, t, v)

    def _brownout(self, t: float) -> None:
        if self._operation is not None:
            if self._operation.kind == "snapshot":
                self.store.abort()
                self.metrics.snapshots_aborted += 1
            else:
                self.metrics.restores_aborted += 1
            self._operation = None
        self.engine.power_fail()
        self.state = PlatformState.OFF
        self.metrics.brownouts += 1
        self.strategy.on_power_fail(self, t)


@register("null", kind="strategy")
class NullStrategy(Strategy):
    """No checkpointing at all: cold-start on every boot.

    The baseline the transient systems are measured against — it can only
    finish workloads that fit inside a single powered interval.
    """

    name = "null"

    def on_boot(self, platform: TransientPlatform, t: float, v: float) -> None:
        platform.cold_start()

    def inline_hooks(self, platform: TransientPlatform) -> InlineHooks:
        hooks = super().inline_hooks(platform)
        if type(self).on_boot is not NullStrategy.on_boot:
            return hooks
        return hooks._replace(boot=PlatformState.ACTIVE)


# ---------------------------------------------------------------------------
# Results-pipeline contribution (see repro.results.metrics)
# ---------------------------------------------------------------------------


@register_metric(
    "platform",
    columns=(
        "completed",
        "completion_time",
        "brownouts",
        "snapshots",
        "snapshots_aborted",
        "restores",
        "energy_total",
        "energy_overhead",
        "availability",
    ),
    order=10,
)
def _platform_metric_columns(run, spec):
    """The transient platform's counters; None for platform-less runs."""
    platform = run.platform
    if platform is None:
        return None
    m = platform.metrics
    active = m.time_in_state[PlatformState.ACTIVE.value]
    return {
        "completed": m.first_completion_time is not None,
        "completion_time": m.first_completion_time,
        "brownouts": m.brownouts,
        "snapshots": m.snapshots_completed,
        "snapshots_aborted": m.snapshots_aborted,
        "restores": m.restores_completed,
        "energy_total": m.total_energy(),
        "energy_overhead": m.overhead_energy(),
        "availability": (active / run.t_end) if run.t_end > 0.0 else 0.0,
    }
