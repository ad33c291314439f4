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
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, SnapshotError
from repro.mcu.clock import ClockPlan
from repro.mcu.engine import ComputeEngine
from repro.mcu.power_model import FRAM_TECH, SRAM_TECH, McuPowerModel
from repro.power.rail import RailLoad
from repro.results.metrics import register_metric
from repro.sim.kernel import LoadProfile
from repro.spec.registry import register


class PlatformState(enum.Enum):
    """Device power/execution state."""

    OFF = "off"
    SLEEP = "sleep"
    ACTIVE = "active"
    SNAPSHOT = "snapshot"
    RESTORE = "restore"


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


class Strategy:
    """Checkpointing/adaptation policy driven by platform callbacks.

    Callbacks run with the platform in a consistent state and may invoke
    the platform's transition methods (:meth:`TransientPlatform.go_active`,
    :meth:`~TransientPlatform.go_sleep`,
    :meth:`~TransientPlatform.begin_snapshot`,
    :meth:`~TransientPlatform.begin_restore`).
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

    def sleep_wake_threshold(self, platform: "TransientPlatform") -> Optional[float]:
        """The rail voltage at which :meth:`on_sleep` leaves SLEEP, if any.

        The fast kernel's declared event boundary for the sleeping state:
        returning a float asserts that, while ``v`` stays strictly below
        it, :meth:`on_sleep` is a pure no-op.  Strategies whose
        ``on_sleep`` is the base no-op wake never (``math.inf``); a
        strategy with an overridden ``on_sleep`` and no declared
        threshold returns None, which keeps its sleep per-step.
        """
        if type(self).on_sleep is Strategy.on_sleep:
            return math.inf
        return None

    def active_guard(self, platform: "TransientPlatform") -> Optional[float]:
        """The rail voltage at-or-below which :meth:`on_active` acts, if any.

        The fast kernel's declared event boundary for the ACTIVE state:
        returning a float asserts that, while the rail voltage stays
        *strictly above* it, :meth:`on_active` is a pure no-op (no
        snapshot trigger, no state transition, no mutation).  Strategies
        whose ``on_active`` is the base no-op never act (``-math.inf``);
        a strategy with an overridden ``on_active`` and no declared
        guard returns None, which keeps its ACTIVE execution per-step.
        (:meth:`on_checkpoint_site` needs no guard: checkpoint pauses
        only ever happen during per-step execution — the engine's
        :meth:`~repro.mcu.engine.ComputeEngine.active_plan` ends every
        chunk strictly before a checkpoint site.)
        """
        if type(self).on_active is Strategy.on_active:
            return -math.inf
        return None

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
    payload: Any = None


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
        self._restored_since_boot = False
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
        duration, energy = self.power_model.snapshot_cost(
            words, self.config.snapshot_frequency, voltage=3.0, fram=FRAM_TECH
        )
        self.store.begin_write(payload, words)
        self._operation = _Operation(
            kind="snapshot",
            remaining=duration,
            power=energy / duration if duration > 0 else 0.0,
        )
        self.state = PlatformState.SNAPSHOT
        self.metrics.snapshots_started += 1

    def begin_restore(self) -> None:
        """Start copying the latest snapshot back into volatile state.

        Raises:
            SnapshotError: when no snapshot is committed.
        """
        payload = self.store.latest()
        words = self.store.latest_words()
        duration, energy = self.power_model.restore_cost(
            words, self.config.snapshot_frequency, voltage=3.0,
            fram=FRAM_TECH, sram=SRAM_TECH,
        )
        self._operation = _Operation(
            kind="restore",
            remaining=duration,
            power=energy / duration if duration > 0 else 0.0,
            payload=payload,
        )
        self.state = PlatformState.RESTORE
        self.metrics.restores_started += 1

    def cold_start(self) -> None:
        """Cold-boot the engine (all progress lost) and go active."""
        self.engine.cold_boot()
        self.metrics.cold_boots += 1
        self.go_active()

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
                self.metrics.boots += 1
                self._restored_since_boot = False
                if self.workload_done:
                    self.go_sleep()
                else:
                    self.strategy.on_boot(self, t, v_rail)
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
        """Fast-kernel event schedule descriptor for the current state.

        Every platform state is a piecewise-constant (or, for ACTIVE, a
        voltage-proportional) drain between declared events, so chunking
        survives the whole boot/active/sleep/snapshot cycle:

        * **OFF** — constant ``off_power``; exits when the rail rises
          through ``v_por`` (boot).
        * **SLEEP** — constant ``sleep_power``; exits at the strategy's
          wake threshold or at brownout (``v < v_min``).
        * **ACTIVE** — core power proportional to the rail voltage plus
          the engine's per-step memory energy, as long as the compute
          engine publishes a plan
          (:meth:`~repro.mcu.engine.ComputeEngine.active_plan`) and the
          strategy declares its trigger threshold
          (:meth:`Strategy.active_guard`); exits at the guard, at
          brownout, or before the step where the workload halts or
          pauses at a checkpoint site: a constant plan bounds
          ``max_steps``, a run-ahead plan (the interpreter) becomes the
          profile's ``stretch``.
        * **SNAPSHOT / RESTORE** — constant operation power; exits at
          brownout or when the operation's remaining duration runs out
          (``max_steps``), so the completing step — commit, state
          transition, strategy callback — always runs per-step.

        The state-transition step itself always executes through the
        unmodified :meth:`advance`, which is what keeps event timing
        identical between kernels.
        """
        if type(self).advance is not TransientPlatform.advance:
            # A subclass with its own per-step physics must publish its
            # own profiles; the base declarations would skip them.
            return None
        state = self.state
        model = self.power_model
        config = self.config
        if state is PlatformState.OFF:
            # Below v_min and between v_min and v_por both drain
            # off_power; crossing v_por boots the device.
            return LoadProfile(
                power=model.off_power,
                v_rising=config.v_por,
                commit=self._chunk_commit("off"),
            )
        if v_rail < config.v_min:
            return None  # brownout due: handle it per-step
        if state is PlatformState.SLEEP:
            commit = self._chunk_commit("sleep")
            if self.workload_done:
                return LoadProfile(
                    power=model.sleep_power, v_falling=config.v_min,
                    commit=commit,
                )
            wake = self.strategy.sleep_wake_threshold(self)
            if wake is None:
                return None
            return LoadProfile(
                power=model.sleep_power, v_rising=wake,
                v_falling=config.v_min, commit=commit,
            )
        if state is PlatformState.ACTIVE:
            return self._active_profile(dt, config, model)
        if state in (PlatformState.SNAPSHOT, PlatformState.RESTORE):
            return self._operation_profile(dt, config, state)
        return None

    def _active_profile(self, dt, config, model) -> Optional[LoadProfile]:
        """The ACTIVE-state event schedule, or None to stay per-step."""
        guard = self.strategy.active_guard(self)
        if guard is None:
            return None
        frequency = self.clock.frequency
        budget = max(0, int(frequency * dt))
        plan = self.engine.active_plan(budget, self.stop_at_checkpoints)
        if plan is None:
            return None
        energy, safe_steps, commit_steps = plan
        # The strategy acts when v <= guard; the chunk's falling boundary
        # is strict (v < v_falling), so nudge the guard up one ulp to
        # make `v < boundary` equivalent to `v <= guard`.  Brownout
        # (v < v_min) folds into the same boundary.
        v_fall = config.v_min
        if guard > -math.inf:
            v_fall = max(v_fall, math.nextafter(guard, math.inf))
        metrics = self.metrics

        def commit(steps: int, dt_: float, energy_sum: float) -> int:
            # Always: a run-ahead engine settles even when none commit.
            cycles, memory, reexecuted = commit_steps(steps)
            if steps:
                # `energy_sum` is the summed per-step demand: voltage-
                # proportional core energy plus the memory part.
                metrics.time_in_state["active"] += steps * dt_
                metrics.energy["active"] += energy_sum - memory
                metrics.energy["memory"] += memory
                metrics.cycles_executed += cycles
            return reexecuted

        run_ahead = callable(energy)
        return LoadProfile(
            current=model.active_current(frequency),
            current_gain=model.fram_execution_factor,
            energy=0.0 if run_ahead else energy,
            v_falling=v_fall,
            max_steps=safe_steps,
            commit=commit,
            stretch=energy if run_ahead else None,
        )

    #: Bound on how far ahead an operation profile resolves its
    #: completion step.  Understating ``max_steps`` is always safe (it
    #: only shortens chunks), and the engine never asks for chunks
    #: anywhere near this long — so the cap also bounds the rescan cost
    #: per chunk for a very long operation to O(cap), not O(operation).
    _MAX_OPERATION_LOOKAHEAD = 1 << 13

    def _operation_profile(self, dt, config, state) -> Optional[LoadProfile]:
        """The SNAPSHOT/RESTORE event schedule, or None to stay per-step."""
        operation = self._operation
        if operation is None:
            return None
        # The reference path counts the operation down by repeated
        # `remaining -= dt`; replicate that float-for-float to find how
        # many steps stay strictly in-flight (the completing step runs
        # per-step).
        remaining = operation.remaining
        safe = 0
        while safe < self._MAX_OPERATION_LOOKAHEAD:
            after = remaining - dt
            if after <= 0.0:
                break
            remaining = after
            safe += 1
        if safe <= 0:
            return None
        metrics = self.metrics
        kind = operation.kind
        state_key = state.value

        def commit(steps: int, dt_: float, energy: float) -> None:
            if steps:
                metrics.time_in_state[state_key] += steps * dt_
                metrics.energy[kind] += energy
                left = operation.remaining
                for _ in range(steps):
                    left -= dt_
                operation.remaining = left

        return LoadProfile(
            power=operation.power,
            v_falling=config.v_min,
            max_steps=safe,
            commit=commit,
        )

    def _chunk_commit(self, key: str):
        """Bulk metrics accounting for ``steps`` chunked quiescent steps."""
        def commit(steps: int, dt: float, energy: float) -> None:
            if steps:
                self.metrics.time_in_state[key] += steps * dt
                self.metrics.energy[key] += energy
        return commit

    def reset(self) -> None:
        self.engine.reset()
        self.clock.reset()
        self.store.invalidate()
        self.strategy.reset()
        self.state = PlatformState.OFF
        self.metrics = PlatformMetrics()
        self.workload_done = False
        self._operation = None
        self._restored_since_boot = False
        self.strategy.configure(self)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

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
            self._operation = None
            if operation.kind == "snapshot":
                self.store.commit()
                self.metrics.snapshots_completed += 1
                self.go_sleep()
                self.strategy.on_snapshot_complete(self, t, v)
            else:
                self.engine.restore(operation.payload)
                self.metrics.restores_completed += 1
                self._restored_since_boot = True
                self.go_active()
                self.strategy.on_restore_complete(self, t, v)
        return energy

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
