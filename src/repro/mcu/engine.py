"""Compute-engine abstraction over the interpreter.

Checkpointing strategies need a uniform handle on "the thing making forward
progress".  Two implementations exist:

* :class:`MachineEngine` — the real mini-ISA interpreter.  Snapshots copy
  actual registers and memory; correctness across outages is checked by
  comparing program output against an uninterrupted run.  Used by the
  waveform-level experiments (Figs. 6, 7).  Under the fast kernel the
  chunk loops step its interpreter in the transition table's ACTIVE
  row (:class:`~repro.sim.kernel.MachineSteps`).
* :class:`SyntheticEngine` — a cycle-counting workload with the same
  snapshot geometry but no interpretation.  Used by the large parameter
  sweeps (Eq. 5 crossover, ablations) where thousands of runs would make
  interpretation the bottleneck without changing the answer (progress and
  energy depend on cycle counts and state sizes, not on which instruction
  ran).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import ConfigurationError, SnapshotError
from repro.mcu.machine import Machine
from repro.mcu.power_model import FRAM_TECH, SRAM_TECH, McuPowerModel, MemoryTechnology
from repro.results.metrics import register_metric
from repro.spec.registry import register


@dataclass
class EngineSlice:
    """Result of one ``run_cycles`` call on a compute engine.

    Attributes:
        cycles: cycles actually consumed (<= budget).
        memory_energy: joules of memory-access energy in the slice.
        peripheral_energy: joules of peripheral energy in the slice.
        halted: the workload has fully completed.
        hit_checkpoint: execution paused at a potential-checkpoint site.
    """

    cycles: int = 0
    memory_energy: float = 0.0
    peripheral_energy: float = 0.0
    halted: bool = False
    hit_checkpoint: bool = False


class ComputeEngine:
    """Uniform interface the transient strategies drive."""

    @property
    def done(self) -> bool:
        """True when the workload has run to completion."""
        raise NotImplementedError

    @property
    def full_state_words(self) -> int:
        """Words a full (registers + volatile memory) snapshot occupies."""
        raise NotImplementedError

    @property
    def register_state_words(self) -> int:
        """Words a register-only snapshot occupies."""
        raise NotImplementedError

    def run_cycles(self, budget: int, stop_at_ckpt: bool = False) -> EngineSlice:
        """Execute up to ``budget`` cycles; see :class:`EngineSlice`."""
        raise NotImplementedError

    def active_plan(
        self, cycles_per_step: int, stop_at_ckpt: bool = False
    ) -> Optional["tuple[Any, Optional[int], Any]"]:
        """Fast-kernel descriptor of ACTIVE execution, or None.

        Returns ``(energy, safe_steps, commit)``, in one of two forms.

        * Constant, for an engine with a :meth:`progress_counter` (the
          transition table follows its ACTIVE steps; the platform
          commits each ACTIVE segment through this plan): ``energy`` is
          a float, and for up to ``safe_steps`` further engine steps of
          ``cycles_per_step`` cycles each, every step consumes exactly
          that many cycles and ``energy`` joules of memory + peripheral
          energy (the float :meth:`run_cycles` would report), and no
          step halts, pauses at a checkpoint the caller has to observe,
          or changes engine state beyond pure forward progress.
        * Stepped, for one without (data-dependent cycles and energy:
          the interpreter): ``energy`` is a
          :class:`~repro.sim.kernel.MachineSteps`, which the transition
          table carries and the chunk loops step in its ACTIVE row as
          :meth:`run_cycles` would, and ``safe_steps`` None.

        ``commit(steps)`` applies the first ``steps`` steps and returns
        ``(cycles, memory_energy)`` for them.  A stepped plan's commit
        ignores ``steps``: it applies every step the loop committed, so
        it is called once, after the chunk; a fresh plan starts from no
        steps.  The base engine returns None: ACTIVE stays per-step.
        """
        return None

    def progress_counter(
        self, cycles_per_step: int
    ) -> Optional["tuple[int, int, int, float]"]:
        """Forward progress as data for the fast kernel's transition
        table, or None.

        ``(executed, total_cycles, checkpoint_interval, energy)``
        asserts that progress is one cycle counter: every ACTIVE step
        of ``cycles_per_step`` cycles that neither halts (reaching
        ``total_cycles``) nor reaches a checkpoint site (a multiple of
        ``checkpoint_interval``) adds that many cycles and ``energy``
        joules of memory energy, :meth:`capture` returns the counter,
        :meth:`restore` sets it, :meth:`power_fail` and
        :meth:`cold_boot` zero it, and :meth:`active_plan` vouches for
        such steps in its constant form.  The chunk loops then follow
        the counter across restores and cold boots.  The base engine
        (and the interpreter) returns None: entering ACTIVE returns to
        Python.
        """
        return None

    def capture(self, full: bool) -> Any:
        """Capture volatile state (full or register-only)."""
        raise NotImplementedError

    def restore(self, state: Any) -> None:
        """Restore previously captured state."""
        raise NotImplementedError

    def power_fail(self) -> None:
        """Lose volatile state (supply collapsed below V_min)."""
        raise NotImplementedError

    def cold_boot(self) -> None:
        """Restart from scratch, losing all progress."""
        raise NotImplementedError

    def progress(self) -> float:
        """Forward progress in [0, 1] (best effort for open-ended work)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Full reset to the initial state (fresh run)."""
        raise NotImplementedError


@register("machine", kind="engine")
class MachineEngine(ComputeEngine):
    """Drives a real :class:`~repro.mcu.machine.Machine`.

    Args:
        machine: the interpreter instance.
        power_model: used only for memory-energy accounting of slices.
        expected_total_cycles: optional a-priori cycle count for the
            workload, enabling a meaningful :meth:`progress` value.
        include_peripherals: make full snapshots peripheral-aware — device
            state (ADC stream position, radio FIFO...) is saved and
            restored alongside the CPU state.  Costs a few extra NVM words
            per peripheral; removes the re-execution sample-slip problem
            the paper's discussion section describes.
    """

    def __init__(
        self,
        machine: Machine,
        power_model: Optional[McuPowerModel] = None,
        expected_total_cycles: Optional[int] = None,
        sram: MemoryTechnology = SRAM_TECH,
        fram: MemoryTechnology = FRAM_TECH,
        include_peripherals: bool = False,
    ):
        self.machine = machine
        self.power_model = power_model or McuPowerModel()
        self.expected_total_cycles = expected_total_cycles
        self.sram = sram
        self.fram = fram
        self.include_peripherals = include_peripherals

    @property
    def done(self) -> bool:
        return self.machine.halted

    @property
    def full_state_words(self) -> int:
        # Registers + pc + all of data space (the Hibernus 'save all RAM'),
        # plus per-peripheral context words when peripheral-aware.
        words = 17 + self.machine.config.data_space_words
        if self.include_peripherals:
            words += sum(p.state_words for p in self.machine.ports.values())
        return words

    @property
    def register_state_words(self) -> int:
        return 17

    def run_cycles(self, budget: int, stop_at_ckpt: bool = False) -> EngineSlice:
        if budget < 0:
            raise ConfigurationError("cycle budget must be non-negative")
        if budget == 0 or self.machine.halted:
            return EngineSlice(halted=self.machine.halted)
        raw = self.machine.run(budget, stop_at_ckpt=stop_at_ckpt)
        return EngineSlice(
            cycles=raw.cycles,
            memory_energy=self.power_model.slice_memory_energy(
                raw, sram=self.sram, fram=self.fram
            ),
            peripheral_energy=raw.peripheral_energy,
            halted=raw.halted,
            hit_checkpoint=raw.hit_checkpoint,
        )

    def active_plan(
        self, cycles_per_step: int, stop_at_ckpt: bool = False
    ) -> Optional["tuple[Any, Optional[int], Any]"]:
        """Stepped descriptor (see :meth:`ComputeEngine.active_plan`),
        priced at this engine's SRAM and FRAM technologies."""
        machine = self.machine
        if cycles_per_step <= 0 or machine.halted:
            return None
        if (
            type(self.power_model).slice_memory_energy
            is not McuPowerModel.slice_memory_energy
        ):
            return None  # the loops price accesses as the base model does
        sram, fram = self.sram, self.fram
        steps = machine.active_steps(
            cycles_per_step, stop_at_ckpt,
            (sram.read_energy, sram.write_energy, fram.read_energy,
             fram.write_energy),
        )

        def commit(count: int) -> "tuple[int, float]":
            machine.total_cycles += steps.cycles
            machine.total_instructions += steps.instructions
            return steps.cycles, steps.memory

        return steps, None, commit

    def capture(self, full: bool) -> Any:
        if full:
            return self.machine.capture_full(
                include_peripherals=self.include_peripherals
            )
        if not self.machine.config.data_in_fram:
            raise SnapshotError(
                "register-only snapshots need data in FRAM (QuickRecall config)"
            )
        return self.machine.capture_registers()

    def restore(self, state: Any) -> None:
        self.machine.restore(state)

    def power_fail(self) -> None:
        self.machine.power_fail()

    def cold_boot(self) -> None:
        self.machine.cold_boot()

    def progress(self) -> float:
        if self.machine.halted:
            return 1.0
        if not self.expected_total_cycles:
            return 0.0
        return min(1.0, self.machine.total_cycles / self.expected_total_cycles)

    def reset(self) -> None:
        self.machine.cold_boot()
        self.machine.total_cycles = self.machine.total_instructions = 0
        for peripheral in self.machine.ports.values():
            peripheral.reset()


@register("synthetic", kind="engine")
class SyntheticEngine(ComputeEngine):
    """Cycle-counting workload with configurable snapshot geometry.

    Progress is a single counter; a snapshot is the counter value.  Memory
    energy is approximated as a constant per-cycle figure (matching the
    average the interpreter reports for the mixed workloads).

    Args:
        total_cycles: workload length; the engine halts when reached.
        full_state_words / register_state_words: snapshot geometry, default
            matching a 4 KiB-SRAM machine (2048 words + 17).
        checkpoint_interval: cycles between potential-checkpoint sites
            (Mementos instrumentation density).
        memory_energy_per_cycle: average joules of memory traffic per cycle.
    """

    def __init__(
        self,
        total_cycles: int,
        full_state_words: int = 2065,
        register_state_words: int = 17,
        checkpoint_interval: int = 5000,
        memory_energy_per_cycle: float = 60e-12,
    ):
        if total_cycles <= 0:
            raise ConfigurationError("total_cycles must be positive")
        if checkpoint_interval <= 0:
            raise ConfigurationError("checkpoint_interval must be positive")
        self.total_cycles = total_cycles
        self._full_state_words = full_state_words
        self._register_state_words = register_state_words
        self.checkpoint_interval = checkpoint_interval
        self.memory_energy_per_cycle = memory_energy_per_cycle
        self.executed = 0

    @property
    def done(self) -> bool:
        return self.executed >= self.total_cycles

    @property
    def full_state_words(self) -> int:
        return self._full_state_words

    @property
    def register_state_words(self) -> int:
        return self._register_state_words

    def run_cycles(self, budget: int, stop_at_ckpt: bool = False) -> EngineSlice:
        if budget < 0:
            raise ConfigurationError("cycle budget must be non-negative")
        if self.done or budget == 0:
            return EngineSlice(halted=self.done)
        limit = self.total_cycles - self.executed
        run = min(budget, limit)
        hit_ckpt = False
        if stop_at_ckpt:
            next_site = (
                (self.executed // self.checkpoint_interval) + 1
            ) * self.checkpoint_interval
            to_site = next_site - self.executed
            if to_site <= run:
                run = to_site
                hit_ckpt = True
        self.executed += run
        return EngineSlice(
            cycles=run,
            memory_energy=run * self.memory_energy_per_cycle,
            halted=self.done,
            hit_checkpoint=hit_ckpt and not self.done,
        )

    def active_plan(
        self, cycles_per_step: int, stop_at_ckpt: bool = False
    ) -> Optional["tuple[float, int, Any]"]:
        """Chunk descriptor: progress is a counter, so ACTIVE vectorizes.

        Safe steps are bounded by the workload's halt boundary (the
        halting step must run per-step so completion is observed) and,
        in checkpoint mode, by the next checkpoint site (the step whose
        cycle window reaches a site splits into slices and pauses for
        the strategy, so it must run per-step too).  Every safe step
        consumes exactly ``cycles_per_step`` cycles and the same memory
        energy ``run_cycles`` would report for an unsplit slice.
        """
        if cycles_per_step <= 0 or self.done:
            return None
        limit = self.total_cycles - self.executed
        # Largest k with executed + k*cycles_per_step < total: every
        # chunked step runs a full budget and does not halt.
        safe = (limit - 1) // cycles_per_step
        if stop_at_ckpt:
            next_site = (
                (self.executed // self.checkpoint_interval) + 1
            ) * self.checkpoint_interval
            to_site = next_site - self.executed
            # A step splits when its cycle window reaches the site:
            # keep only steps ending strictly before it.
            safe = min(safe, -(-to_site // cycles_per_step) - 1)
        if safe <= 0:
            return None

        energy = self._step_energy(cycles_per_step)

        def commit(steps: int) -> "tuple[int, float]":
            self.executed += steps * cycles_per_step
            return steps * cycles_per_step, steps * energy

        return energy, safe, commit

    def progress_counter(
        self, cycles_per_step: int
    ) -> "tuple[int, int, int, float]":
        return (self.executed, self.total_cycles, self.checkpoint_interval,
                self._step_energy(cycles_per_step))

    def _step_energy(self, cycles_per_step: int) -> float:
        """Memory joules of one unsplit step: what :meth:`run_cycles`
        reports for it."""
        return cycles_per_step * self.memory_energy_per_cycle

    def capture(self, full: bool) -> Any:
        return self.executed

    def restore(self, state: Any) -> None:
        if not isinstance(state, int):
            raise SnapshotError("synthetic snapshot must be a cycle count")
        self.executed = state

    def power_fail(self) -> None:
        # Volatile progress evaporates with the registers.  The strategy
        # either restores a snapshot or cold-boots afterwards; losing the
        # counter here makes a missing restore visible as lost progress.
        self.executed = 0

    def cold_boot(self) -> None:
        self.executed = 0

    def progress(self) -> float:
        return min(1.0, self.executed / self.total_cycles)

    def reset(self) -> None:
        self.executed = 0


# ---------------------------------------------------------------------------
# Results-pipeline contribution (see repro.results.metrics)
# ---------------------------------------------------------------------------


@register_metric("engine", columns=("cycles_executed", "progress"), order=20)
def _engine_metric_columns(run, spec):
    """Forward-progress counters of the platform's compute engine."""
    platform = run.platform
    if platform is None:
        return None
    emitted = {"cycles_executed": platform.metrics.cycles_executed}
    progress = getattr(platform.engine, "progress", None)
    if callable(progress):
        emitted["progress"] = float(progress())
    return emitted
