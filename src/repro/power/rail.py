"""The supply rail: the single electrical node every system shares.

One :class:`SupplyRail` owns a storage element, any number of *injectors*
(conditioned harvester outputs pushing charge/energy in) and any number of
*loads* (anything consuming energy — an MCU wrapper, a radio, a resistor).
Each engine step it: injects, leaks, then lets every load advance and draw.

Loads see the rail voltage *at the start of the step*; with the timesteps
used throughout (tens of microseconds to milliseconds against RC constants
of milliseconds to hours) the first-order error is negligible, and the
explicit scheme keeps every component O(1) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import degrade
from repro.errors import ConfigurationError
from repro.harvest.base import PowerHarvester, VoltageHarvester
from repro.power.converter import ConversionStage
from repro.power.mppt import FractionalVocMPPT
from repro.power.rectifier import HalfWaveRectifier
from repro.sim import _ckernel
from repro.sim.engine import Component
from repro.sim.kernel import (
    ACTIVE,
    BOOT,
    BROWNOUT,
    CHECKPOINT_SITE,
    COLD_START,
    HALT,
    LOG_CAPACITY,
    OFF,
    PORT_OR_FAULT,
    RESTORE,
    RESTORE_BEGIN,
    RESTORE_DONE,
    SLEEP,
    SNAPSHOT,
    SNAPSHOT_BEGIN,
    SNAPSHOT_DONE,
    TABLE_STATES,
    TRANSITIONS,
    CapacitorPhysics,
    ChunkStats,
    LoadProfile,
    PowerSourcePlan,
    SourcePlanMemo,
    VoltageSourcePlan,
)
from repro.results.metrics import register_metric
from repro.spec.registry import register
from repro.storage.base import StorageElement


class RailLoad:
    """Interface for anything that consumes energy from the rail."""

    def advance(self, t: float, dt: float, v_rail: float) -> float:
        """Advance internal state across ``dt`` and return joules consumed."""
        raise NotImplementedError

    def load_profile(
        self, t: float, dt: float, v_rail: float
    ) -> Optional[LoadProfile]:
        """Fast-kernel descriptor of the load's present regime, or None.

        Returning a :class:`~repro.sim.kernel.LoadProfile` asserts that,
        until the rail voltage crosses one of the profile's voltage
        boundaries or ``max_steps`` steps elapse, :meth:`advance` would
        demand exactly the profile's per-step energy with no other side
        effects (any deferred side effects being settled by the
        profile's ``commit``).  None keeps the load on per-step
        execution.
        """
        return None

    def reset(self) -> None:
        """Restore initial state (default: no-op)."""


@register("resistive", kind="load")
class ResistiveLoad(RailLoad):
    """A plain resistor to ground — the simplest possible load."""

    def __init__(self, resistance: float):
        if resistance <= 0.0:
            raise ConfigurationError(f"resistance must be positive, got {resistance!r}")
        self.resistance = resistance

    def advance(self, t: float, dt: float, v_rail: float) -> float:
        return v_rail * v_rail / self.resistance * dt

    def load_profile(
        self, t: float, dt: float, v_rail: float
    ) -> Optional[LoadProfile]:
        if type(self) is not ResistiveLoad:
            return None
        return LoadProfile(resistance=self.resistance)


class Injector:
    """Interface for conditioned sources pushing energy into the rail."""

    def inject(self, t: float, dt: float, v_rail: float, storage: StorageElement) -> float:
        """Push charge/energy into ``storage``; return joules delivered."""
        raise NotImplementedError

    def chunk_plan(self, t0: float, dt: float, n: int):
        """Fast-kernel source plan covering ``n`` steps from ``t0``, or None."""
        return None

    def reset(self) -> None:
        """Restore initial state (default: no-op)."""


class HarvesterInjector(Injector):
    """Power-domain harvester -> (MPPT) -> (converter) -> storage.

    The Fig. 3 harvester-side chain.  Energy-conserving: the joules pushed
    into storage equal converter output power times dt (minus whatever the
    storage shunts at its overvoltage clamp).
    """

    def __init__(
        self,
        harvester: PowerHarvester,
        converter: Optional[ConversionStage] = None,
        mppt: Optional[FractionalVocMPPT] = None,
    ):
        self.harvester = harvester
        self.converter = converter
        self.mppt = mppt
        self._memo = SourcePlanMemo()

    def inject(self, t: float, dt: float, v_rail: float, storage: StorageElement) -> float:
        available = self.harvester.power(t)
        if self.mppt is not None:
            available = self.mppt.captured_power(available, dt)
        if self.converter is not None:
            available = self.converter.output_power(available, v_rail if v_rail > 0 else 1.0)
        if available <= 0.0:
            return 0.0
        return storage.add_energy(available * dt)

    def chunk_plan(self, t0: float, dt: float, n: int):
        if type(self).inject is not HarvesterInjector.inject:
            return None  # subclass changed the injection physics
        if self.mppt is not None:
            return None  # the tracker's convergence lag is per-step state
        if not self.harvester.chunk_safe():
            return None  # stateful sampling: discarded chunks would desync it
        values, address, index = self._memo.window(
            t0, dt, n, self.harvester.power_array
        )
        return PowerSourcePlan(
            values=values, converter=self.converter, address=address,
            memo=self._memo, index=index,
        )

    def reset(self) -> None:
        self.harvester.reset()
        self._memo.clear()
        if self.mppt is not None:
            self.mppt.reset()


class RectifiedInjector(Injector):
    """Voltage-domain harvester -> rectifier -> storage (Figs. 4, 7, 8).

    Charge-based: the rectifier computes the instantaneous charging current
    from the source's open-circuit voltage against the present rail voltage,
    and that charge is pushed into the storage element.  This is what makes
    the rail trace exhibit the charge/discharge sawtooth of Fig. 7.
    """

    def __init__(
        self,
        harvester: VoltageHarvester,
        rectifier: Optional[HalfWaveRectifier] = None,
    ):
        self.harvester = harvester
        self.rectifier = rectifier or HalfWaveRectifier()
        self._memo = SourcePlanMemo()
        # The harvester's waveform descriptor, resolved at the first
        # chunk of a run (False: not yet asked).
        self._waveform = False

    def inject(self, t: float, dt: float, v_rail: float, storage: StorageElement) -> float:
        v_oc = self.harvester.open_circuit_voltage(t)
        current = self.rectifier.current_into_rail(
            v_oc, v_rail, self.harvester.source_resistance
        )
        if current <= 0.0:
            return 0.0
        before = storage.stored_energy
        storage.add_charge(current * dt)
        return storage.stored_energy - before

    def chunk_plan(self, t0: float, dt: float, n: int):
        if type(self).inject is not RectifiedInjector.inject:
            return None  # subclass changed the injection physics
        if not self.harvester.chunk_safe():
            return None  # stateful sampling: discarded chunks would desync it
        chunk_params = getattr(self.rectifier, "chunk_params", None)
        params = (
            chunk_params(self.harvester.source_resistance)
            if chunk_params is not None
            else None
        )
        if params is None:
            return None
        drop, r_total, take_abs = params
        window = partial(
            self._memo.window, t0, dt, n,
            self.rectified_voc_array if take_abs
            else self.harvester.open_circuit_voltage_array,
        )
        waveform = self._waveform
        if waveform is False:
            waveform = self._waveform = self.harvester.chunk_waveform()
        step0 = None if waveform is None else SourcePlanMemo.grid_step(t0, dt)
        if step0 is not None:
            # The compiled loop evaluates the waveform itself; the memo
            # window is resolved only if the Python loop runs the chunk.
            return VoltageSourcePlan(
                None, drop, r_total, memo=self._memo, waveform=waveform,
                take_abs=take_abs, step0=step0, window=window,
            )
        values, address, index = window()
        return VoltageSourcePlan(
            values, drop, r_total, address, memo=self._memo, index=index,
        )

    def rectified_voc_array(self, times: np.ndarray) -> np.ndarray:
        """``|V_oc|`` over ``times``: the plan a bridge rectifier reads."""
        return np.abs(self.harvester.open_circuit_voltage_array(times))

    def reset(self) -> None:
        self.harvester.reset()
        self._memo.clear()
        self._waveform = False


@dataclass
class RailStats:
    """Cumulative energy bookkeeping for a rail, and its V_cc envelope:
    the voltage after steps ``vcc_every``, ``2 * vcc_every``, ... since
    reset (a ``decimate=vcc_every`` vcc probe's samples; empty until
    one), ``vcc_phase`` steps after the last of them."""

    harvested: float = 0.0
    consumed: float = 0.0
    leaked: float = 0.0
    starved: float = 0.0
    vcc_min: float = math.inf
    vcc_max: float = -math.inf
    vcc_every: int = 1
    vcc_phase: int = 0


class SupplyRail(Component):
    """The simulated electrical node (see module docstring).

    Under the fast kernel the rail is the chunked component: when the
    storage publishes inline-able physics, every load declares a
    constant/resistive profile and every injector a precomputed source
    plan, :meth:`step_chunk` advances whole stretches of steps in a tight
    scalar loop with per-step arithmetic identical to :meth:`step`.  The
    chunk ends (and per-step execution resumes) at the first step whose
    voltage crosses a load's declared event boundary; a load's
    transition table (the transient platform's) is followed across the
    transitions it marks inline and ends the chunk before the others.
    On an interpreter the table's ACTIVE row runs one engine step per
    step inside the loop, and the step the chunk does not commit is
    undone.

    One recurrence runs every chunk, on one of two rungs with one call
    shape: the compiled ``chunk_loop`` of :mod:`repro.sim._ckernel`
    where it loads, and the Python :func:`chunk_loop` below, its exact
    reference, where it does not.  The Python loop also takes over for
    the rest of a run once the compiled loop declines a chunk (a power
    source behind a converter, a per-step Python call); the
    ``chunk.kernel`` rung reported to :mod:`repro.degrade` is the one
    the run's chunks ran on.  :meth:`step` and both loops also keep the
    V_cc envelope that rows read (:class:`RailStats`).
    """

    def __init__(self, storage: StorageElement):
        self.storage = storage
        self._injectors: List[Injector] = []
        self._loads: List[RailLoad] = []
        self.stats = RailStats()
        self._chunk_vcc: Sequence[float] = []
        self._chunk_states: Optional[Sequence[float]] = None
        #: Cached CapacitorPhysics (False until first step_chunk attempt,
        #: then the descriptor or None for non-chunkable storage).
        self._physics = False
        #: This run's compiled-loop runner (False until the first
        #: chunk of a run, then a ChunkLoop, or None once the run is on
        #: the Python rung).
        self._compiled = False

    @property
    def voltage(self) -> float:
        """Present rail voltage — what a supervisor's ADC would read."""
        return self.storage.voltage

    def attach_injector(self, injector: Injector) -> Injector:
        """Register a conditioned source; returns it for chaining."""
        self._injectors.append(injector)
        self._compiled = False
        return injector

    def attach_load(self, load: RailLoad) -> RailLoad:
        """Register a load; returns it for chaining."""
        self._loads.append(load)
        self._compiled = False
        return load

    def step(self, t: float, dt: float) -> None:
        v = self.storage.voltage
        for injector in self._injectors:
            self.stats.harvested += injector.inject(t, dt, v, self.storage)
        self.stats.leaked += self.storage.step_leakage(dt)
        for load in self._loads:
            demand = load.advance(t, dt, self.storage.voltage)
            if demand < 0.0:
                raise ConfigurationError("loads must consume non-negative energy")
            delivered = self.storage.draw_energy(demand)
            self.stats.consumed += delivered
            self.stats.starved += demand - delivered
        stats = self.stats
        stats.vcc_phase += 1
        if stats.vcc_phase >= stats.vcc_every:
            stats.vcc_phase = 0
            v = self.storage.voltage
            stats.vcc_min = min(stats.vcc_min, v)
            stats.vcc_max = max(stats.vcc_max, v)

    # -- fast kernel -----------------------------------------------------

    def last_chunk_voltages(self) -> np.ndarray:
        """Per-step rail voltages of the most recent chunk (probe feed).

        On the compiled rung this is a view of the rail's voltage
        buffer, valid until the next chunk overwrites it.
        """
        return np.asarray(self._chunk_vcc, dtype=float)

    def last_chunk_states(self) -> Optional[np.ndarray]:
        """Per-step end-of-step state codes of the most recent chunk's
        tabled load (probe feed; see
        :class:`~repro.sim.kernel.TransitionTable`), or None when that
        chunk followed no table.  On the compiled rung a view, like
        :meth:`last_chunk_voltages`."""
        states = self._chunk_states
        return None if states is None else np.asarray(states, dtype=float)

    def _compiled_loop(self) -> Optional[_ckernel.ChunkLoop]:
        """A compiled-loop runner for this rail, or None on the Python
        rung."""
        kernel = _ckernel.load()
        if kernel is None:
            return None
        return _ckernel.ChunkLoop(
            kernel.chunk_loop, len(self._injectors), len(self._loads),
            kernel.waveforms,
        )

    def step_chunk(
        self, t0: float, dt: float, n: int, record: ChunkStats
    ) -> int:
        """Advance up to ``n`` steps in bulk; 0 when the regime can't chunk.

        A chunk stops before any step its tabled load cannot follow.
        Into ``record`` go the transitions the chunk followed and the
        one it stopped before, ``at_event`` (a 0 because the first step
        is a declared boundary, not a refusal: no physics, profile or
        plan), and the attempt's ``prepare`` and ``loop`` times; its
        commit runs on until the engine's next boundary.
        """
        record.at_event = False
        prepared = self._prepare(t0, dt, n, record)
        record.lap("prepare")
        if prepared is None:
            return 0
        args, table = prepared
        compiled = self._compiled
        if compiled is False:
            compiled = self._compiled_loop()
        result = None if compiled is None else compiled.run(*args)
        if result is None:
            # The Python loop serves the rest of the run: there is no
            # compiled loop, or it declined a chunk it cannot read.
            compiled = None
            result = chunk_loop(*args)
        if compiled is not self._compiled:
            # The run's first chunk, or its first declined one: report
            # the rung its chunks run on, never once per chunk.
            self._compiled = compiled
            degrade.report(
                "chunk.kernel", "python" if compiled is None else "c"
            )
        record.lap("loop")
        taken, energies, self._chunk_vcc = result
        record.at_event = not taken
        self._chunk_states = None if table is None else table.states
        if table is not None:
            if table.stop >= 0:
                record.fallback_transitions[TRANSITIONS[table.stop]] += 1
            transitions = record.transitions
            for entry in table.log:
                transitions[TRANSITIONS[entry[1]]] += 1
        for profile, energy in zip(args[2], energies):
            if profile.commit is not None:
                profile.commit(taken, dt, energy)
        return taken

    def _prepare(self, t0: float, dt: float, n: int, record: ChunkStats):
        """The chunk loops' arguments for up to ``n`` steps and the
        tabled load's table, or None when the regime cannot chunk
        (``record.at_event`` set when a load's timed boundary is the
        first step)."""
        # The physics descriptor is invariant per storage object: resolve
        # it once (False = not yet asked, None = storage can't chunk).
        physics = self._physics
        if physics is False:
            physics = self._physics = self.storage.chunk_physics()
        if physics is None:
            return None
        v = physics.read_voltage()
        profiles = []
        table = None
        for load in self._loads:
            profile = load.load_profile(t0, dt, v)
            if profile is None:
                return None
            if profile.table is not None:
                if table is not None:
                    return None  # the loops follow one table per rail
                table = profile.table
            # A time-based event boundary (a charge-and-fire task
            # finishing) bounds the whole chunk: the event step itself
            # must execute through the reference path.
            if profile.max_steps is not None:
                if profile.max_steps <= 0:
                    record.at_event = True
                    return None
                n = min(n, profile.max_steps)
            profiles.append(profile)
        plans = []
        for injector in self._injectors:
            plan = injector.chunk_plan(t0, dt, n)
            if plan is None:
                return None
            plans.append(plan)
        args = (physics, plans, profiles, v, physics.leak_factor(dt), dt, n,
                self.stats)
        return args, table

    def reset(self) -> None:
        self.storage.reset()
        for injector in self._injectors:
            injector.reset()
        for load in self._loads:
            load.reset()
        # The envelope's sampling period is a setting: it outlives reset.
        self.stats = RailStats(vcc_every=self.stats.vcc_every)
        self._chunk_vcc = []
        self._chunk_states = None
        self._compiled = False


def chunk_loop(
    physics: CapacitorPhysics, plans: Sequence, profiles: Sequence,
    v: float, leak: Optional[float], dt: float, n: int, stats: RailStats,
) -> Tuple[int, List[float], List[float]]:
    """The Python chunk loop: up to ``n`` steps of :meth:`SupplyRail.step`
    for any mix of sources, loads, leakage and ESR, in locals.

    Takes the arguments of :meth:`repro.sim._ckernel.ChunkLoop.run` and
    returns what it returns, ``(taken, per-load committed energies,
    voltages)``; writes the ``stats`` totals, the V_cc envelope and the
    storage voltage back, and a tabled load's results into its
    :class:`~repro.sim.kernel.TransitionTable`, stepping the table's
    machine in place (its committed totals into its
    :class:`~repro.sim.kernel.MachineSteps`).  It is the compiled
    loop's exact reference and the rung that serves every chunk the
    compiled loop cannot: no compiler, and power sources behind a
    converter (a per-step Python call).
    """
    C = physics.capacitance
    half_c = 0.5 * C
    v_max = physics.v_max
    e_cap = half_c * v_max * v_max
    overhead = physics.draw_overhead
    sqrt = math.sqrt
    sources = [
        (
            isinstance(plan, VoltageSourcePlan),
            *_floats(plan),
            getattr(plan, "drop", 0.0),
            getattr(plan, "r_total", 1.0),
            getattr(plan, "converter", None),
        )
        for plan in plans
    ]
    # Per-load demand terms: e_const is the voltage-independent joules
    # per step (`power * dt`, as the reference implementations compute
    # it).
    loads = [
        (profile.resistance, profile.power * dt,
         -math.inf if profile.table is not None else profile.v_rising,
         profile.v_falling)
        for profile in profiles
    ]
    n_loads = len(loads)
    load_range = range(n_loads)
    # The tabled load (index tj, or -1) and its machine (or None).
    tj = -1
    msteps = None
    for j, profile in enumerate(profiles):
        if profile.table is not None:
            tj = j
            table = profile.table
            msteps = table.machine
    if msteps is not None:
        # Its interpreter, state and prices (see MachineSteps); `undo`
        # logs one step's data writes.
        machine, m_run, m_budget, m_stop, m_fram = (
            msteps.machine, msteps.run, msteps.budget, msteps.stop_at_ckpt,
            msteps.fram)
        regs, data, pc = machine.registers, machine.data, machine.pc
        p_sr, p_sw, p_fr, p_fw = msteps.access
        m_cycles, m_instructions, m_memory, undo = 0, 0, 0.0, []
    if tj >= 0:
        # The table's rows, and its running state as locals (see
        # TransitionTable for the cascade).
        v_min, v_por, guard, wake = (
            table.v_min, table.v_por, table.guard, table.wake)
        boot_state = table.boot_state
        rows = table.energies
        t_current, t_gain = table.current, table.current_gain
        snapshot_steps, restore_steps = (
            table.snapshot_steps, table.restore_steps)
        budget, total, site = table.budget, table.total, table.site_interval
        single_slot, python = table.single_slot, table.python
        s, ex, left, has, pend, pay = (
            table.state, table.executed, table.left, table.has_snapshot,
            table.pending, table.payload)
        counts = [0] * 5
        sums = [0.0] * 5
        log = []
        logged = 0
        act = 0
        codes: List[float] = []
        record = codes.append
    stop = -1
    # Committed per-load demand totals, plus a per-step scratch list:
    # a step that hits an event boundary is discarded wholesale, so
    # demands fold into the totals only when the full step commits.
    esums = [0.0] * n_loads
    edems = [0.0] * n_loads
    harvested = stats.harvested
    leaked = stats.leaked
    consumed = stats.consumed
    starved = stats.starved
    vcc: List[float] = []
    append = vcc.append
    i = 0
    while i < n:
        v0 = v
        tv = v0
        h_t = harvested
        # Injection: every injector sees the start-of-step voltage,
        # charge lands on the running (clamped) voltage — as step().
        for is_voltage, values, at, drop, r_total, converter in sources:
            if is_voltage:
                head = values[at + i] - v0 - drop
                if head > 0.0:
                    before = half_c * tv * tv
                    vn = tv + (head / r_total * dt) / C
                    tv = v_max if vn > v_max else vn
                    h_t += half_c * tv * tv - before
            else:
                p = values[at + i]
                if converter is not None:
                    p = converter.output_power(p, v0 if v0 > 0 else 1.0)
                if p > 0.0:
                    e = half_c * tv * tv
                    e_new = e + p * dt
                    if e_new > e_cap:
                        accepted = e_cap - e
                        tv = v_max
                        h_t += accepted if accepted > 0.0 else 0.0
                    else:
                        tv = sqrt(2.0 * e_new / C)
                        h_t += p * dt
        le_t = leaked
        if leak is not None and tv != 0.0:
            before = half_c * tv * tv
            tv *= leak
            le_t += before - half_c * tv * tv
        co_t = consumed
        st_t = starved
        event = stepped = False
        for j in load_range:
            resistance, e_const, v_rise, v_fall = loads[j]
            if tv >= v_rise or tv < v_fall:
                if j != tj:
                    event = True
                    break
                # The tabled load (its v_rise is -inf): steps 1-5 of
                # the cascade on tentative copies; any transition that
                # needs Python discards the step.
                ns, nex, nleft, nhas, npend, npay = s, ex, left, has, pend, pay
                a = act
                moved = False
                if tv < v_min:
                    if ns != OFF:
                        if python >> BROWNOUT & 1:
                            stop = BROWNOUT
                            event = True
                            break
                        log.append((i, BROWNOUT, tv, a))
                        a = 0
                        moved = True
                        if ns == SNAPSHOT and single_slot:
                            nhas = False
                        ns = OFF
                        nex = 0
                    phys = OFF
                elif ns == OFF and tv < v_por:
                    phys = OFF
                else:
                    if ns == OFF:
                        if python >> BOOT & 1:
                            stop = BOOT
                            event = True
                            break
                        log.append((i, BOOT, tv, a))
                        a = 0
                        moved = True
                        ns = boot_state
                        if ns == ACTIVE:
                            nex = 0
                    if ns == ACTIVE:
                        if tv < guard:
                            if python >> SNAPSHOT_BEGIN & 1:
                                stop = SNAPSHOT_BEGIN
                                event = True
                                break
                            log.append((i, SNAPSHOT_BEGIN, tv, a))
                            a = 0
                            moved = True
                            ns = SNAPSHOT
                            nleft = snapshot_steps
                            npend = nex
                    elif ns == SLEEP:
                        if tv >= wake:
                            code = RESTORE_BEGIN if nhas else COLD_START
                            if python >> code & 1:
                                stop = code
                                event = True
                                break
                            log.append((i, code, tv, a))
                            a = 0
                            moved = True
                            if nhas:
                                ns = RESTORE
                                nleft = restore_steps
                            else:
                                ns = ACTIVE
                                nex = 0
                    phys = ns
                if phys == ACTIVE:
                    if msteps is not None:
                        # One engine step of the machine; its memory
                        # energy as McuPowerModel.slice_memory_energy
                        # sums it.
                        saved, pc0 = regs[:], pc
                        undo.clear()
                        stepped = True
                        reason, pc, m_step, m_count, reads, writes, _ = (
                            m_run(regs, pc, 0, 0, 0, 0, data, m_budget,
                                  m_stop, undo))
                        if reason != _ckernel.EXIT_BUDGET:
                            stop = (HALT if reason == _ckernel.EXIT_HALT
                                    else CHECKPOINT_SITE
                                    if reason == _ckernel.EXIT_CKPT
                                    else PORT_OR_FAULT)
                            event = True
                            break
                        sr, sw, fr, fw = (
                            (0, 0, m_count + reads, writes) if m_fram
                            else (reads, writes, m_count, 0))
                        e_mem = sr * p_sr + sw * p_sw + fr * p_fr + fw * p_fw
                        e_active = rows[ACTIVE] + e_mem
                    else:
                        if nex + budget >= total:
                            stop = HALT
                            event = True
                            break
                        if site and nex + budget >= (nex // site + 1) * site:
                            stop = CHECKPOINT_SITE
                            event = True
                            break
                        nex += budget
                        e_active = rows[ACTIVE]
                    e_bucket = ((t_current * tv) * t_gain) * dt
                    e_dem = e_bucket + e_active
                else:
                    e_dem = e_bucket = rows[phys]
                    if phys == SNAPSHOT or phys == RESTORE:
                        nleft -= 1
                        if nleft == 0:
                            code = (SNAPSHOT_DONE if phys == SNAPSHOT
                                    else RESTORE_DONE)
                            if python >> code & 1:
                                stop = code
                                event = True
                                break
                            log.append((i, code, tv, a))
                            moved = True
                            if phys == SNAPSHOT:
                                nhas = True
                                npay = npend
                                ns = SLEEP
                            else:
                                nex = npay
                                ns = ACTIVE
            elif resistance is not None:
                e_dem = tv * tv / resistance * dt + e_const
            else:
                e_dem = e_const
            demand = e_dem * overhead
            avail = half_c * tv * tv
            if demand >= avail:
                tv = 0.0
                delivered = avail / overhead
            else:
                tv = sqrt(2.0 * (avail - demand) / C)
                delivered = demand / overhead
            co_t += delivered
            st_t += e_dem - delivered
            edems[j] = e_dem
        if event:
            if stepped:
                # Undo the machine's step: registers, PC, its writes.
                regs[:] = saved
                pc = pc0
                for address, word in reversed(undo):
                    data[address] = word
            break  # discard this step; it reruns via the reference path
        v = tv
        harvested = h_t
        leaked = le_t
        consumed = co_t
        starved = st_t
        for j in load_range:
            esums[j] += edems[j]
        if stepped:
            m_cycles += m_step
            m_instructions += m_count
            m_memory += e_mem
        append(v)
        if tj >= 0:
            s, ex, left, has, pend, pay = ns, nex, nleft, nhas, npend, npay
            counts[phys] += 1
            sums[phys] += e_bucket
            if moved:
                logged = len(log)
                act = 0
            if phys == ACTIVE:
                act += 1
            record(_CODES[s])
            if logged > LOG_CAPACITY - 3:
                i += 1
                break  # the log is full: end the chunk after this step
        i += 1
    physics.write_voltage(v)
    stats.harvested = harvested
    stats.leaked = leaked
    stats.consumed = consumed
    stats.starved = starved
    if tj >= 0:
        del log[logged:]
        (table.state, table.executed, table.left, table.has_snapshot,
         table.pending, table.payload) = s, ex, left, has, pend, pay
        table.counts, table.sums, table.log = tuple(counts), tuple(sums), log
        table.active_steps, table.states, table.stop = act, codes, stop
    if msteps is not None:
        machine.pc = pc
        msteps.cycles, msteps.instructions, msteps.memory = (
            m_cycles, m_instructions, m_memory)
    # The envelope from the committed voltages, off the per-step path:
    # `first` is the first step the sampling period reaches.
    every = stats.vcc_every
    first = max(every - 1 - stats.vcc_phase, 0)
    if first < i:
        sampled = vcc[first::every]
        stats.vcc_min = min(stats.vcc_min, min(sampled))
        stats.vcc_max = max(stats.vcc_max, max(sampled))
        stats.vcc_phase = (i - 1 - first) % every
    else:
        stats.vcc_phase += i
    return i, esums, vcc


#: State codes as the state record holds them.
_CODES = tuple(float(code) for code in range(len(TABLE_STATES)))


def _floats(plan) -> Tuple[Sequence[float], int]:
    """A plan's values as the Python loop reads them fastest, Python
    floats, and the index of the chunk's first step in them: the memo's
    list mirror when a memo holds them (converted once per value, not
    once per chunk)."""
    if plan.index is not None:
        return plan.memo.floats(), plan.index
    values = plan.values
    return (values.tolist() if isinstance(values, np.ndarray) else values), 0


# ---------------------------------------------------------------------------
# Results-pipeline contribution (see repro.results.metrics)
# ---------------------------------------------------------------------------


@register_metric(
    "rail",
    columns=(
        "energy_harvested",
        "energy_consumed",
        "energy_leaked",
        "energy_starved",
    ),
    order=30,
)
def _rail_metric_columns(run, spec):
    """The rail's cumulative energy ledger (RailStats)."""
    stats = run.rail.stats
    return {
        "energy_harvested": stats.harvested,
        "energy_consumed": stats.consumed,
        "energy_leaked": stats.leaked,
        "energy_starved": stats.starved,
    }
