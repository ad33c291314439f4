"""Batched structure-of-arrays execution of scenario batches.

The fast kernel (:mod:`repro.sim.kernel`) chunks *one* scenario at a
time; a sweep over M grid points still pays the per-step Python cost M
times.  This module advances M scenarios that share a topology *together*
as structure-of-arrays state: one numpy lane per member holding the rail
voltage ``vcc[M]``, the cumulative energy ledger, and per-lane event
horizons, with closed-form source plans evaluated once and shared across
every member with an identical harvester configuration.

Execution model (see DESIGN.md, "Batched SoA kernel"):

* Each member is a **lane**: its own built system, simulator, rail and
  platform, plus the per-lane scalars the array pass needs (capacitor
  physics, the source-plan arrays, the last startable step).  Shared
  plans grow on demand, only as far as some lane runs, and seed every
  injector's memo, so each waveform sample is evaluated once per batch.
* A **round** gathers every runnable lane's current regime — exactly the
  same :meth:`~repro.power.rail.RailLoad.load_profile` /
  source-plan protocol the per-scenario fast kernel uses — and advances
  the lanes in the simple-loop regime (one rectified source, one
  constant-energy load, ideal capacitor) through one masked **array
  pass**: compiled C when a compiler is available, numpy otherwise.
  Per-step arithmetic inside a pass replicates
  :meth:`~repro.power.rail.SupplyRail._chunk_loop_simple` operation for
  operation, so the committed voltage sequence is bit-identical to a
  per-scenario fast run (chunk partitioning cannot change a pure
  per-step recurrence).
* Per-lane event boundaries (boot/wake/brownout/active-guard voltage
  crossings, snapshot/restore countdowns via ``max_steps``) freeze the
  lane inside the pass at exactly the step the scalar loop would have
  broken on; the boundary step then settles scalar-side through the
  unmodified reference path and the lane re-enters the next round.
* Every other lane — any other regime, or fewer than
  ``_MIN_VECTOR_GROUP`` lanes in the simple one — advances **per lane**
  through the ordinary scalar
  :meth:`~repro.power.rail.SupplyRail.step_chunk` on the solo kernel's
  grow/backoff schedule, reading the shared plans through the injector
  memo.  A lane whose shape can never form a simple pass runs to the
  end that way at once.  A lane whose sources cannot publish array
  plans at all (MPPT trackers, converter-fronted power sources,
  stateful harvesters) runs the entire scenario through the untouched
  per-scenario path.

Exactness contract: the vcc trace and every event step index are
bit-identical to per-scenario fast runs.  Scalar metric accumulators
that the fast kernel itself folds per-chunk (state-residency times,
per-chunk committed energies) agree to floating-point re-association
tolerance (~1e-12 relative), exactly as fast-vs-reference already does.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import degrade, obs
from repro.power.rail import HarvesterInjector, RectifiedInjector, SupplyRail
from repro.results.run_result import MAX_TRACE_SAMPLES, RunResult, spec_hash
from repro.sim import _ckernel
from repro.sim.engine import _MAX_BACKOFF, _MIN_CHUNK
from repro.sim.kernel import SourcePlanMemo
from repro.spec.specs import ScenarioSpec

#: Hard cap on steps per array pass (bounds the per-pass vcc matrix and
#: amortises the per-pass Python overheads; any pass partition commits
#: bit-identical results, so the cap is purely a scheduling knob).
_PASS_CAP = 65536
#: Per-pass vcc matrix byte budget: for wide batches the effective pass
#: length shrinks below ``_PASS_CAP`` so the trace matrix stays bounded.
#: Longer passes mean fewer commit/regather cycles per lane — the
#: dominant fixed cost once the step loop itself is vectorized.
_PASS_BUDGET_BYTES = 256 * 1024 * 1024
#: Minimum steps before the break-at-quarter early exit may trigger.
_EARLY_EXIT_MIN_STEPS = 64
#: Minimum lanes in the simple regime before the array pass beats the
#: scalar chunk loop (per-row numpy dispatch is ~30x a scalar step, so
#: smaller groups advance through ``step_chunk`` instead, and once fewer
#: runnable lanes than this can ever form a pass, they all finish on the
#: solo schedule).  Tests lower this to force array passes on tiny
#: batches.
_MIN_VECTOR_GROUP = 32
#: Auto batch size cap (memory: one shared plan per distinct harvester
#: configuration, at most the run horizon, plus O(pass_cap * M) scratch
#: — ~17 MB of per-pass vcc matrix at the cap, amortised over 512 grid
#: points).
AUTO_BATCH_SIZE = 512


def _uniform_scalar(arr: np.ndarray) -> Any:
    """``arr`` as a Python float when every lane shares one value.

    A scalar ufunc operand computes the exact same IEEE result as the
    equal-valued array while skipping one array read per step — grid
    axes usually leave most per-lane parameter arrays constant.
    """
    first = arr[0]
    if bool((arr == first).all()):
        return float(first)
    return arr


def _pass_cap(m_count: int) -> int:
    """Steps per pass for an ``m_count``-lane group.

    ``_PASS_CAP`` bounded by the ``_PASS_BUDGET_BYTES`` trace-matrix
    budget (8 bytes per lane-step).  Any pass partition commits
    bit-identical results, so this is purely a scheduling knob.
    """
    by_budget = _PASS_BUDGET_BYTES // (max(1, m_count) * 8)
    return max(1, min(_PASS_CAP, by_budget))


@dataclass
class BatchStats:
    """Per-batch execution diagnostics, reported through progress events.

    Attributes:
        members: lanes that entered batched execution.
        passes: array passes executed.
        advanced: member-steps advanced in chunks (array passes and
            scalar lane chunks).
        settled: member-steps settled through the scalar reference path.
        diverged: members that ran outside the batch, through the
            per-scenario path on a fresh system (ineligible sources or a
            batch-machinery failure).
        scalar_chunks: chunks lanes advanced one at a time through
            :meth:`SupplyRail.step_chunk` (outside any array pass).
    """

    members: int = 0
    passes: int = 0
    advanced: int = 0
    settled: int = 0
    diverged: int = 0
    scalar_chunks: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "members": self.members,
            "passes": self.passes,
            "advanced": self.advanced,
            "settled": self.settled,
            "diverged": self.diverged,
            "scalar_chunks": self.scalar_chunks,
        }


#: Optional per-round progress hook: called with the running BatchStats
#: after every round of array passes.
RoundHook = Callable[[BatchStats], None]


def topology_key(spec: ScenarioSpec) -> str:
    """The batching-compatibility key of a spec: its non-numeric skeleton.

    Two grid points may share a batch only when they differ in *numeric*
    parameters alone.  Every string-valued axis — the kernel, the
    strategy kind, the harvester/storage/load/rectifier/converter
    families, the engine and program — stays in the key, so a grid that
    sweeps any axis changing chunk eligibility partitions into separate
    sub-batches instead of batching incompatible members together.
    """

    def strip(value: Any) -> Any:
        if isinstance(value, Mapping):
            return {key: strip(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [strip(item) for item in value]
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return None
        return value

    skeleton = strip(spec.to_dict())
    # to_dict omits default-valued fields; pin the ones that gate
    # batching so presence/absence differences cannot alias.
    skeleton["kernel"] = spec.kernel
    skeleton["stop_on_completion"] = spec.stop_on_completion
    return json.dumps(skeleton, sort_keys=True)


def batchable(spec: ScenarioSpec) -> bool:
    """Whether a spec may join an array batch at all (fast kernel only)."""
    return spec.kernel == "fast"


class _PlanCache:
    """Source-plan arrays shared across batch members, grown on demand.

    Keyed by the harvester's resolved configuration and the time grid, so
    a capacitance sweep — every member carrying the same harvester —
    evaluates each waveform sample once per batch, not once per member.
    Values are a pure function of the step index (evaluated at the exact
    engine grid ``k * dt``), so a plan grows by evaluating only the new
    steps and appending them, and any member's window is a plain slice.
    """

    def __init__(self) -> None:
        self._plans: Dict[str, np.ndarray] = {}

    @staticmethod
    def key(spec: ScenarioSpec, index: int, variant: str) -> str:
        """Cache key for one harvester's plan.

        ``source_resistance`` is excluded: an open-circuit voltage (or
        harvested power) waveform is by definition independent of the
        source's Thevenin resistance, so a resistance sweep shares one
        plan.  ``variant`` marks what the stored array holds ('p' for
        power, 'v'/'v-abs' for plain/rectified voltage) so the same
        harvester behind different rectifiers cannot alias.
        """
        entry = spec.harvesters[index]
        params = dict(spec._harvester_params(index, entry))
        params.pop("source_resistance", None)
        return json.dumps(
            {
                "kind": entry.kind,
                "params": params,
                "dt": spec.dt,
                "variant": variant,
            },
            sort_keys=True,
            default=str,
        )

    def values(self, source: _Source, dt: float, steps: int,
               limit: int) -> np.ndarray:
        """``source``'s plan, covering at least ``min(steps, limit)``.

        A plan that must grow at least doubles (up to ``limit``, the
        requesting lane's horizon), so a lane advancing chunk by chunk
        triggers O(log) evaluations, not one per chunk.
        """
        plan = self._plans.get(source.key)
        have = 0 if plan is None else len(plan)
        if have < min(steps, limit):
            grown = min(limit, max(steps, 2 * have))
            fresh = np.asarray(
                source.evaluate(np.arange(have, grown) * dt), dtype=float
            )
            plan = fresh if plan is None else np.concatenate((plan, fresh))
            self._plans[source.key] = plan
        return plan


@dataclass
class _Source:
    """One injector's shared plan and array-pass parameters."""

    kind: str  # 'v' (rectified voltage source) or 'p' (power source)
    key: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    memo: SourcePlanMemo
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    drop: float = 0.0
    r_total: float = 1.0


class _Lane:
    """One batch member: a built system plus its array-pass state."""

    __slots__ = (
        "index", "spec", "overrides", "system", "sim", "rail", "platform",
        "physics", "s_max", "dt", "cache", "sources", "leak", "overhead",
        "simple", "done", "stopped_early", "pending_scalar", "backoff",
        "grow",
    )

    def __init__(self, index: int, spec: ScenarioSpec,
                 overrides: Dict[str, Any]):
        self.index = index
        self.spec = spec
        self.overrides = overrides
        self.system = None
        self.sim = None
        self.rail: Optional[SupplyRail] = None
        self.platform = None
        self.physics = None
        self.s_max = -1
        self.dt = spec.dt
        self.cache: Optional[_PlanCache] = None
        self.sources: List[_Source] = []
        self.leak: Optional[float] = None
        self.overhead = 1.0
        #: Whether the lane's static shape admits the simple-loop regime
        #: (one rectified source, one load, ideal capacitor).
        self.simple = False
        self.done = False
        self.stopped_early = False
        self.pending_scalar = 0
        self.backoff = 0
        #: Next scalar chunk request, on the solo kernel's schedule.
        self.grow = _MIN_CHUNK


@dataclass
class _Gathered:
    """One lane's regime for the pass about to run."""

    lane: _Lane
    v: float
    horizon: int
    profiles: List[Any] = field(default_factory=list)


def _build_lane(index: int, spec: ScenarioSpec,
                overrides: Dict[str, Any]) -> _Lane:
    """Construct a lane: build the system and install the probes."""
    lane = _Lane(index, spec, overrides)
    system = spec.build()
    system.install_probes(decimate=spec.decimate)
    lane.system = system
    lane.sim = system.simulator
    lane.rail = system.rail
    lane.platform = system.platform
    lane.s_max = lane.sim._last_startable_step(spec.duration)
    lane.sim._recorder.reserve(lane.s_max + 1)
    return lane


def _lane_chunkable(lane: _Lane) -> bool:
    """Mirror of the solo fast kernel's chunk-engagement predicate."""
    sim = lane.sim
    if lane.spec.kernel != "fast" or lane.rail is None:
        return False
    if len(sim._components) != 1 or sim._components[0] is not lane.rail:
        return False
    if not sim._recorder.chunk_capable():
        return False
    if sim._has_unchunkable_conditions:
        return False
    physics = lane.rail.storage.chunk_physics()
    if physics is None:
        return False
    lane.physics = physics
    lane.leak = physics.leak_factor(lane.dt)
    lane.overhead = physics.draw_overhead
    return True


def _lane_vectorizable(lane: _Lane, cache: _PlanCache) -> bool:
    """Resolve every injector to a shared array plan, or fail.

    The eligibility predicates mirror the injectors' own ``chunk_plan``
    guards; a converter-fronted power source additionally disqualifies
    the lane (``ConversionStage.output_power`` is per-step Python), as
    does any injector outside the two standard classes.
    """
    rail = lane.rail
    sources: List[_Source] = []
    for position, injector in enumerate(rail._injectors):
        if isinstance(injector, RectifiedInjector):
            if type(injector).inject is not RectifiedInjector.inject:
                return False
            harvester = injector.harvester
            if not harvester.chunk_safe():
                return False
            chunk_params = getattr(injector.rectifier, "chunk_params", None)
            params = (
                chunk_params(harvester.source_resistance)
                if chunk_params is not None
                else None
            )
            if params is None:
                return False
            drop, r_total, take_abs = params
            if take_abs:
                def evaluate(times, harvester=harvester):
                    return np.abs(
                        harvester.open_circuit_voltage_array(times)
                    )
            else:
                evaluate = harvester.open_circuit_voltage_array
            key = cache.key(
                lane.spec, position, "v-abs" if take_abs else "v"
            )
            sources.append(_Source(
                "v", key, evaluate, injector._memo,
                drop=drop, r_total=r_total,
            ))
        elif isinstance(injector, HarvesterInjector):
            if type(injector).inject is not HarvesterInjector.inject:
                return False
            if injector.mppt is not None or injector.converter is not None:
                return False
            if not injector.harvester.chunk_safe():
                return False
            key = cache.key(lane.spec, position, "p")
            sources.append(_Source(
                "p", key, injector.harvester.power_array, injector._memo
            ))
        else:
            return False
    lane.cache = cache
    lane.sources = sources
    lane.simple = (
        len(sources) == 1
        and sources[0].kind == "v"
        and len(rail._loads) == 1
        and lane.leak is None
        and lane.overhead == 1.0
    )
    return True


def _cover(lane: _Lane, steps: int) -> None:
    """Make the lane's plans cover its first ``steps`` steps.

    Every lane reads the cache's current array for each plan (lanes
    sharing a plan stay on one array, so a lock-step pass slices it
    once), and each new array re-seeds the injector's memo: the lane's
    scalar chunks then slice the shared plan instead of evaluating the
    waveform themselves.
    """
    for source in lane.sources:
        plan = lane.cache.values(source, lane.dt, steps, lane.s_max + 1)
        if plan is not source.values:
            source.values = plan
            source.memo.put(0, lane.dt, plan)


def _check_lane_stopped(lane: _Lane) -> None:
    """Post-advance bookkeeping shared by every execution path."""
    sim = lane.sim
    conditions = sim._stop_conditions
    if conditions and any(cond(sim.t) for cond in conditions):
        lane.done = True
        lane.stopped_early = True
    elif sim.steps > lane.s_max:
        lane.done = True


def _run_scalar_steps(lane: _Lane, count: int, stats: BatchStats) -> None:
    """Settle ``count`` steps through the unmodified reference path."""
    sim = lane.sim
    chunk_stats = sim.chunk_stats
    for _ in range(count):
        if sim.steps > lane.s_max:
            lane.done = True
            return
        chunk_stats.fallback_steps += 1
        sim.step()
        stats.settled += 1
        conditions = sim._stop_conditions
        if conditions and any(cond(sim.t) for cond in conditions):
            lane.done = True
            lane.stopped_early = True
            return
    if sim.steps > lane.s_max:
        lane.done = True


def _advance_sim(lane: _Lane, taken: int, stats: BatchStats) -> None:
    """Move a lane's clock and probes past ``taken`` chunked steps.

    The solo fast kernel's post-chunk commit, then the stop-condition /
    end-of-run checks.
    """
    sim = lane.sim
    chunk_stats = sim.chunk_stats
    chunk_stats.chunks += 1
    chunk_stats.chunked_steps += taken
    first = sim.steps + 1
    sim.steps += taken
    sim.t = sim.steps * sim.dt
    sim._recorder.sample_chunk(first, taken, sim.dt)
    stats.advanced += taken
    _check_lane_stopped(lane)


def _advance_chunk_scalar(lane: _Lane, stats: BatchStats) -> None:
    """One chunk attempt through the ordinary scalar loop.

    Follows :meth:`Simulator._run_fast`'s schedule exactly: the request
    starts at ``_MIN_CHUNK`` and doubles while chunks are fully
    consumed, dropping back when one ends short (an event boundary is
    near, so a long request would only be discarded).  A refused
    attempt queues what the solo kernel runs before its next attempt:
    the refused step itself plus the backoff run.
    """
    sim = lane.sim
    n = min(lane.grow, sim.chunk_size, lane.s_max - sim.steps + 1)
    taken = 0
    if n > 1:
        _cover(lane, sim.steps + n)
        taken = lane.rail.step_chunk(sim.t, sim.dt, n)
    if taken:
        lane.backoff = 0
        lane.grow = min(2 * n, sim.chunk_size) if taken == n else _MIN_CHUNK
        stats.scalar_chunks += 1
        _advance_sim(lane, taken, stats)
        return
    if n > 1:
        lane.backoff = (
            min(2 * lane.backoff, _MAX_BACKOFF) if lane.backoff else 1
        )
        lane.pending_scalar = lane.backoff + 1
    else:
        lane.pending_scalar = 1


def _finish_solo(lane: _Lane, stats: BatchStats) -> None:
    """Run a lane to completion on the per-scenario fast schedule.

    Identical results to :meth:`Simulator._run_fast` continuing from the
    lane's current state: the grow/backoff schedule only changes which
    steps chunk, never their arithmetic.
    """
    while not lane.done:
        if lane.pending_scalar:
            count = lane.pending_scalar
            lane.pending_scalar = 0
            _run_scalar_steps(lane, count, stats)
        else:
            _advance_chunk_scalar(lane, stats)


def _gather(lane: _Lane) -> Optional[_Gathered]:
    """One lane's regime for the next pass, or None when it cannot chunk.

    Mirrors :meth:`SupplyRail.step_chunk`'s gather phase: fresh load
    profiles at the present voltage, the horizon bounded by every
    profile's ``max_steps`` and the last startable step.  Source windows
    come from the lane's shared plan arrays instead of per-chunk
    ``chunk_plan`` calls.
    """
    sim = lane.sim
    remaining = lane.s_max - sim.steps + 1
    if remaining <= 0:
        lane.done = True
        return None
    v = lane.physics.read_voltage()
    t0 = sim.t
    dt = sim.dt
    horizon = remaining
    profiles = []
    for load in lane.rail._loads:
        profile = load.load_profile(t0, dt, v)
        if profile is None:
            return None
        if profile.max_steps is not None:
            if profile.max_steps <= 0:
                return None
            horizon = min(horizon, profile.max_steps)
        profiles.append(profile)
    if horizon < 1:
        return None
    return _Gathered(lane=lane, v=v, horizon=horizon, profiles=profiles)


def _simple_regime(gathered: _Gathered) -> bool:
    """Whether a gathered simple-shaped lane may join the array pass.

    The static shape is :attr:`_Lane.simple`; the load's present profile
    must also be a constant energy (no resistive or current-like term) —
    exactly the predicate :meth:`SupplyRail.step_chunk` uses to pick its
    simple loop, so the committed per-load energies follow the same
    accumulation as the scalar kernel.
    """
    profile = gathered.profiles[0]
    return profile.resistance is None and profile.current == 0.0


def _pass_order(members: List[_Gathered]) -> None:
    """Sort a pass group so lanes sharing plans and step positions are
    adjacent (member order within a pass is free — every lane commits
    independently).  Runs of identical (plan, start) then fill their
    window columns with one broadcast slice each instead of M strided
    column writes."""
    members.sort(
        key=lambda g: (id(g.lane.sources[0].values), g.lane.sim.steps)
    )


def _source_windows(
    members: Sequence[_Gathered], pass_n: int
) -> np.ndarray:
    """The ``[pass_n, M]`` source value matrix of a simple pass.

    Members must be in :func:`_pass_order`; each run of lanes sharing a
    plan array and step position fills as one broadcast column block.
    Rows past a short run's plan stay zero — they are beyond every such
    lane's horizon and never commit.
    """
    m_count = len(members)
    vals = np.zeros((pass_n, m_count), dtype=float)
    begin = 0
    while begin < m_count:
        lane = members[begin].lane
        plan = lane.sources[0].values
        start = lane.sim.steps
        end = begin + 1
        while (
            end < m_count
            and members[end].lane.sources[0].values is plan
            and members[end].lane.sim.steps == start
        ):
            end += 1
        span = min(pass_n, len(plan) - start)
        vals[:span, begin:end] = plan[start:start + span, None]
        begin = end
    return vals


def _compiled_windows(
    lanes: Sequence[_Lane], horizons: np.ndarray
) -> Optional[np.ndarray]:
    """Per-lane data pointers into each lane's shared source plan.

    The compiled kernel reads each lane's pass window in place (no
    [pass_n, M] matrix, no ``tolist``).  Returns None when any plan
    cannot back a raw double pointer — then the numpy pass runs.
    """
    ptrs = np.empty(len(lanes), dtype=np.uintp)
    for m, lane in enumerate(lanes):
        plan = lane.sources[0].values
        if (
            not isinstance(plan, np.ndarray)
            or plan.dtype != np.float64
            or not plan.flags.c_contiguous
        ):
            return None
        start = lane.sim.steps
        if len(plan) - start < int(horizons[m]):
            return None
        ptrs[m] = plan.ctypes.data + start * 8
    return ptrs


def _commit_pass(
    members: Sequence[_Gathered],
    horizons: np.ndarray,
    taken: np.ndarray,
    v: np.ndarray,
    harvested: np.ndarray,
    consumed: np.ndarray,
    starved: np.ndarray,
    e_dem_py: Sequence[float],
    vcc: np.ndarray,
    stats: BatchStats,
) -> None:
    """Fold a finished simple pass back into every member lane.

    Mirrors the commit the solo fast kernel performs after
    ``step_chunk``: voltage write-back, stats ledger, the load's commit,
    probe bulk-sampling, then the stop-condition / end-of-run checks.
    """
    for m, gathered in enumerate(members):
        lane = gathered.lane
        steps_taken = int(taken[m])
        if steps_taken > 0:
            lane.physics.write_voltage(float(v[m]))
            rail = lane.rail
            rail.stats.harvested = float(harvested[m])
            rail.stats.consumed = float(consumed[m])
            rail.stats.starved = float(starved[m])
            rail._chunk_vcc = vcc[m, :steps_taken]
            commit = gathered.profiles[0].commit
            if commit is not None:
                commit(steps_taken, lane.sim.dt, steps_taken * e_dem_py[m])
            _advance_sim(lane, steps_taken, stats)
        else:
            _check_lane_stopped(lane)
        if not lane.done and steps_taken < int(horizons[m]):
            # The boundary step itself must execute through the
            # reference path — exactly as the solo kernel's failed-
            # attempt fallback — and the next scalar chunk starts short.
            lane.pending_scalar = 1
            lane.grow = _MIN_CHUNK
    stats.passes += 1


def _simple_pass(members: List[_Gathered], stats: BatchStats) -> None:
    """Vectorized counterpart of :meth:`SupplyRail._chunk_loop_simple`.

    Per-step operation sequence and association order replicate the
    scalar loop exactly; lanes that hit an event boundary (or their own
    horizon) freeze in place via the ``alive`` mask while the rest of
    the batch keeps advancing.
    """
    m_count = len(members)
    cap_n = _pass_cap(m_count)
    # Farthest first: the first cover of each plan grows it far enough
    # for every lane, so lanes sharing it all read one array.
    for g in sorted(members, key=lambda g: -(g.lane.sim.steps + g.horizon)):
        _cover(g.lane, g.lane.sim.steps + min(g.horizon, cap_n))
    _pass_order(members)
    lanes = [g.lane for g in members]
    horizons = np.array(
        [min(g.horizon, cap_n) for g in members], dtype=np.int64
    )
    pass_n = int(horizons.max())
    v = np.array([g.v for g in members], dtype=float)
    cap = np.array([lane.physics.capacitance for lane in lanes], dtype=float)
    half_c = 0.5 * cap
    v_max = np.array([lane.physics.v_max for lane in lanes], dtype=float)
    drop = np.array([lane.sources[0].drop for lane in lanes], dtype=float)
    r_total = np.array(
        [lane.sources[0].r_total for lane in lanes], dtype=float
    )
    # Per-step demand precombined in Python floats, exactly as the
    # scalar loop computes its local e_dem.
    e_dem_py = [
        g.profiles[0].power * g.lane.dt + g.profiles[0].energy
        for g in members
    ]
    e_dem = np.array(e_dem_py, dtype=float)
    v_rise = np.array([g.profiles[0].v_rising for g in members], dtype=float)
    v_fall = np.array([g.profiles[0].v_falling for g in members], dtype=float)
    has_fall = bool(np.isfinite(v_fall).any())
    harvested = np.array(
        [lane.rail.stats.harvested for lane in lanes], dtype=float
    )
    consumed = np.array(
        [lane.rail.stats.consumed for lane in lanes], dtype=float
    )
    starved = np.array(
        [lane.rail.stats.starved for lane in lanes], dtype=float
    )
    dt_raw = np.array([lane.dt for lane in lanes], dtype=float)
    # Lane-major so each lane's committed trace is a contiguous row
    # (the per-step column write touches one cache line per lane and
    # stays resident; a step-major layout would make every lane's
    # commit re-walk the whole matrix at page stride).  Rows are padded
    # so the column-write stride is not a power of two — an exact 32 KB
    # stride would alias every lane onto one cache set.
    vcc_full = np.empty((m_count, pass_n + 8), dtype=float)
    taken = horizons.copy()
    # Compiled fast path: the runtime-built C kernel replays the exact
    # scalar operation sequence per lane (see repro.sim._ckernel), so
    # masking, the deferred ledger and the early-exit heuristics are
    # unnecessary — every lane simply runs to its own event boundary or
    # horizon.  Ledger totals accumulate in the scalar loop's own
    # per-step order, so they match solo fast runs bit for bit.
    kernel = _ckernel.load()
    if kernel is not None:
        ptrs = _compiled_windows(lanes, horizons)
        if ptrs is not None:
            obs.counter("repro_batch_pass_path_total", path="c").inc()
            degrade.report("batch.kernel", "c")
            kernel(
                m_count, ptrs, horizons, v, cap, v_max, drop, r_total,
                e_dem, v_rise, v_fall, dt_raw, harvested, consumed,
                starved, vcc_full, pass_n + 8, taken,
            )
            _commit_pass(members, horizons, taken, v, harvested,
                         consumed, starved, e_dem_py, vcc_full, stats)
            return
    obs.counter("repro_batch_pass_path_total", path="numpy").inc()
    degrade.report("batch.kernel", "numpy")
    # When every lane shares one plan array *and* the same step position
    # (lock-step batches: the common case for numeric sweeps over a
    # single harvester configuration), the pass reads a zero-copy 1-D
    # window of the shared plan and broadcasts each scalar across the
    # batch — skipping the [pass_n, M] matrix build entirely.  Values
    # are identical either way (same array, same indices).
    plan0 = lanes[0].sources[0].values
    start0 = lanes[0].sim.steps
    if all(
        lane.sources[0].values is plan0 and lane.sim.steps == start0
        for lane in lanes
    ):
        # Python-float rows: the fastest scalar ufunc operand path.
        vals = plan0[start0:start0 + pass_n].tolist()
    else:
        vals = _source_windows(members, pass_n)
    # Parameters every lane agrees on collapse to Python-float operands
    # (bit-identical arithmetic, one array read per step less; grid
    # sweeps usually vary only an axis or two).
    cap = _uniform_scalar(cap)
    half_c = 0.5 * cap if isinstance(cap, float) else half_c
    v_max = _uniform_scalar(v_max)
    drop = _uniform_scalar(drop)
    r_total = _uniform_scalar(r_total)
    e_dem = _uniform_scalar(e_dem)
    v_rise = _uniform_scalar(v_rise)
    v_fall = _uniform_scalar(v_fall)
    vcc = vcc_full[:, :pass_n]
    alive = np.ones(m_count, dtype=bool)
    alive_all = True
    min_hz = int(horizons.min())
    dt_arr = _uniform_scalar(dt_raw)
    # ``has_fall`` (computed above, pre-scalarization): skip the lower-
    # threshold comparison when no lane has one (the OFF phase:
    # v_falling is -inf across the batch) — the upper threshold is
    # always finite (boot/wake voltages), so it is always checked.
    # Preallocated per-step scratch: the hot loop runs allocation-free.
    b_head = np.empty(m_count, dtype=float)
    b_before = np.empty(m_count, dtype=float)
    b_q = np.empty(m_count, dtype=float)
    b_tv = np.empty(m_count, dtype=float)
    b_after = np.empty(m_count, dtype=float)
    b_gain = np.empty(m_count, dtype=float)
    b_rem = np.empty(m_count, dtype=float)
    b_deliv = np.empty(m_count, dtype=float)
    b_sdel = np.empty(m_count, dtype=float)
    b_ge = np.empty(m_count, dtype=bool)
    b_lt = np.empty(m_count, dtype=bool)
    b_starve = np.empty(m_count, dtype=bool)
    b_flag = np.empty(m_count, dtype=bool)
    # Deferred energy ledger.  Within an uninterrupted run of unmasked
    # no-starve steps every lane delivers exactly e_dem, and the commit
    # relation half_c*v'^2 = avail - e_dem makes the per-step harvest
    # gains telescope:
    #
    #   sum(dh) = half_c*(v_end^2 - v_start^2) + n*e_dem
    #   sum(delivered) = n*e_dem,  sum(starved) = 0
    #
    # so the per-step ledger arithmetic drops out of the hot loop and a
    # segment settles in O(1) vector ops when it closes (a starve, an
    # event, a frozen lane, or the end of the pass).  The vcc recursion
    # itself is untouched — traces stay bit-identical; the settled sums
    # differ from per-step accumulation only by float re-association,
    # far inside the kernel's documented ~1e-12 metrics tolerance.
    seg_sq = np.multiply(v, v)
    seg_start = 0
    deferred = True
    committed = 0

    def _settle_segment(upto: int) -> None:
        """Fold the deferred ledger for steps [seg_start, upto) using the
        present ``v`` as the segment-end voltage."""
        nonlocal seg_start
        n = upto - seg_start
        if n > 0:
            t = np.multiply(v, v, out=b_before)
            np.subtract(t, seg_sq, out=t)
            np.multiply(t, half_c, out=t)
            np.add(harvested, t, out=harvested)
            nd = np.multiply(e_dem, float(n), out=b_gain)
            np.add(harvested, nd, out=harvested)
            np.add(consumed, nd, out=consumed)
        seg_start = upto

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(pass_n):
            # Shared prefix, scalar-loop order: head = values[i]-v-drop;
            # vn = v + (head/r_total*dt)/C, clamped to v_max.  The
            # head>0 gate folds into max(q, 0): a non-positive charge
            # becomes +0.0 and v + 0.0 is bit-identical to v, and the
            # energy gain (after - before) is then a - a = +0.0, exactly
            # the scalar loop's dh = 0.0 for a non-charging step.
            head = np.subtract(vals[i], v, out=b_head)
            np.subtract(head, drop, out=head)
            q = np.divide(head, r_total, out=b_q)
            np.multiply(q, dt_arr, out=q)
            np.divide(q, cap, out=q)
            np.maximum(q, 0.0, out=q)
            tv = np.add(v, q, out=b_tv)
            np.minimum(tv, v_max, out=tv)
            ev = np.greater_equal(tv, v_rise, out=b_ge)
            if has_fall:
                lt = np.less(tv, v_fall, out=b_lt)
                ev = np.logical_or(ev, lt, out=b_ge)
            after = np.multiply(half_c, tv, out=b_after)
            np.multiply(after, tv, out=after)
            if alive_all:
                starve = np.greater_equal(e_dem, after, out=b_starve)
                flag = np.logical_or(ev, starve, out=b_flag)
                if not flag.any():
                    # Fast path: every lane commits, nobody starves —
                    # one reduction, no ledger arithmetic (deferred).
                    rem = np.subtract(after, e_dem, out=b_rem)
                    np.multiply(rem, 2.0, out=rem)
                    np.divide(rem, cap, out=rem)
                    np.sqrt(rem, out=v)
                    vcc[:, i] = v
                    committed = i + 1
                    if i + 1 >= min_hz:
                        np.greater(horizons, i + 1, out=alive)
                        alive_all = bool(alive.all())
                        live = int(np.count_nonzero(alive))
                        if live == 0:
                            break
                        if (
                            i + 1 >= _EARLY_EXIT_MIN_STEPS
                            and live * 4 < m_count
                        ):
                            np.copyto(taken, i + 1, where=alive)
                            break
                    continue
                if not ev.any():
                    # Some lane starves but nobody events: settle the
                    # open segment (v is still the pre-step voltage)
                    # and take this one step with the explicit ledger.
                    _settle_segment(i)
                    before = np.multiply(half_c, v, out=b_before)
                    np.multiply(before, v, out=before)
                    gain = np.subtract(after, before, out=b_gain)
                    np.add(harvested, gain, out=harvested)
                    rem = np.subtract(after, e_dem, out=b_rem)
                    np.multiply(rem, 2.0, out=rem)
                    np.divide(rem, cap, out=rem)
                    root = np.sqrt(rem, out=rem)
                    np.copyto(v, root)
                    np.copyto(v, 0.0, where=starve)
                    deliv = b_deliv
                    np.copyto(deliv, e_dem)
                    np.copyto(deliv, after, where=starve)
                    np.add(consumed, deliv, out=consumed)
                    sdel = np.subtract(e_dem, deliv, out=b_sdel)
                    np.add(starved, sdel, out=starved)
                    vcc[:, i] = v
                    committed = i + 1
                    np.multiply(v, v, out=seg_sq)
                    seg_start = i + 1
                    if i + 1 >= min_hz:
                        np.greater(horizons, i + 1, out=alive)
                        alive_all = bool(alive.all())
                        live = int(np.count_nonzero(alive))
                        if live == 0:
                            break
                        if (
                            i + 1 >= _EARLY_EXIT_MIN_STEPS
                            and live * 4 < m_count
                        ):
                            np.copyto(taken, i + 1, where=alive)
                            break
                    continue
            # Masked path: at least one lane is frozen or events now.
            if deferred:
                # All lanes committed steps [seg_start, i) unmasked and
                # v is unchanged since the last commit: settle once,
                # then run the explicit per-lane ledger from here on.
                _settle_segment(i)
                deferred = False
            newly = alive & ev
            if newly.any():
                np.copyto(taken, i, where=newly)
            commit = alive & ~ev
            before = np.multiply(half_c, v, out=b_before)
            np.multiply(before, v, out=before)
            gain = np.subtract(after, before, out=b_gain)
            np.copyto(harvested, harvested + gain, where=commit)
            starve = np.greater_equal(e_dem, after, out=b_starve)
            rem = np.subtract(after, e_dem, out=b_rem)
            np.multiply(rem, 2.0, out=rem)
            np.divide(rem, cap, out=rem)
            root = np.sqrt(rem, out=rem)
            np.copyto(v, root, where=commit)
            np.copyto(v, 0.0, where=commit & starve)
            deliv = b_deliv
            np.copyto(deliv, e_dem)
            np.copyto(deliv, after, where=starve)
            np.copyto(consumed, consumed + deliv, where=commit)
            sdel = np.subtract(e_dem, deliv, out=b_sdel)
            np.copyto(starved, starved + sdel, where=commit)
            vcc[:, i] = v
            alive = commit & (np.int64(i + 1) < horizons)
            alive_all = False
            live = int(np.count_nonzero(alive))
            if live == 0:
                break
            if i + 1 >= _EARLY_EXIT_MIN_STEPS and live * 4 < m_count:
                # Most lanes are frozen: cut the pass short (shorter
                # chunks are equally valid) and regather.
                np.copyto(taken, i + 1, where=alive)
                break
    if deferred:
        _settle_segment(committed)
    _commit_pass(members, horizons, taken, v, harvested, consumed,
                 starved, e_dem_py, vcc, stats)


def _finalize(lane: _Lane, capture_traces: Sequence[str],
              max_trace_samples: int) -> RunResult:
    """Wrap a finished lane as a RunResult, mirroring run_point_payload."""
    from repro.core.system import SystemRunResult

    spec = lane.spec
    try:
        run = SystemRunResult(
            t_end=lane.sim.t,
            traces=lane.sim._recorder.traces(),
            rail=lane.rail,
            platform=lane.platform,
        )
        return RunResult.from_system_run(
            run,
            spec,
            overrides=lane.overrides,
            capture_traces=tuple(capture_traces),
            max_trace_samples=max_trace_samples,
        )
    except Exception as error:
        return RunResult.failed(
            f"{type(error).__name__}: {error}",
            spec_hash=spec_hash(spec),
            name=spec.name,
            overrides=lane.overrides,
            spec=spec,
        )


def _run_solo(spec: ScenarioSpec, overrides: Dict[str, Any],
              capture_traces: Sequence[str],
              max_trace_samples: int) -> RunResult:
    """The unbatched per-scenario path, identical to run_point_payload."""
    try:
        system = spec.build()
        run = system.run(spec.duration, decimate=spec.decimate)
        return RunResult.from_system_run(
            run,
            spec,
            overrides=overrides,
            capture_traces=tuple(capture_traces),
            max_trace_samples=max_trace_samples,
        )
    except Exception as error:
        return RunResult.failed(
            f"{type(error).__name__}: {error}",
            spec_hash=spec_hash(spec),
            name=spec.name,
            overrides=overrides,
            spec=spec,
        )


def run_specs_batched(
    specs: Sequence[ScenarioSpec],
    overrides_list: Optional[Sequence[Dict[str, Any]]] = None,
    capture_traces: Sequence[str] = (),
    max_trace_samples: int = MAX_TRACE_SAMPLES,
    stats: Optional[BatchStats] = None,
    round_hook: Optional[RoundHook] = None,
) -> List[RunResult]:
    """Run a batch of same-topology scenarios through the SoA kernel.

    Returns one :class:`RunResult` per spec, in order — each identical
    in spec hash, event timing and vcc trace to a per-scenario fast run.
    Members the batch kernel cannot vectorize run through the untouched
    per-scenario path (and count as ``diverged`` in ``stats``); a member
    that fails to build or run becomes an error result, exactly as
    :func:`repro.spec.runner.run_point_payload` produces.

    Args:
        specs: the batch members (callers group by :func:`topology_key`;
            mixed batches still produce correct results, just fewer
            shared passes).
        overrides_list: per-member override dicts recorded on results.
        capture_traces / max_trace_samples: as for the point worker.
        stats: a :class:`BatchStats` to accumulate into (optional).
        round_hook: called with the running stats after every round.
    """
    if overrides_list is None:
        overrides_list = [{} for _ in specs]
    if stats is None:
        stats = BatchStats()
    # Delta basis for the obs flush below: the caller may hand in a
    # BatchStats that already accumulated earlier batches.
    stats0 = stats.to_dict()
    t0 = time.monotonic()
    batch_span = obs.span("batch.run", specs=len(specs))
    batch_span.__enter__()
    results: List[Optional[RunResult]] = [None] * len(specs)
    cache = _PlanCache()
    lanes: List[_Lane] = []
    for index, (spec, overrides) in enumerate(zip(specs, overrides_list)):
        overrides = dict(overrides)
        if not batchable(spec):
            results[index] = _run_solo(
                spec, overrides, capture_traces, max_trace_samples
            )
            continue
        try:
            lane = _build_lane(index, spec, overrides)
            if not _lane_chunkable(lane) or not _lane_vectorizable(
                lane, cache
            ):
                results[index] = _run_solo(
                    spec, overrides, capture_traces, max_trace_samples
                )
                stats.diverged += 1
                continue
        except Exception as error:
            results[index] = RunResult.failed(
                f"{type(error).__name__}: {error}",
                spec_hash=spec_hash(spec),
                name=spec.name,
                overrides=overrides,
                spec=spec,
            )
            continue
        lanes.append(lane)
    stats.members += len(lanes)
    try:
        _drive_lanes(lanes, stats, round_hook)
        for lane in lanes:
            results[lane.index] = _finalize(
                lane, capture_traces, max_trace_samples
            )
    except Exception:
        # Batch-machinery safety net: rerun every unfinished member
        # through the per-scenario path on a fresh system (results are
        # deterministic, so a rebuild reproduces the run exactly).
        for lane in lanes:
            if results[lane.index] is None:
                results[lane.index] = _run_solo(
                    lane.spec, lane.overrides, capture_traces,
                    max_trace_samples,
                )
                stats.diverged += 1
    if obs.obs_enabled():
        delta = {
            key: value - stats0.get(key, 0)
            for key, value in stats.to_dict().items()
        }
        for key, value in delta.items():
            if value:
                obs.counter(f"repro_batch_{key}_total").inc(value)
        obs.histogram("repro_batch_run_seconds").observe(
            time.monotonic() - t0
        )
        batch_span.annotate(**delta)
    batch_span.__exit__(None, None, None)
    return [result for result in results if result is not None]


def _drive_lanes(
    lanes: List[_Lane], stats: BatchStats, round_hook: Optional[RoundHook]
) -> None:
    """Advance every lane to its end: array passes while at least
    ``_MIN_VECTOR_GROUP`` lanes share the simple regime, the solo chunk
    schedule for everything else."""
    vector: List[_Lane] = []
    for lane in lanes:
        if lane.simple:
            vector.append(lane)
            continue
        # No regime of this lane's shape fits the array pass: run it to
        # the end now, on exactly the solo kernel's schedule.
        _finish_solo(lane, stats)
        if round_hook is not None:
            round_hook(stats)
    while True:
        runnable = [lane for lane in vector if not lane.done]
        if len(runnable) < _MIN_VECTOR_GROUP:
            # Too few lanes left to ever fill a pass.
            for lane in runnable:
                _finish_solo(lane, stats)
            if round_hook is not None:
                round_hook(stats)
            return
        # 1. Scalar settlement: event-boundary steps and backoff runs
        #    execute through the unmodified reference path.
        for lane in runnable:
            if lane.pending_scalar and not lane.done:
                count = lane.pending_scalar
                lane.pending_scalar = 0
                _run_scalar_steps(lane, count, stats)
        # 2. Gather every lane's current regime; lanes in the simple
        #    one share a pass.
        simple: List[_Gathered] = []
        scalar: List[_Lane] = []
        for lane in runnable:
            if lane.done:
                continue
            gathered = _gather(lane)
            if gathered is not None and _simple_regime(gathered):
                simple.append(gathered)
            elif not lane.done:
                scalar.append(lane)
        # 3. One array pass for a full group; every other lane takes one
        #    chunk attempt on the solo schedule.
        if len(simple) >= _MIN_VECTOR_GROUP:
            _simple_pass(simple, stats)
        else:
            scalar.extend(gathered.lane for gathered in simple)
        for lane in scalar:
            _advance_chunk_scalar(lane, stats)
        if round_hook is not None:
            round_hook(stats)
