"""The in-process workloads: ``fig7-fft``, ``eq5-batched``, ``eq5-perpoint``.

Each job is one :class:`repro.spec.SweepRunner` run over a generated grid,
serial and in-process, writing to a fresh JSONL result store; result
queries against that store run between jobs.  A run is a fixed number of
rounds, so every run of a seed does the same work.  A host-speed probe
(:class:`common.HostSpeed`) follows every job, and every timed sample is
reported at reference host speed.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import common
import layers
from tracer import Tracer, write_json
from workloads import QUERIES, inproc_rounds

#: Result queries per run: a hundred or more samples beyond p90.
N_QUERIES = 1100

#: ``batch_size`` per workload: 0 = the user default (auto batching).
BATCH_SIZE = {"fig7-fft": 0, "eq5-batched": 0, "eq5-perpoint": 1}

#: Workloads whose ``job_s`` sample is a whole round: one Eq. (5)
#: crossover, both strategies' sweeps.  A Hibernus sweep costs about
#: twice a QuickRecall one, so per-sweep percentiles would sit on the
#: gap between the two.
ROUND_IS_JOB = ("eq5-batched", "eq5-perpoint")

#: A run of ``--seconds`` does ``seconds / ROUND_S`` whole rounds,
#: whatever the host's speed.  Each is about one round's job time on a
#: 2-CPU host, so at 20 s: fig7 14 rounds (~19 s of jobs), eq5-batched
#: 5 (~25 s), eq5-perpoint 9 (~21 s).
ROUND_S = {"fig7-fft": 1.4, "eq5-batched": 4.0, "eq5-perpoint": 2.2}

#: Metrics that count simulated events; fast vs reference must match
#: them exactly, not just within tolerance.
EVENT_COUNTS = ("brownouts", "snapshots", "snapshots_aborted", "restores",
                "completed")


@dataclass
class Phase:
    """What one timed phase produced."""

    store_path: str
    speed: common.HostSpeed = field(default_factory=common.HostSpeed)
    points: int = 0
    round_is_job: bool = False
    #: Per sweep: seconds, CPU seconds, the probe taken right after it,
    #: and its round.
    job_s: List[float] = field(default_factory=list)
    job_cpu_s: List[float] = field(default_factory=list)
    job_probe: List[int] = field(default_factory=list)
    job_round: List[int] = field(default_factory=list)
    #: Per query: milliseconds, and the probe after the job before it.
    query_ms: List[float] = field(default_factory=list)
    query_probe: List[int] = field(default_factory=list)
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: spec hash -> the RunResult the sweep returned.
    rows: Dict[str, Any] = field(default_factory=dict)
    #: The phase's first round of jobs and their seconds (the cross-mode
    #: check reruns it in the other batching mode and times it).
    first_jobs: List[Dict[str, Any]] = field(default_factory=list)
    first_s: float = 0.0
    rounds: int = 0
    peak_rss_mb: float = 0.0

    def at_reference(self, values: List[float],
                     probes: List[int]) -> List[float]:
        """``values`` at reference host speed, each by its probe."""
        return [v * self.speed.scale(k) for v, k in zip(values, probes)]

    def job_samples(self) -> List[float]:
        """Job seconds at reference host speed: one per sweep, or one
        per round where a round is one job (:data:`ROUND_IS_JOB`)."""
        scaled = self.at_reference(self.job_s, self.job_probe)
        if not self.round_is_job:
            return scaled
        rounds: Dict[int, float] = {}
        for index, seconds in zip(self.job_round, scaled):
            rounds[index] = rounds.get(index, 0.0) + seconds
        return list(rounds.values())

    @property
    def points_per_s(self) -> float:
        """Points per second of job time (queries excluded), at
        reference host speed."""
        return self.points / sum(self.at_reference(self.job_s,
                                                   self.job_probe))


class Context:
    """The set-up program state: imports done, specs parsed, kernel loaded."""

    def __init__(self, workload: str, seed: int):
        from repro.analysis.crossover import series_from_store
        from repro.analysis.pareto import pareto_from_store
        from repro.results.store import ResultStore
        from repro.sim import _ckernel
        from repro.spec import SweepRunner, preset

        self.workload, self.seed = workload, seed
        self.SweepRunner, self.ResultStore = SweepRunner, ResultStore
        self.pareto_from_store = pareto_from_store
        self.series_from_store = series_from_store
        self._preset = preset
        self._bases: Dict[str, Any] = {}
        for job in next(inproc_rounds(workload, seed)):
            self.base(job)
        self.ckernel = _ckernel.load() is not None

    def base(self, job: Dict[str, Any]) -> Any:
        """The job's parsed base spec (cached per preset + overrides)."""
        key = json.dumps([job["preset"], job["overrides"]], sort_keys=True)
        spec = self._bases.get(key)
        if spec is None:
            spec = self._preset(job["preset"]).with_overrides(
                job["overrides"]
            )
            self._bases[key] = spec
        return spec

    def query(self, store: Any, params: Dict[str, str]) -> Any:
        """One results query, as ``GET /v1/results`` would answer it."""
        if "best" in params:
            return store.best(params["best"])
        if "pareto" in params:
            return self.pareto_from_store(store, *params["pareto"].split(","))
        return self.series_from_store(store, *params["series"].split(","))


def run_phase(ctx: Context, seconds: float, workdir: str, label: str,
              tracer: Optional[Tracer] = None, first_round: int = 0) -> Phase:
    """Run ``seconds / ROUND_S`` rounds of jobs, queries between jobs.

    Rounds start at ``first_round``, so a second phase in the same
    process meets fresh points, not ones the first phase computed.
    """
    phase = Phase(store_path=os.path.join(workdir, f"{label}.jsonl"))
    store = ctx.ResultStore(phase.store_path)
    batch_size = BATCH_SIZE[ctx.workload]
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    phase.rounds = max(2, round(seconds / ROUND_S[ctx.workload]))
    phase.round_is_job = ctx.workload in ROUND_IS_JOB
    rounds = inproc_rounds(ctx.workload, ctx.seed, start=first_round)
    jobs_per_round = len(next(inproc_rounds(ctx.workload, ctx.seed)))
    queries_per_job = math.ceil(N_QUERIES / (phase.rounds * jobs_per_round))
    phase.speed.probe()
    for round_index in range(phase.rounds):
        jobs = next(rounds)
        for job in jobs:
            cpu0, t_job = common.self_cpu_s(), time.perf_counter()
            try:
                with span("bench.job"):
                    sweep = ctx.SweepRunner(ctx.base(job), job["grid"]).run(
                        parallel=False, store=store, resume=True,
                        batch_size=batch_size,
                    )
            except Exception as error:  # counted, reported, never hidden
                phase.failed += 1
                phase.problems.append(f"job raised {error!r}")
                continue
            phase.job_s.append(time.perf_counter() - t_job)
            phase.job_cpu_s.append(common.self_cpu_s() - cpu0)
            probe = phase.speed.probe()
            phase.job_probe.append(probe)
            phase.job_round.append(round_index)
            phase.points += len(sweep)
            for point in sweep:
                phase.rows[point.spec_hash] = point
                phase.failed += point.error is not None
            for k in range(queries_per_job):
                t_query = time.perf_counter()
                with span("bench.query"):
                    ctx.query(store, QUERIES[k % len(QUERIES)])
                phase.query_ms.append((time.perf_counter() - t_query) * 1e3)
                phase.query_probe.append(probe)
        if not phase.first_jobs:
            phase.first_jobs, phase.first_s = jobs, sum(phase.job_s)
    phase.peak_rss_mb = common.self_peak_rss_mb()
    return phase


def check(ctx: Context, phase: Phase) -> Dict[str, Any]:
    """The correctness gate for one phase; returns problems and diagnostics.

    * every returned row round-trips through a reopened store;
    * ``eq5-*``: the first round recomputed in the other batching mode
      gives the same spec hashes and metrics within 1e-9 (and is timed);
    * one point recomputed with ``kernel="reference"`` matches within
      1e-9, with identical event counts.
    """
    errors: List[str] = list(phase.problems)
    reopened = ctx.ResultStore(phase.store_path)
    if len(reopened) != len(phase.rows):
        errors.append(f"store round-trip: {len(reopened)} rows on disk, "
                      f"{len(phase.rows)} returned")
    for key, row in phase.rows.items():
        stored = reopened.get(key)
        if stored is None or stored.overrides != row.overrides or \
                common.metric_mismatches(stored.metrics, row.metrics, 0.0):
            errors.append(f"store round-trip: row {key} differs")
            break
    diagnostics: Dict[str, Any] = {}
    if ctx.workload.startswith("eq5"):
        other = 1 if BATCH_SIZE[ctx.workload] != 1 else 0
        store = ctx.ResultStore(os.path.join(
            os.path.dirname(phase.store_path), "other-mode.jsonl"
        ))
        t0 = time.perf_counter()
        recomputed = {}
        for job in phase.first_jobs:
            for point in ctx.SweepRunner(ctx.base(job), job["grid"]).run(
                parallel=False, store=store, batch_size=other,
            ):
                recomputed[point.spec_hash] = point.metrics
        other_s = time.perf_counter() - t0
        errors += common.compare_rows(
            f"batch_size={other} vs {ctx.workload}",
            {k: row.metrics for k, row in phase.rows.items()}, recomputed,
        )
        batched_s, perpoint_s = (
            (phase.first_s, other_s) if other == 1
            else (other_s, phase.first_s)
        )
        diagnostics["eq5_batched_over_perpoint_points_per_s"] = round(
            perpoint_s / batched_s, 3
        )
    # The cheapest first-round point: its lowest supply frequency.
    job = min(phase.first_jobs, key=lambda j: j["grid"]["frequency"][0])
    base = ctx.base(job)
    point = {key: values[0] for key, values in job["grid"].items()}
    fast = ctx.SweepRunner(base, {k: [v] for k, v in point.items()}).run(
        parallel=False
    ).points[0]
    reference = ctx.SweepRunner(
        base.with_overrides({"kernel": "reference"}),
        {k: [v] for k, v in point.items()},
    ).run(parallel=False).points[0]
    errors += common.compare_rows(
        "fast vs reference", {"p": fast.metrics}, {"p": reference.metrics},
    )
    for name in EVENT_COUNTS:
        if fast.metrics.get(name) != reference.metrics.get(name):
            errors.append(f"fast vs reference: event count {name} differs")
    if fast.spec_hash not in phase.rows:
        errors.append("fast recomputation changed the spec hash")
    else:
        errors += common.compare_rows(
            "solo fast recomputation",
            {"p": phase.rows[fast.spec_hash].metrics}, {"p": fast.metrics},
        )
    return {"errors": errors, "diagnostics": diagnostics}


def end_to_end(phase: Phase, setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced phase."""
    job_s = phase.job_samples()
    cpu_s = phase.at_reference(phase.job_cpu_s, phase.job_probe)
    query_ms = phase.at_reference(phase.query_ms, phase.query_probe)
    return {
        "setup_s": setup_s,
        "points_per_s": phase.points_per_s,
        "cpu_ms_per_point": sum(cpu_s) * 1e3 / phase.points,
        "peak_rss_mb": phase.peak_rss_mb,
        "job_s_p50": common.percentile(job_s, 50),
        "job_s_p90": common.percentile(job_s, 90),
        "query_ms_p50": common.percentile(query_ms, 50),
        "query_ms_p90": common.percentile(query_ms, 90),
    }


def as_measured(phase: Phase) -> Dict[str, float]:
    """Figures in host time as measured, and the run's host scale."""
    return {
        "points_per_s": phase.points / sum(phase.job_s),
        "cpu_ms_per_point": sum(phase.job_cpu_s) * 1e3 / phase.points,
        "host_scale": phase.speed.run_scale(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_s: float) -> Dict[str, Any]:
    """One benchmark invocation of an in-process workload.

    The workload runs on one thread, pinned to one CPU, so the
    host-speed probes time the CPU the program runs on: the host slows
    its CPUs by different shares at a time.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ctx = Context(workload, seed)
    workdir = common.fresh_dir(workload)
    out: Dict[str, Any] = {"ckernel": ctx.ckernel}
    if not trace:
        phase = run_phase(ctx, seconds, workdir, "timed")
        out["metrics"] = end_to_end(phase, setup_s)
    else:
        plain = run_phase(ctx, seconds / 2, workdir, "untraced")
        from repro import obs

        tracer = Tracer()
        layers.install(tracer)
        before = layers.instrument_totals(obs.registry.snapshot())
        phase = run_phase(ctx, seconds / 2, workdir, "traced", tracer,
                          first_round=plain.rounds)
        inst = layers.delta(
            layers.instrument_totals(obs.registry.snapshot()), before
        )
        tracer.unwrap_all()
        overhead = plain.points_per_s / phase.points_per_s - 1.0
        out["metrics"] = layers.per_layer(
            [tracer.snapshot()], inst, {}, ctx.ckernel, overhead
        )
        out["trace_path"] = os.path.join(
            common.TRACES, f"{workload}-seed{seed}.json"
        )
        write_json(out["trace_path"], tracer.chrome_trace())
    gate = check(ctx, phase)
    gate["diagnostics"]["as_measured"] = as_measured(phase)
    out.update(
        errors=gate["errors"], diagnostics=gate["diagnostics"],
        attempted=len(phase.job_s) + phase.points + len(phase.query_ms),
        failed=phase.failed,
        samples={"rounds": phase.rounds, "jobs": len(phase.job_samples()),
                 "queries": len(phase.query_ms), "points": phase.points,
                 "beyond_job_p90": common.beyond(phase.job_samples(), 90),
                 "beyond_query_p90": common.beyond(phase.query_ms, 90)},
        workdir=workdir,
    )
    return out
