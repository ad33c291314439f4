"""Command-line experiment runner.

    python -m repro.cli list
    python -m repro.cli taxonomy
    python -m repro.cli fig7 [--fft-size 512] [--supply-hz 4.7]
    python -m repro.cli crossover [--frequencies 2 10 40 80]
    python -m repro.cli sources
    python -m repro.cli spec fig7 > fig7.json
    python -m repro.cli run fig7.json
    python -m repro.cli sweep --set capacitance=22e-6,47e-6 --set frequency=4.7,9.4
    python -m repro.cli sweep --set frequency=2,10,40 --output sweep.jsonl --resume
    python -m repro.cli explore --axis capacitance=log:1e-5:1e-4 \
        --objective capacitance --require completed --budget 24 \
        --output explore.jsonl --resume
    python -m repro.cli results sweep.jsonl --best energy_total
    python -m repro.cli serve --port 8000 --store service.jsonl
    python -m repro.cli sweep --set frequency=2,10 --trace-out trace.json
    python -m repro.cli obs trace.json
    python -m repro.cli components

The figure subcommands run the reproduction scenarios and print the same
series the paper's figures show.  The generic ``run``/``sweep`` commands
drive any declarative :class:`~repro.spec.ScenarioSpec` — dump a starting
point with ``spec``, edit the JSON, and feed it back.  ``sweep`` expands a
parameter grid and executes the points in parallel across processes;
``--output`` persists every point to a JSONL
:class:`~repro.results.ResultStore` and ``--resume`` recomputes only the
points the store does not already hold.  ``results`` queries a store
after the fact: tabulate, merge shards, pick bests, extract Pareto
frontiers.  ``serve`` runs the whole stack as a long-lived HTTP service
(see :mod:`repro.serve`): clients POST specs/grids/search-spaces, jobs
queue onto one warm worker pool, and a shared store dedupes overlapping
work across clients.  ``run``/``sweep``/``explore`` take ``--trace-out``
to record kernel/pool/store spans (see :mod:`repro.obs`) as Chrome
trace-event JSON, and ``obs`` summarizes such a file as text tables.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, List, Optional

from repro import obs

from repro.analysis.crossover import crossover_from_store, series_from_store
from repro.analysis.pareto import pareto_from_store
from repro.analysis.report import format_table, print_section
from repro.core.metrics import RunReport
from repro.explore import (
    Axis,
    ExplorationDriver,
    Objective,
    SearchSpace,
    available_optimizers,
)
from repro.results import ResultStore, RunResult
from repro.core.taxonomy import classify, exemplars
from repro.errors import ReproError
from repro.harvest.solar import PhotovoltaicHarvester
from repro.harvest.traces import record_voltage
from repro.harvest.wind import MicroWindTurbine
from repro.mcu.programs import fft_golden
from repro.sim import waveform
from repro.sim.kernel import KERNELS
from repro.sim.probes import Trace
from repro.spec import (
    ScenarioSpec,
    SweepRunner,
    available,
    kinds,
    preset,
    preset_names,
)
from repro.spec.presets import crossover_spec, fig7_spec
from repro.units import days


def cmd_list(_: argparse.Namespace) -> int:
    """List the available experiments."""
    rows = [
        ["sources", "Fig. 1: wind gust + indoor PV source statistics"],
        ["taxonomy", "Fig. 2: classify the paper's example systems"],
        ["fig7", "Fig. 7: Hibernus FFT over a half-wave rectified supply"],
        ["crossover", "Eq. 5: Hibernus vs QuickRecall energy sweep"],
        ["spec", "dump a preset scenario spec as JSON"],
        ["run", "run a scenario spec from a JSON file"],
        ["sweep", "expand a parameter grid and run it in parallel"],
        ["explore", "budgeted design-space search with an optimizer"],
        ["results", "query a persisted sweep result store"],
        ["serve", "run the HTTP simulation service (job queue + store)"],
        ["chaos", "fault-injection smoke: faulted sweep == clean sweep"],
        ["obs", "summarize a --trace-out trace file (spans + metrics)"],
        ["components", "list the registered spec components"],
    ]
    print(format_table(["command", "experiment"], rows))
    return 0


def cmd_sources(_: argparse.Namespace) -> int:
    """Fig. 1 source statistics."""
    turbine = MicroWindTurbine.single_gust()
    times, volts = record_voltage(turbine, duration=9.0, dt=1e-3)
    wind = Trace("wind", times, volts)
    print_section(
        "Fig. 1a: micro wind turbine (single gust)",
        f"peaks {wind.minimum():.2f} .. {wind.maximum():.2f} V, "
        f"dominant {waveform.dominant_frequency(wind.between(3.0, 5.5)):.1f} Hz "
        "mid-gust",
    )
    cell = PhotovoltaicHarvester.indoor_fig1b()
    import numpy as np

    pv_times = np.arange(0.0, days(2), 300.0)
    currents = np.array([cell.current(float(t)) for t in pv_times])
    pv = Trace("pv", pv_times, currents)
    print_section(
        "Fig. 1b: indoor PV over two days",
        f"current band {pv.minimum() * 1e6:.0f} .. {pv.maximum() * 1e6:.0f} uA, "
        f"24 h periodicity {waveform.periodicity_strength(pv, days(1)):.2f}",
    )
    return 0


def cmd_taxonomy(_: argparse.Namespace) -> int:
    """Fig. 2 classification table."""
    rows = []
    for descriptor in exemplars():
        placement = classify(descriptor)
        rows.append(
            [
                placement.name,
                placement.axis,
                placement.storage_class.value,
                placement.adaptation.value,
                placement.energy_driven,
            ]
        )
    print_section(
        "Fig. 2: taxonomy placements",
        format_table(
            ["system", "axis", "storage", "adaptation", "energy-driven"], rows
        ),
    )
    return 0


def cmd_fig7(args: argparse.Namespace) -> int:
    """Fig. 7 scenario with adjustable FFT size and supply frequency.

    Declarative since the spec layer landed: the scenario is a
    :func:`~repro.spec.presets.fig7_spec` built and run through
    ``ScenarioSpec.build()`` — the hand-wired ``EnergyDrivenSystem``
    construction this used to do inline.
    """
    spec = fig7_spec(
        fft_size=args.fft_size,
        supply_hz=args.supply_hz,
        duration=args.duration,
    )
    if args.kernel is not None:
        spec = spec.with_override("kernel", args.kernel)
    result = spec.run()

    platform = result.platform
    strategy = platform.strategy
    machine = platform.engine.machine
    metrics = platform.metrics
    completion = metrics.first_completion_time
    golden = fft_golden(args.fft_size)[2]
    rows = [
        ["V_H (Eq. 4)", f"{strategy.v_hibernate:.2f} V"],
        ["snapshots / restores",
         f"{metrics.snapshots_completed} / {metrics.restores_completed}"],
        ["completed", "no" if completion is None else f"t={completion:.3f} s"],
        ["supply cycle", "-" if completion is None
         else int(completion * args.supply_hz) + 1],
        ["checksum ok", machine.output_port.last == golden],
    ]
    print_section(
        f"Fig. 7: Hibernus FFT-{args.fft_size} at {args.supply_hz} Hz",
        format_table(["quantity", "value"], rows),
    )
    return 0 if completion is not None else 1


def cmd_crossover(args: argparse.Namespace) -> int:
    """Eq. 5 sweep over the given interruption frequencies.

    Two frequency sweeps (one per strategy) run through the
    :class:`SweepRunner` into one :class:`ResultStore` — persistent
    (and resumable) with ``--output`` — and the table plus the
    interpolated crossover are store queries.
    """
    grid = {"frequency": [float(f) for f in args.frequencies]}
    store = ResultStore(args.output)
    wanted = set()
    for strategy in ("hibernus", "quickrecall"):
        base = crossover_spec(strategy)
        if args.kernel is not None:
            base = base.with_override("kernel", args.kernel)
        runner = SweepRunner(base, grid)
        runner.run(
            parallel=not args.serial,
            store=store,
            resume=args.output is not None,
        )
        wanted.update(runner.hashes)
    # Query through a view holding only THIS invocation's points: a
    # reused --output store may also hold other kernels/frequencies
    # under the same scenario names.
    view = ResultStore()
    for point_hash in wanted:
        if store.get(point_hash) is not None:
            view.add(store.get(point_hash))
    series = {
        strategy: dict(zip(*series_from_store(
            view, "frequency", "energy_total",
            name=f"crossover-{strategy}",
        )[:2]))
        for strategy in ("hibernus", "quickrecall")
    }
    rows = []
    for frequency in grid["frequency"]:
        e_hib = series["hibernus"].get(frequency)
        e_qr = series["quickrecall"].get(frequency)
        if e_hib is None or e_qr is None:
            errors = [
                r.error
                for r in view.select(frequency=frequency)
                if r.error is not None
            ]
            rows.append([frequency, "-", "-",
                         f"error: {errors[0]}" if errors else "incomplete"])
            continue
        rows.append([frequency, e_hib * 1e3, e_qr * 1e3,
                     "hibernus" if e_hib < e_qr else "quickrecall"])
    crossover = crossover_from_store(
        view, "frequency", "energy_total",
        "name", "crossover-hibernus", "crossover-quickrecall",
    )
    print_section(
        "Eq. (5): energy to complete 4 M cycles",
        format_table(
            ["f (Hz)", "E hibernus (mJ)", "E quickrecall (mJ)", "winner"], rows
        )
        + (f"\nmeasured crossover: {crossover:.1f} Hz" if crossover else
           "\nno crossover inside the sweep"),
    )
    return 0


@contextlib.contextmanager
def _maybe_tracing(trace_out: Optional[str]) -> Iterator[None]:
    """Capture spans for the block and export them to ``trace_out``.

    With no ``--trace-out`` this is free — tracing stays off and every
    ``obs.span`` in the stack returns the shared no-op.  With a path,
    spans buffer in memory for the duration of the command and land as
    one Chrome trace-event JSON file (open it in Perfetto or
    ``chrome://tracing``, or summarize it with ``repro obs``).
    """
    if trace_out is None:
        yield
        return
    with obs.capture():
        yield
    count = obs.export_trace(trace_out)
    print(f"\nwrote {count} trace event(s) to {trace_out} "
          f"(view: Perfetto / chrome://tracing; summarize: repro obs)")


def _print_run_summary(spec: ScenarioSpec, result) -> None:
    vcc = result.vcc()
    print_section(
        f"scenario: {spec.name}",
        f"t_end {result.t_end:.4f} s, "
        f"V_cc {vcc.minimum():.2f} .. {vcc.maximum():.2f} V",
    )
    if result.platform is not None:
        report = RunReport.from_run(result.platform, result.t_end)
        for line in report.lines():
            print(" ", line)


def cmd_spec(args: argparse.Namespace) -> int:
    """Dump a preset scenario spec as JSON (edit it, then ``run`` it)."""
    if args.name is None:
        print(format_table(["preset"], [[name] for name in preset_names()]))
        return 0
    print(preset(args.name).to_json())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run a scenario spec loaded from a JSON file."""
    spec = ScenarioSpec.load(args.spec)
    if args.kernel is not None:
        spec = spec.with_override("kernel", args.kernel)
    if args.duration is not None:
        spec = spec.with_override("duration", args.duration)
    with _maybe_tracing(args.trace_out):
        result = spec.run()
        _print_run_summary(spec, result)
        if args.output is not None:
            store = ResultStore(args.output)
            store.add(
                RunResult.from_system_run(
                    result, spec, capture_traces=("vcc",)
                ),
                overwrite=True,
            )
            print(f"\nstored 1 result ({len(store)} total) in {args.output}")
    if result.platform is None:
        return 0
    return 0 if result.platform.metrics.first_completion_time is not None else 1


def _parse_grid_value(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_grid(settings: Optional[List[str]]):
    grid = {}
    for setting in settings or []:
        key, _, values = setting.partition("=")
        if not values:
            raise ReproError(
                f"--set wants key=v1,v2,... got {setting!r}"
            )
        grid[key] = [_parse_grid_value(v) for v in values.split(",")]
    return grid


def _load_base(args: argparse.Namespace) -> ScenarioSpec:
    """The base spec of a sweep/exploration: file or preset, plus the
    shared --duration/--kernel overrides."""
    if args.spec is not None:
        base = ScenarioSpec.load(args.spec)
    else:
        base = preset(args.preset)
    if args.duration is not None:
        base = base.with_override("duration", args.duration)
    if args.kernel is not None:
        base = base.with_override("kernel", args.kernel)
    return base


def _supervision_policy(args: argparse.Namespace):
    """The ``--deadline``/``--max-retries`` flags as a validated
    :class:`~repro.spec.runner.SupervisionPolicy` (idle when both are
    unset: one unsupervised attempt)."""
    from repro.spec.runner import SupervisionPolicy

    return SupervisionPolicy(
        deadline_s=args.deadline, max_retries=args.max_retries
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Expand a parameter grid over a base spec and run it in parallel."""
    # Validated before anything opens the store: bad flags store nothing.
    policy = _supervision_policy(args)
    base = _load_base(args)
    grid = _parse_grid(args.set)
    if not grid:
        # A representative default: storage size x supply frequency, with
        # Eq. (4) thresholds recalibrating per point.
        grid = {"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]}
    if args.resume and args.output is None:
        raise ReproError("--resume needs --output (the store to resume from)")
    store = (ResultStore(args.output)
             if args.output is not None else None)
    runner = SweepRunner(base, grid, max_workers=args.workers)
    progress = None
    if args.progress:
        progress = lambda event: print(f"  {event.describe()}")
    with _maybe_tracing(args.trace_out):
        result = runner.run(
            parallel=not args.serial, store=store, resume=args.resume,
            progress=progress, policy=policy,
        )
    mode = "serial" if args.serial else "parallel"
    print_section(
        f"sweep: {base.name}, {len(runner)} points ({mode})",
        result.format(),
    )
    if store is not None:
        print(
            f"\n{result.computed} computed, {result.cached} reused; "
            f"{len(store)} result(s) in {args.output}"
        )
    return 0


_AXIS_KIND_PREFIXES = {
    "lin": "continuous",
    "log": "log",
    "int": "integer",
    "cat": "categorical",
}


def _parse_axis(text: str) -> Axis:
    """One ``--axis`` setting: ``KEY=[lin:|log:|int:|cat:]ARGS``.

    ``capacitance=log:1e-5:1e-4`` (log-spaced bounds),
    ``frequency=4.7:9.4`` (linear bounds — the default kind),
    ``store_slots=int:1:4``, ``strategy=cat:hibernus,quickrecall``.
    """
    name, sep, domain = text.partition("=")
    if not sep or not name or not domain:
        raise ReproError(
            f"--axis wants KEY=[lin:|log:|int:|cat:]ARGS, got {text!r}"
        )
    parts = domain.split(":")
    if parts[0] in _AXIS_KIND_PREFIXES:
        kind, parts = _AXIS_KIND_PREFIXES[parts[0]], parts[1:]
    else:
        kind = "continuous"
    if kind == "categorical":
        choices = [_parse_grid_value(v) for v in ":".join(parts).split(",")]
        return Axis.categorical(name, choices)
    if len(parts) != 2:
        raise ReproError(
            f"--axis {name!r}: numeric kinds want LOW:HIGH, got {domain!r}"
        )
    low, high = (_parse_grid_value(p) for p in parts)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (low, high)):
        raise ReproError(
            f"--axis {name!r}: bounds must be numbers, got {domain!r}"
        )
    if kind == "integer":
        return Axis.integer(name, low, high)
    return Axis(name, kind, low=float(low), high=float(high))


def _parse_optimizer_params(settings: Optional[List[str]]):
    params = {}
    for setting in settings or []:
        key, sep, value = setting.partition("=")
        if not sep or not key:
            raise ReproError(f"--opt wants key=value, got {setting!r}")
        params[key] = _parse_grid_value(value)
    return params


def cmd_explore(args: argparse.Namespace) -> int:
    """Budgeted design-space search: optimizer + store-backed caching."""
    policy = _supervision_policy(args)
    base = _load_base(args)
    if args.space is not None:
        if args.axis:
            raise ReproError("--space and --axis are mutually exclusive")
        space = SearchSpace.load(args.space)
    elif args.axis:
        space = SearchSpace.of(*[_parse_axis(a) for a in args.axis])
    else:
        raise ReproError(
            "explore needs a search space: repeat --axis KEY=KIND:ARGS "
            "or point --space at a SearchSpace JSON file"
        )
    objectives = [
        Objective.parse(text, require=args.require)
        for text in (args.objective or ["completion_time"])
    ]
    if args.resume and args.output is None:
        raise ReproError("--resume needs --output (the store to resume from)")
    store = (ResultStore(args.output)
             if args.output is not None else None)

    def progress(event):
        print(f"  {event.describe()}")

    driver = ExplorationDriver(
        base,
        space,
        objectives,
        optimizer=args.optimizer,
        optimizer_params=_parse_optimizer_params(args.opt),
        store=store,
        resume=args.resume,
        parallel=not args.serial,
        max_workers=args.workers,
        seed=args.seed,
        progress=progress,
        policy=policy,
    )
    goals = ", ".join(o.describe() for o in driver.objectives)
    print(f"explore: {base.name} via {args.optimizer} "
          f"(budget {args.budget}, {goals})")
    with _maybe_tracing(args.trace_out):
        outcome = driver.run(budget=args.budget)
    print_section(
        f"top {min(args.top, len(outcome))} of {len(outcome)} evaluation(s)",
        outcome.format(top=args.top),
    )
    print(outcome.describe())
    if len(driver.objectives) > 1 and outcome.frontier:
        lines = [
            f"{e.candidate.overrides} -> "
            + ", ".join(
                f"{o.metric}={o.value(e.result):.6g}"
                for o in driver.objectives
                if o.value(e.result) is not None
            )
            for e in outcome.frontier
        ]
        print_section(
            f"pareto frontier ({len(outcome.frontier)} point(s))",
            "\n".join(lines),
        )
    if store is not None:
        print(f"\n{outcome.computed} computed, {outcome.cached} reused; "
              f"{len(store)} result(s) in {args.output}")
    return 0 if outcome.best is not None else 1


def _load_store(path: str) -> ResultStore:
    if not os.path.exists(path):
        raise ReproError(f"no result store at {path!r}")
    return ResultStore(path)


def cmd_results(args: argparse.Namespace) -> int:
    """Query a persisted result store: tabulate, merge, best, pareto."""
    if args.merge:
        store = ResultStore.merge_shards(args.merge, output=args.store)
        print(f"merged {len(args.merge)} shard(s) into {args.store} "
              f"({len(store)} unique results)")
    else:
        store = _load_store(args.store)
    if len(store) == 0:
        print("store is empty")
        return 0
    failed = [r for r in store if not r.ok]
    print_section(
        f"results: {args.store} ({len(store)} rows, {len(failed)} failed)",
        store.table(),
    )
    if args.best is not None:
        best = store.best(args.best, minimize=not args.maximize)
        objective = "max" if args.maximize else "min"
        print(f"\nbest ({objective} {args.best}): "
              f"{best.name} {best.overrides} -> {best[args.best]:.6g}")
    if args.pareto is not None:
        cost, benefit = args.pareto
        frontier = pareto_from_store(store, cost, benefit)
        lines = [
            f"{r.name} {r.overrides}: {cost}={r[cost]:.6g} "
            f"{benefit}={r[benefit]:.6g}"
            for r in frontier
        ]
        print_section(
            f"pareto frontier ({len(frontier)} of {len(store)} points, "
            f"min {cost} / max {benefit})",
            "\n".join(lines),
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP simulation service until SIGTERM/SIGINT.

    One process serves every client: jobs queue FIFO onto a persistent
    warm-worker pool, results land in the shared ``--store`` (so
    overlapping requests compute each point exactly once), and shutdown
    is graceful — in-flight jobs are marked ``interrupted`` in the job
    file and no worker processes are leaked.
    """
    from repro.serve import create_server, serve_forever

    server = create_server(
        host=args.host,
        port=args.port,
        store_path=args.store,
        max_workers=args.workers,
        parallel=not args.serial,
        default_deadline_s=args.deadline,
        default_max_retries=args.max_retries,
    )
    host, port = server.server_address[:2]
    store_note = args.store if args.store is not None else "in-memory"
    print(f"repro serve: listening on http://{host}:{port} "
          f"(store: {store_note})", flush=True)
    print("  POST /v1/runs|/v1/sweeps|/v1/explorations, GET /v1/jobs/{id}, "
          "GET /v1/results, /healthz, /metrics", flush=True)
    serve_forever(server)
    print("repro serve: shut down cleanly")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection smoke test: a faulted sweep must equal a clean one.

    Runs the same grid twice — once fault-free, once with the
    ``--faults`` injection points armed and the supervised pool's
    retry/deadline machinery turned on — and demands the chaos run
    converge to **bit-identical** results (metrics and vcc traces per
    spec hash).  Prints the injection/retry/reap counters so the chaos
    actually exercised something, and exits nonzero on any divergence
    or quarantined payload.
    """
    from repro import faults as faults_mod
    from repro.results.run_result import is_quarantined_error

    policy = _supervision_policy(args)
    base = _load_base(args)
    grid = _parse_grid(args.set)
    if not grid:
        grid = {"capacitance": [22e-6, 33e-6, 47e-6, 68e-6],
                "frequency": [2.0, 4.7, 9.4, 20.0]}
    probabilities = faults_mod.parse_spec(args.faults)
    parallel = not args.serial
    if "worker.hang" in probabilities and not parallel:
        print("note: worker.hang is only reapable under pool execution; "
              "serial hangs sleep their full duration")

    runner = SweepRunner(base, grid, max_workers=args.workers)
    print(f"chaos: {base.name}, {len(runner)} points; "
          f"faults {args.faults} (seed {args.seed}), "
          f"deadline {policy.deadline_s}s, "
          f"max retries {policy.max_retries}")
    # The reference run must be genuinely fault-free even when the
    # process inherited ambient REPRO_FAULTS arming: an empty
    # probability map masks it for the duration.
    with faults_mod.active({}):
        clean = runner.run(parallel=parallel, capture_traces=("vcc",))
    with faults_mod.active(
        probabilities, seed=args.seed, hang_s=args.hang_s
    ):
        chaos = SweepRunner(base, grid, max_workers=args.workers).run(
            parallel=parallel, capture_traces=("vcc",), policy=policy,
        )

    mismatched = []
    quarantined = 0
    for clean_point, chaos_point in zip(clean.points, chaos.points):
        if is_quarantined_error(chaos_point.error):
            quarantined += 1
        elif (clean_point.metrics != chaos_point.metrics
                or clean_point.traces != chaos_point.traces):
            mismatched.append(clean_point.spec_hash)

    wanted = (
        "repro_faults_injected_total",
        "repro_pool_retries_total",
        "repro_pool_workers_reaped_total",
        "repro_pool_deadline_timeouts_total",
        "repro_pool_quarantined_total",
    )
    rows = [
        [
            entry["name"]
            + ("{" + ", ".join(f"{k}={v}" for k, v in
                               sorted(entry["labels"].items())) + "}"
               if entry["labels"] else ""),
            str(entry["value"]),
        ]
        for entry in obs.registry.snapshot()["counters"]
        if entry["name"] in wanted
    ]
    print_section(
        "fault / supervision counters",
        format_table(["counter", "value"], rows) if rows
        else "(none fired)",
    )
    verdict = []
    if mismatched:
        verdict.append(f"{len(mismatched)} point(s) diverged from the "
                       f"clean run: {', '.join(mismatched[:4])}...")
    if quarantined:
        verdict.append(f"{quarantined} payload(s) quarantined")
    if verdict:
        print("chaos: FAIL — " + "; ".join(verdict))
        return 1
    print(f"chaos: OK — {len(chaos)} faulted point(s) bit-identical "
          "to the clean run, zero quarantined")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Summarize a ``--trace-out`` trace file as human-readable tables.

    Prints the top spans by cumulative time plus — when the trace was
    exported with a metrics snapshot (every ``--trace-out`` export is)
    — counter/gauge values and histogram summaries with p50/p99
    estimates.  The same file loads unchanged in Perfetto or
    ``chrome://tracing`` for the timeline view.
    """
    from repro.obs.report import load_trace, render_report

    if not os.path.exists(args.trace):
        raise ReproError(f"no trace file at {args.trace!r}")
    print(render_report(load_trace(args.trace), top=args.top))
    return 0


def cmd_components(_: argparse.Namespace) -> int:
    """List every registered spec component by kind."""
    rows = [[kind, ", ".join(available(kind))] for kind in kinds()]
    print_section(
        "registered components", format_table(["kind", "names"], rows)
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Energy-driven computing experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=cmd_list)
    sub.add_parser("sources", help="Fig. 1 sources").set_defaults(fn=cmd_sources)
    sub.add_parser("taxonomy", help="Fig. 2 taxonomy").set_defaults(fn=cmd_taxonomy)

    def add_kernel_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--kernel", choices=list(KERNELS), default=None,
            help="simulation kernel (fast = chunked execution, "
                 "identical physics)",
        )

    def add_supervision_flags(
        command: argparse.ArgumentParser,
        deadline_help: str = "per-task wall deadline in seconds: a "
                             "worker that exceeds it is reaped and the "
                             "task retried (needs --max-retries) or "
                             "recorded as a timeout error",
        retries_help: str = "retry a payload whose worker crashed or "
                            "timed out up to N times (with backoff) "
                            "before quarantining it (default 0: "
                            "crashes stay error rows)",
    ) -> None:
        command.add_argument("--deadline", type=float, default=None,
                             metavar="SECONDS", help=deadline_help)
        command.add_argument("--max-retries", type=int, default=0,
                             metavar="N", help=retries_help)

    def add_trace_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace-out", default=None, metavar="TRACE.json",
            help="record kernel/pool/store spans for this command and "
                 "write them as Chrome trace-event JSON (open in "
                 "Perfetto or chrome://tracing, or summarize with "
                 "'repro obs TRACE.json')",
        )

    fig7 = sub.add_parser("fig7", help="Fig. 7 Hibernus FFT")
    fig7.add_argument("--fft-size", type=int, default=512)
    fig7.add_argument("--supply-hz", type=float, default=4.7)
    fig7.add_argument("--duration", type=float, default=1.2)
    add_kernel_flag(fig7)
    fig7.set_defaults(fn=cmd_fig7)

    crossover = sub.add_parser("crossover", help="Eq. 5 sweep")
    crossover.add_argument(
        "--frequencies", type=float, nargs="+", default=[2.0, 10.0, 40.0, 80.0]
    )
    crossover.add_argument("--serial", action="store_true",
                           help="run points in-process instead of a pool")
    crossover.add_argument("--output", default=None, metavar="STORE",
                           help="persist points to a result store — JSONL "
                                "file or *.colstore directory (re-runs "
                                "reuse stored points)")
    add_kernel_flag(crossover)
    crossover.set_defaults(fn=cmd_crossover)

    spec = sub.add_parser("spec", help="dump a preset spec as JSON")
    spec.add_argument("name", nargs="?", default=None,
                      help="preset name (omit to list presets)")
    spec.set_defaults(fn=cmd_spec)

    run = sub.add_parser("run", help="run a scenario spec JSON file")
    run.add_argument("spec", help="path to a ScenarioSpec JSON file")
    run.add_argument("--duration", type=float, default=None,
                     help="override the spec's duration")
    run.add_argument("--output", default=None, metavar="STORE",
                     help="append the run (with its vcc trace) to a "
                          "result store (JSONL file or *.colstore "
                          "directory)")
    add_kernel_flag(run)
    add_trace_flag(run)
    run.set_defaults(fn=cmd_run)

    sweep = sub.add_parser("sweep", help="run a parameter grid in parallel")
    sweep.add_argument("spec", nargs="?", default=None,
                       help="base ScenarioSpec JSON file (default: preset)")
    sweep.add_argument("--preset", default="fig7",
                       help="base preset when no spec file is given")
    sweep.add_argument("--set", action="append", metavar="KEY=V1,V2,...",
                       help="one grid dimension (repeatable); keys follow "
                            "ScenarioSpec.with_override resolution")
    sweep.add_argument("--duration", type=float, default=None)
    sweep.add_argument("--serial", action="store_true",
                       help="run points in-process instead of a pool")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--output", default=None, metavar="STORE",
                       help="persist every point to a result store "
                            "(JSONL file or *.colstore directory)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip points --output already holds; only the "
                            "missing points are computed")
    sweep.add_argument("--progress", action="store_true",
                       help="print computed/cached/error counts per batch")
    add_supervision_flags(sweep)
    add_kernel_flag(sweep)
    add_trace_flag(sweep)
    sweep.set_defaults(fn=cmd_sweep)

    explore = sub.add_parser(
        "explore", help="budgeted design-space search with an optimizer"
    )
    explore.add_argument("spec", nargs="?", default=None,
                         help="base ScenarioSpec JSON file (default: preset)")
    explore.add_argument("--preset", default="fig7",
                         help="base preset when no spec file is given")
    explore.add_argument("--axis", action="append", default=[],
                         metavar="KEY=KIND:ARGS",
                         help="one search axis (repeatable): KEY=LOW:HIGH "
                              "(linear), KEY=log:LOW:HIGH, KEY=int:LOW:HIGH, "
                              "KEY=cat:A,B,...; keys follow "
                              "ScenarioSpec.with_override resolution")
    explore.add_argument("--space", default=None, metavar="SPACE.json",
                         help="load the search space from a SearchSpace "
                              "JSON file instead of --axis flags")
    explore.add_argument("--objective", action="append",
                         default=None, metavar="METRIC[:min|max]",
                         help="objective column from the metric registry "
                              "or a search axis (repeat for "
                              "multi-objective; default: min "
                              "completion_time)")
    explore.add_argument("--require", default=None, metavar="COLUMN",
                         help="feasibility column that must be truthy "
                              "(e.g. completed)")
    explore.add_argument("--optimizer", default="successive-halving",
                         choices=available_optimizers(),
                         help="search strategy (default: successive-halving)")
    explore.add_argument("--opt", action="append", metavar="KEY=VALUE",
                         help="one optimizer parameter (repeatable), e.g. "
                              "--opt initial=16 --opt eta=4")
    explore.add_argument("--budget", type=int, default=24,
                         help="total evaluation budget (default 24)")
    explore.add_argument("--seed", type=int, default=0,
                         help="optimizer RNG seed (fixes the candidate "
                              "sequence, making re-runs pure cache hits)")
    explore.add_argument("--duration", type=float, default=None)
    explore.add_argument("--serial", action="store_true",
                         help="run evaluations in-process instead of a pool")
    explore.add_argument("--workers", type=int, default=None)
    explore.add_argument("--output", default=None, metavar="STORE",
                         help="persist every evaluation to a result store "
                              "(JSONL file or *.colstore directory)")
    explore.add_argument("--resume", action="store_true",
                         help="reuse evaluations --output already holds; a "
                              "re-run with the same seed recomputes nothing")
    explore.add_argument("--top", type=int, default=10,
                         help="rows of the ranked table to print")
    add_supervision_flags(explore)
    add_kernel_flag(explore)
    add_trace_flag(explore)
    explore.set_defaults(fn=cmd_explore)

    results = sub.add_parser(
        "results", help="query a persisted result store"
    )
    results.add_argument("store", help="path to a result store (JSONL "
                                       "file or columnar directory)")
    results.add_argument("--merge", nargs="+", default=None,
                         metavar="SHARD",
                         help="fold shard stores into STORE before querying "
                              "(dedupes by spec hash; all-columnar merges "
                              "move whole column blocks)")
    results.add_argument("--best", default=None, metavar="METRIC",
                         help="report the row optimising METRIC")
    results.add_argument("--maximize", action="store_true",
                         help="maximise --best's metric instead of minimising")
    results.add_argument("--pareto", nargs=2, default=None,
                         metavar=("COST", "BENEFIT"),
                         help="print the (min COST, max BENEFIT) frontier")
    results.set_defaults(fn=cmd_results)

    serve = sub.add_parser(
        "serve", help="run the HTTP simulation service"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; use "
                            "0.0.0.0 inside containers)")
    serve.add_argument("--port", type=int, default=8000,
                       help="bind port (default 8000; 0 = ephemeral)")
    serve.add_argument("--store", default=None, metavar="STORE",
                       help="shared result store (the cross-client "
                            "compute cache) — JSONL file or *.colstore "
                            "directory; job status persists beside it "
                            "as STORE.jobs")
    serve.add_argument("--workers", type=int, default=None,
                       help="warm-pool width (default: CPU count)")
    serve.add_argument("--serial", action="store_true",
                       help="run grid points on the executor thread "
                            "instead of a process pool")
    add_supervision_flags(
        serve,
        deadline_help="default wall-clock budget (seconds) for jobs "
                      "whose request sets no deadline_s; an expired "
                      "job fails instead of running",
        retries_help="default job retry budget for jobs whose request "
                     "sets no max_retries; transiently-failed jobs "
                     "re-enqueue with backoff up to N times",
    )
    serve.set_defaults(fn=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection smoke test (faulted sweep == clean sweep)",
    )
    chaos.add_argument("spec", nargs="?", default=None,
                       help="base ScenarioSpec JSON file (default: preset)")
    chaos.add_argument("--preset", default="fig7",
                       help="base preset when no spec file is given")
    chaos.add_argument("--set", action="append", metavar="KEY=V1,V2,...",
                       help="one grid dimension (repeatable); default: a "
                            "4x4 capacitance x frequency grid")
    chaos.add_argument("--duration", type=float, default=None)
    chaos.add_argument("--serial", action="store_true",
                       help="run points in-process (note: hangs are only "
                            "reapable under pool execution)")
    chaos.add_argument("--workers", type=int, default=None)
    chaos.add_argument("--faults", default="worker.crash:0.3,worker.hang:0.1",
                       metavar="POINT:PROB,...",
                       help="injection points to arm (see repro.faults; "
                            "default worker.crash:0.3,worker.hang:0.1)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-roll seed (same seed => identical "
                            "injections, run over run)")
    chaos.add_argument("--hang-s", type=float, default=30.0,
                       help="how long an injected hang sleeps (must "
                            "exceed --deadline so reaping triggers)")
    chaos.add_argument("--deadline", type=float, default=2.0,
                       metavar="SECONDS",
                       help="per-task deadline: hung workers are reaped "
                            "this many seconds in (default 2)")
    chaos.add_argument("--max-retries", type=int, default=10, metavar="N",
                       help="per-payload retry budget before quarantine "
                            "(default 10 — generous, so chaos converges)")
    add_kernel_flag(chaos)
    chaos.set_defaults(fn=cmd_chaos)

    obs_cmd = sub.add_parser(
        "obs", help="summarize a --trace-out trace file"
    )
    obs_cmd.add_argument("trace", metavar="TRACE.json",
                         help="Chrome trace JSON written by --trace-out "
                              "or GET /v1/trace")
    obs_cmd.add_argument("--top", type=int, default=20,
                         help="rows of the span table to print")
    obs_cmd.set_defaults(fn=cmd_obs)

    components = sub.add_parser("components", help="list spec components")
    components.set_defaults(fn=cmd_components)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Framework errors (bad spec files, unknown components, infeasible
    configurations) print as one-line errors, not tracebacks — their
    messages already name the problem and the valid choices.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `repro spec fig7 | head`).
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
