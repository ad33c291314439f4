"""Fail CI when the perf harnesses regress against committed baselines.

Six independently gated sections, each reported even when an earlier
one fails (so one regression does not mask another):

* **kernel** — runs the kernel benchmarks fresh and compares *speedup
  ratios* (fast vs reference on the same machine) against the committed
  ``BENCH_kernel.json``.  Ratios are hardware-independent to first
  order, so a >20% drop means the fast path itself got slower, not that
  CI got a noisier runner.  Every case additionally carries an absolute
  per-case speedup floor (``perf_kernel.SPEEDUP_FLOORS``), enforced on
  the fresh run: a fast kernel slower than the floor anywhere fails
  even if the committed baseline already regressed.
* **sweep** — the sweep-throughput benchmarks (``perf_sweep.py``):
  a resumed sweep computes zero points, the cached mode beats serial by
  the documented floor, on a multi-core runner the warm-worker pool
  beats serial points/sec by its floor, and on an eventful grid no
  point is an error row, pool rows are byte-identical to serial rows
  and a store replay recomputes zero points — CPU-count independent
  and enforced on *every* runner.
* **explore** — the exploration-engine benchmarks (``perf_explore.py``):
  multi-fidelity search matches the exhaustive grid's answer within one
  grid step on at most 30% of its full-horizon simulations, and a
  cached re-run recomputes zero points.
* **serve** — the service load harness (``perf_serve.py``): concurrent
  clients with overlapping sweep grids compute each unique point exactly
  once (dedupe ratio 1.0), every concurrent job completes, a union-grid
  resubmission computes zero points over HTTP, and cached result
  queries sustain the documented requests/sec floor.
* **obs** — the instrumentation-overhead harness (``perf_obs.py``):
  runs with the default-on metrics layer enabled must stay within 3%
  of the same runs with observability disabled (``REPRO_OBS=0``),
  on both the kernel and sweep regimes BENCH_kernel/BENCH_sweep gate.
* **faults** — the supervision-overhead harness (``perf_faults.py``):
  a sweep run under an armed-but-idle supervision policy (deadline +
  retry budget, zero injected faults) must stay within 3% of the same
  run unsupervised, serially and through the worker pool — robustness
  machinery that taxes healthy runs would never stay enabled.

Every invocation also appends one timestamped JSON line of gate
verdicts (and the headline numbers behind them) to ``BENCH_history.jsonl``
at the repo root — a machine-readable record of how the gates moved
run over run (``--history`` to redirect it, ``--no-history`` to skip).

The sweep section's pool-vs-serial floor only *enforces* on multi-core
runners; on a single-CPU runner the speedup is recorded but cannot gate
(a pool cannot beat serial there by construction).  That status is
re-checked here — a multi-core runner whose recorded speedup slipped
under the floor fails the sweep section even if ``perf_sweep`` somehow
let it through — and surfaced explicitly in the job-summary gate table.

When ``$GITHUB_STEP_SUMMARY`` is set (GitHub Actions), a before/after
speedup table and per-section gate verdicts are appended to the job
summary::

    PYTHONPATH=src python benchmarks/perf/check_regression.py
    PYTHONPATH=src python benchmarks/perf/check_regression.py \
        --baseline BENCH_kernel.json --max-regression 0.2 --output-dir .

``--output-dir DIR`` writes each section's fresh results to
``DIR/BENCH_<section>.fresh.json``, kept separate from the baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from perf_explore import (
    format_summary as format_explore_summary,
    run_benchmarks as run_explore_benchmarks,
)
from perf_faults import (
    format_summary as format_faults_summary,
    run_benchmarks as run_faults_benchmarks,
)
from perf_kernel import SPEEDUP_FLOORS, run_benchmarks
from perf_obs import (
    format_summary as format_obs_summary,
    run_benchmarks as run_obs_benchmarks,
)
from perf_serve import (
    format_summary as format_serve_summary,
    run_benchmarks as run_serve_benchmarks,
)
from perf_sweep import (
    CACHED_SPEEDUP_FLOOR,
    POOL_GATE_MIN_CPUS,
    POOL_SPEEDUP_FLOOR,
    format_summary,
    run_benchmarks as run_sweep_benchmarks,
)


#: Cases whose baseline reference wall time is below this are
#: noise-dominated on shared CI runners (tens of milliseconds): their
#: baseline *ratio* comparison is skipped, but their absolute
#: per-case floor (SPEEDUP_FLOORS) still applies — enforced inside
#: perf_kernel.run_benchmarks on every fresh run, where best-of-N
#: repeats keep even the short cases stable enough for a coarse floor.
MIN_GATED_REFERENCE_S = 0.2


def compare(baseline: dict, fresh: dict, max_regression: float) -> list:
    """Return a list of human-readable regression messages (empty = pass)."""
    failures = []
    for name, base_case in baseline.get("cases", {}).items():
        fresh_case = fresh["cases"].get(name)
        if fresh_case is None:
            failures.append(f"{name}: case missing from fresh run")
            continue
        if base_case["reference_s"] < MIN_GATED_REFERENCE_S:
            continue  # noise-dominated timing: ratio gate skipped
        base_speedup = base_case["speedup"]
        fresh_speedup = fresh_case["speedup"]
        floor = base_speedup * (1.0 - max_regression)
        if fresh_speedup < floor:
            failures.append(
                f"{name}: speedup {fresh_speedup:.2f}x fell below "
                f"{floor:.2f}x (baseline {base_speedup:.2f}x - "
                f"{max_regression:.0%} allowance)"
            )
    return failures


def kernel_summary_rows(baseline: dict, fresh: dict) -> list:
    """(case, baseline speedup, fresh speedup, floor, verdict) rows."""
    rows = []
    for name, case in fresh.get("cases", {}).items():
        base_case = baseline.get("cases", {}).get(name)
        base = f"{base_case['speedup']:.2f}x" if base_case else "-"
        floor = SPEEDUP_FLOORS.get(name)
        rows.append([
            name,
            base,
            f"{case['speedup']:.2f}x",
            f">= {floor:.1f}x" if floor else "-",
        ])
    return rows


def pool_gate_note(sweep_fresh) -> str:
    """The sweep gate's pool-floor status for the summary table."""
    if sweep_fresh is None:
        return ""
    speedup = sweep_fresh["modes"]["pool"].get("speedup")
    if sweep_fresh["pool_gate_enforced"]:
        return (f" (pool {speedup}x vs floor "
                f"{sweep_fresh['pool_speedup_floor']}x, enforced)")
    return (f" (pool speedup {speedup}x **recorded only** — "
            f"{sweep_fresh['cpus']} CPU runner, floor needs >= "
            f"{sweep_fresh['pool_gate_min_cpus']})")


def sweep_gate_rows(sweep_fresh: dict) -> list:
    """(mode, speedup, floor, status) rows for every gated sweep mode.

    The pool floor only enforces on multi-core runners; the cached
    floor is machine-independent (store lookups) and enforces
    everywhere.
    """
    pool_enforced = sweep_fresh.get("pool_gate_enforced", False)
    pool_status = (
        "enforced" if pool_enforced
        else (f"recorded only ({sweep_fresh.get('cpus', 1)} CPU < "
              f"{sweep_fresh.get('pool_gate_min_cpus', POOL_GATE_MIN_CPUS)})")
    )
    rows = [[
        "pool vs serial",
        f"{sweep_fresh['modes']['pool'].get('speedup', 0.0)}x",
        f">= {sweep_fresh.get('pool_speedup_floor', POOL_SPEEDUP_FLOOR)}x",
        pool_status,
    ], [
        "cached vs serial",
        f"{sweep_fresh['modes']['cached'].get('speedup', 0.0)}x",
        f">= {sweep_fresh.get('cached_speedup_floor', CACHED_SPEEDUP_FLOOR)}x",
        "enforced",
    ]]
    return rows


def append_history(path: Path, sections: dict, kernel_fresh,
                   sweep_fresh, obs_fresh) -> None:
    """Append one timestamped gate-verdict line to the history JSONL.

    Each line is self-contained: UTC timestamp, pass/fail (with the
    failure messages) per gate section, and the headline numbers —
    kernel speedups, sweep mode speedups, obs overheads — so trends are
    greppable without re-running anything.  Failures to write (read-only
    checkout, odd CI sandbox) are reported but never fail the gate.
    """
    import datetime

    record = {
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "gates": {
            name: {"pass": not failures, "failures": failures}
            for name, failures in sections.items()
        },
        "kernel_speedups": {
            name: case["speedup"]
            for name, case in (kernel_fresh or {}).get("cases", {}).items()
        },
        "sweep_speedups": {
            mode: case["speedup"]
            for mode, case in (sweep_fresh or {}).get("modes", {}).items()
            if "speedup" in case
        },
        "obs_overheads": {
            name: case["overhead"]
            for name, case in (obs_fresh or {}).get("cases", {}).items()
        },
    }
    try:
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"appended gate history to {path}")
    except OSError as error:
        print(f"NOTE: could not append gate history to {path}: {error}")


def write_github_summary(sections: dict, baseline: dict, fresh: dict,
                         sweep_fresh, explore_fresh,
                         serve_fresh=None, obs_fresh=None,
                         faults_fresh=None) -> None:
    """Append the before/after table to the Actions job summary, if any."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Perf regression gate", ""]
    lines.append("| gate | status |")
    lines.append("|------|--------|")
    for name, failures in sections.items():
        status = "✅ pass" if not failures else "❌ **fail**"
        if name == "sweep":
            status += pool_gate_note(sweep_fresh)
        lines.append(f"| {name} | {status} |")
    lines += ["", "### Kernel speedups (before → after)", ""]
    lines.append("| case | baseline | fresh | floor |")
    lines.append("|------|----------|-------|-------|")
    for row in kernel_summary_rows(baseline, fresh):
        lines.append("| " + " | ".join(row) + " |")
    if sweep_fresh is not None:
        lines += ["", "### Sweep throughput", ""]
        lines.append("| mode | wall s | points/s | vs serial |")
        lines.append("|------|--------|----------|-----------|")
        for mode, case in sweep_fresh["modes"].items():
            speedup = (
                f"{case['speedup']:.2f}x" if "speedup" in case else "-"
            )
            lines.append(
                f"| {mode} | {case['wall_s']:.3f} | "
                f"{case['points_per_s']:.1f} | {speedup} |"
            )
        lines += ["", "### Sweep gates", ""]
        lines.append("| gate | speedup | floor | status |")
        lines.append("|------|---------|-------|--------|")
        for row in sweep_gate_rows(sweep_fresh):
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        lines.append(
            f"{sweep_fresh['cpus']} CPU(s); the cached floor and the "
            "eventful-grid exactness gates enforce on every runner, the "
            "pool floor only with >= "
            f"{sweep_fresh['pool_gate_min_cpus']} cores."
        )
    if explore_fresh is not None:
        lines += ["", "### Exploration engine", "",
                  "```", format_explore_summary(explore_fresh), "```"]
    if serve_fresh is not None:
        lines += ["", "### Service load", "",
                  "```", format_serve_summary(serve_fresh), "```"]
    if obs_fresh is not None:
        lines += ["", "### Instrumentation overhead", "",
                  "```", format_obs_summary(obs_fresh), "```"]
    if faults_fresh is not None:
        lines += ["", "### Supervision overhead", "",
                  "```", format_faults_summary(faults_fresh), "```"]
    for name, failures in sections.items():
        if failures:
            lines += ["", f"### {name} failures", ""]
            lines += [f"- {failure}" for failure in failures]
    with open(path, "a", encoding="utf-8") as stream:
        stream.write("\n".join(lines) + "\n")


def write_fresh(output_dir: Optional[Path], gate: str, fresh) -> None:
    """Write one section's fresh results to
    ``output_dir/BENCH_<gate>.fresh.json`` (nothing without a directory
    or results)."""
    if output_dir is not None and fresh is not None:
        (output_dir / f"BENCH_{gate}.fresh.json").write_text(
            json.dumps(fresh, indent=2) + "\n", encoding="utf-8"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "BENCH_kernel.json")
    parser.add_argument("--max-regression", type=float, default=0.2,
                        help="allowed fractional speedup drop (default 0.2)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="write each section's fresh results to "
                             "BENCH_<section>.fresh.json in this directory")
    parser.add_argument("--sweep-baseline", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "BENCH_sweep.json")
    parser.add_argument("--history", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "BENCH_history.jsonl",
                        help="append one timestamped gate-verdict line "
                             "per run to this JSONL file")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append to the gate history file")
    args = parser.parse_args(argv)
    output_dir = args.output_dir
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    sections = {}

    # -- kernel gate (ratio vs baseline + absolute per-case floors) ------
    fresh = None
    try:
        fresh = run_benchmarks(repeats=args.repeats)
        failures = compare(baseline, fresh, args.max_regression)
    except AssertionError as error:
        # A per-case floor tripped inside run_benchmarks; re-run without
        # floors is not possible, so report the floor failure itself.
        failures = [str(error)]
        fresh = fresh or {"cases": {}}
    sections["kernel"] = failures
    write_fresh(output_dir, "kernel", fresh)
    if failures:
        print("kernel perf regression detected:")
        for failure in failures:
            print(f"  - {failure}")
    else:
        print("kernel perf OK: no speedup regression vs baseline")
        for name, case in fresh["cases"].items():
            base_case = baseline.get("cases", {}).get(name)
            baseline_note = (
                f"baseline {base_case['speedup']:.2f}x"
                if base_case is not None
                else "no baseline yet"
            )
            floor = SPEEDUP_FLOORS.get(name)
            floor_note = f", floor {floor:.1f}x" if floor else ""
            print(f"  {name}: {case['speedup']:.2f}x "
                  f"({baseline_note}{floor_note})")

    # -- sweep gate (machine-independent invariants + pool floor) --------
    sweep_fresh = None
    try:
        sweep_fresh = run_sweep_benchmarks(repeats=args.repeats)
        sections["sweep"] = []
    except AssertionError as error:
        sections["sweep"] = [str(error)]
        print(f"sweep perf regression detected:\n  - {error}")
    if sweep_fresh is not None:
        # Defense in depth on the pool floor: perf_sweep gates this
        # itself, but re-check the recorded numbers here so the gate
        # cannot silently rot into recorded-only on a multi-core
        # runner.
        cpus = sweep_fresh.get("cpus", os.cpu_count() or 1)
        pool_speedup = sweep_fresh["modes"]["pool"].get("speedup", 0.0)
        if cpus >= POOL_GATE_MIN_CPUS \
                and pool_speedup < POOL_SPEEDUP_FLOOR:
            sections["sweep"].append(
                f"pool speedup {pool_speedup}x below the "
                f"{POOL_SPEEDUP_FLOOR}x floor on a {cpus}-core runner"
            )
        elif cpus < POOL_GATE_MIN_CPUS:
            print(f"  NOTE: pool-vs-serial floor recorded only "
                  f"({cpus} CPU < {POOL_GATE_MIN_CPUS}): "
                  f"speedup {pool_speedup}x not enforced")
        # The eventful grid's exactness gates raise inside
        # perf_sweep; a fresh run without the mode never ran them.
        if "eventful" not in sweep_fresh["modes"]:
            sections["sweep"].append(
                "eventful mode missing from the fresh sweep run"
            )
    if sweep_fresh is not None:
        write_fresh(output_dir, "sweep", sweep_fresh)
        print("sweep perf OK: resume/pool invariants hold")
        print(format_summary(sweep_fresh))
        if args.sweep_baseline.exists():
            sweep_baseline = json.loads(
                args.sweep_baseline.read_text(encoding="utf-8")
            )
            base_cached = sweep_baseline["modes"]["cached"]["speedup"]
            fresh_cached = sweep_fresh["modes"]["cached"]["speedup"]
            print(f"  cached speedup: {fresh_cached:.0f}x "
                  f"(baseline {base_cached:.0f}x)")

    # -- explore gate (multi-fidelity + caching invariants) --------------
    explore_fresh = None
    try:
        explore_fresh = run_explore_benchmarks()
        sections["explore"] = []
    except AssertionError as error:
        sections["explore"] = [str(error)]
        print(f"exploration perf regression detected:\n  - {error}")
    if explore_fresh is not None:
        write_fresh(output_dir, "explore", explore_fresh)
        print("exploration perf OK: multi-fidelity and caching gates "
              "hold")
        print(format_explore_summary(explore_fresh))

    # -- serve gate (dedupe/fairness invariants + query-rate floor) ------
    serve_fresh = None
    try:
        serve_fresh = run_serve_benchmarks(repeats=args.repeats)
        sections["serve"] = []
    except AssertionError as error:
        sections["serve"] = [str(error)]
        print(f"service perf regression detected:\n  - {error}")
    if serve_fresh is not None:
        write_fresh(output_dir, "serve", serve_fresh)
        print("service perf OK: dedupe/fairness/query gates hold")
        print(format_serve_summary(serve_fresh))

    # -- obs gate (instrumentation overhead ceiling) ---------------------
    obs_fresh = None
    try:
        obs_fresh = run_obs_benchmarks()
        sections["obs"] = []
    except AssertionError as error:
        sections["obs"] = [str(error)]
        print(f"obs overhead regression detected:\n  - {error}")
    if obs_fresh is not None:
        write_fresh(output_dir, "obs", obs_fresh)
        print("obs overhead OK: instrumented runs within the ceiling")
        print(format_obs_summary(obs_fresh))

    # -- faults gate (supervision overhead ceiling) ----------------------
    faults_fresh = None
    try:
        faults_fresh = run_faults_benchmarks()
        sections["faults"] = []
    except AssertionError as error:
        sections["faults"] = [str(error)]
        print(f"supervision overhead regression detected:\n  - {error}")
    if faults_fresh is not None:
        write_fresh(output_dir, "faults", faults_fresh)
        print("supervision overhead OK: armed-but-idle supervision "
              "within the ceiling")
        print(format_faults_summary(faults_fresh))

    write_github_summary(
        sections, baseline, fresh or {"cases": {}}, sweep_fresh,
        explore_fresh, serve_fresh, obs_fresh, faults_fresh,
    )
    if not args.no_history:
        append_history(
            args.history, sections, fresh, sweep_fresh, obs_fresh,
        )
    return 1 if any(sections.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
