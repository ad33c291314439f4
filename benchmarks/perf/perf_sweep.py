"""Sweep-throughput harness: serial vs process-pool vs resumed-cached.

Measures points/sec through the results pipeline on a fig7 design grid
in three modes — in-process serial, process-pool parallel, and a fully
cached resume against a pre-populated JSONL store — and writes the
results to ``BENCH_sweep.json``::

    PYTHONPATH=src python benchmarks/perf/perf_sweep.py
    PYTHONPATH=src python benchmarks/perf/perf_sweep.py --repeats 5 \
        --output BENCH_sweep.json

The committed ``BENCH_sweep.json`` at the repo root is the baseline the
CI perf job records against.  Two properties are *gated* on every fresh
run (they are machine-independent by construction):

* a resumed sweep computes zero points (pure cache hits),
* the cached mode beats serial recomputation by at least
  ``CACHED_SPEEDUP_FLOOR`` — the point of persisting results at all,
* on a multi-core runner (>= 2 CPUs), the warm-worker pool beats serial
  points/sec by at least ``POOL_SPEEDUP_FLOOR`` — the point of having a
  pool at all.  On a single-core runner the pool cannot beat serial by
  construction, so the floor is recorded but not enforced, and
* on an eventful grid, where every point boots, snapshots and restores
  several times, a sweep run as one batch task (``batch_size`` = the grid)
  is no slower than per-point execution: per-point cost over batched
  cost is at least ``BATCHED_VS_PERPOINT_FLOOR``, best of ``repeats``
  runs in alternating order.  The floor is CPU-count independent and
  *enforced everywhere*.  The batched rows must also be byte-identical
  to the per-point rows and a store-backed replay must recompute zero
  points.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.results.store import ResultStore
from repro.spec.presets import preset
from repro.spec.runner import POOL_GATE_MIN_CPUS, SweepRunner
from repro.spec.specs import (
    HarvesterSpec,
    PlatformSpec,
    ScenarioSpec,
    StorageSpec,
)

#: A resumed (all-cached) sweep must be at least this much faster than
#: serial recomputation.
CACHED_SPEEDUP_FLOOR = 10.0

#: On a runner with at least POOL_GATE_MIN_CPUS CPUs (the canonical
#: constant lives in :mod:`repro.spec.runner`, next to the pool it
#: describes — the service /metrics gate status reads the same one),
#: the warm-worker pool must beat serial points/sec by at least
#: POOL_SPEEDUP_FLOOR.
POOL_SPEEDUP_FLOOR = 1.5

#: Per-point cost over batched cost on the eventful grid must be at
#: least this: no execution mode may be slower than per-point, up to
#: timing noise.  Enforced on every runner (one process either way).
BATCHED_VS_PERPOINT_FLOOR = 0.9

#: The benchmark grid: 8 points over the fig7 scenario, sized so serial
#: execution takes seconds (stable ratios) but CI stays fast.
GRID = {
    "capacitance": [22e-6, 47e-6, 100e-6, 220e-6],
    "frequency": [4.7, 9.4],
}
DURATION = 1.5

#: The batched-mode grid: one topology (fast kernel, hibernus on the
#: synthetic engine) over 64 capacitances.  A 4 V rectified supply
#: makes every point boot, then snapshot and restore 3-5 times within
#: the run — the transient regime the paper's results come from.
BATCHED_CAPS = 64
BATCHED_AMPLITUDE = 4.0
BATCHED_DURATION = 1.0


def _batched_base() -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-batched",
        dt=50e-6,
        duration=BATCHED_DURATION,
        decimate=64,
        kernel="fast",
        storage=StorageSpec("capacitor",
                            {"capacitance": 47e-6, "v_max": 3.3}),
        harvesters=(
            HarvesterSpec("signal-generator", {
                "amplitude": BATCHED_AMPLITUDE, "frequency": 4.7,
                "rectified": True,
                "source_resistance": 150.0,
            }),
        ),
        platform=PlatformSpec(
            strategy="hibernus",
            engine="synthetic",
            engine_params={"total_cycles": 40_000_000},
        ),
    )


def _batched_grid(caps: int) -> dict:
    lo, hi = 22e-6, 220e-6
    step = (hi - lo) / max(1, caps - 1)
    return {"capacitance": [lo + i * step for i in range(caps)]}


def _best_of(repeats, fn):
    best_wall = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall, result = wall, value
    return best_wall, result


def _runner() -> SweepRunner:
    base = preset("fig7").with_overrides({"duration": DURATION})
    return SweepRunner(base, GRID)


def run_benchmarks(repeats: int = 3) -> dict:
    """Time the three sweep modes; returns the BENCH_sweep payload."""
    runner = _runner()
    points = len(runner)

    print(f"  timing serial ({points} points) ...", flush=True)
    serial_wall, serial_result = _best_of(
        repeats, lambda: runner.run(parallel=False)
    )

    print("  timing warm-worker pool ...", flush=True)
    pool_wall, pool_result = _best_of(
        repeats, lambda: runner.run(parallel=True)
    )
    if [p.metrics for p in pool_result] != [p.metrics for p in serial_result]:
        raise AssertionError("pool rows diverged from serial rows")
    cpus = os.cpu_count() or 1
    pool_speedup = serial_wall / pool_wall
    if cpus >= POOL_GATE_MIN_CPUS and pool_speedup < POOL_SPEEDUP_FLOOR:
        raise AssertionError(
            f"warm-worker pool speedup {pool_speedup:.2f}x fell below the "
            f"{POOL_SPEEDUP_FLOOR}x floor on a {cpus}-core runner"
        )

    print("  timing resumed-cached ...", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "sweep.jsonl")
        runner.run(parallel=False, store=ResultStore(store_path))

        def resumed():
            return runner.run(
                parallel=False, store=ResultStore(store_path), resume=True
            )

        cached_wall, cached_result = _best_of(repeats, resumed)
    if cached_result.computed != 0 or cached_result.cached != points:
        raise AssertionError(
            f"resume recomputed {cached_result.computed} of {points} points; "
            "expected pure cache hits"
        )
    if [p.metrics for p in cached_result] != [p.metrics for p in serial_result]:
        raise AssertionError("cached rows diverged from computed rows")

    cached_speedup = serial_wall / cached_wall
    if cached_speedup < CACHED_SPEEDUP_FLOOR:
        raise AssertionError(
            f"resumed-cached speedup {cached_speedup:.1f}x fell below the "
            f"{CACHED_SPEEDUP_FLOOR:.0f}x floor"
        )

    batched = run_batched_benchmark(repeats=repeats)

    def mode(wall, **extra):
        payload = {
            "wall_s": round(wall, 4),
            "points_per_s": round(points / wall, 2),
        }
        payload.update(extra)
        return payload

    return {
        "schema": 2,
        "python": platform.python_version(),
        "repeats": repeats,
        "grid_points": points,
        "duration_s": DURATION,
        "cpus": cpus,
        "cached_speedup_floor": CACHED_SPEEDUP_FLOOR,
        "pool_speedup_floor": POOL_SPEEDUP_FLOOR,
        "pool_gate_min_cpus": POOL_GATE_MIN_CPUS,
        "pool_gate_enforced": cpus >= POOL_GATE_MIN_CPUS,
        "batched_vs_perpoint_floor": BATCHED_VS_PERPOINT_FLOOR,
        "batched_gate_enforced": True,
        "modes": {
            "serial": mode(serial_wall),
            "pool": mode(
                pool_wall, speedup=round(pool_speedup, 2)
            ),
            "cached": mode(
                cached_wall, speedup=round(cached_speedup, 2)
            ),
            "batched": batched,
        },
    }


def run_batched_benchmark(repeats: int = 3) -> dict:
    """Time the grid as one batch task against per-point execution.

    Both modes sweep the whole eventful grid in-process, ``repeats``
    times each in alternating order (per-point first on even repeats),
    and the best wall time of each mode counts.  Two exactness gates
    ride along: the batched rows are byte-identical to the per-point
    rows, and a store-backed replay recomputes zero points.
    """
    runner = SweepRunner(_batched_base(), _batched_grid(BATCHED_CAPS))
    points = len(runner)
    modes = {"per-point": 1, "batched": points}
    best = {}
    rows = {}
    print(f"  timing batched vs per-point ({points} eventful points, "
          f"best of {repeats}, alternating) ...", flush=True)
    for repeat in range(repeats):
        order = list(modes) if repeat % 2 == 0 else list(modes)[::-1]
        for name in order:
            t0 = time.perf_counter()
            result = runner.run(parallel=False, batch_size=modes[name])
            wall = time.perf_counter() - t0
            best[name] = min(wall, best.get(name, wall))
            rows[name] = [
                json.dumps(point.to_record(), sort_keys=True)
                for point in result
            ]

    # -- exactness gates (machine-independent) ---------------------------
    if rows["batched"] != rows["per-point"]:
        raise AssertionError(
            "batched rows differ from per-point rows (byte comparison "
            "of to_record())"
        )
    errors = [point.error for point in result if point.error is not None]
    if errors:
        raise AssertionError(f"eventful grid produced error rows: {errors}")
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "batched.jsonl")
        first = runner.run(
            parallel=False, batch_size=points, store=ResultStore(store_path)
        )
        replay = runner.run(
            parallel=False, batch_size=points,
            store=ResultStore(store_path), resume=True,
        )
    if first.computed != points or replay.computed != 0 \
            or replay.cached != points:
        raise AssertionError(
            f"batched store replay recomputed {replay.computed} of "
            f"{points} points; expected pure cache hits"
        )

    speedup = best["per-point"] / best["batched"]
    if speedup < BATCHED_VS_PERPOINT_FLOOR:
        raise AssertionError(
            f"batched sweep ran at {speedup:.2f}x per-point speed, below "
            f"the {BATCHED_VS_PERPOINT_FLOOR}x floor (per-point "
            f"{best['per-point'] / points * 1e3:.2f} ms/pt vs batched "
            f"{best['batched'] / points * 1e3:.2f} ms/pt)"
        )
    return {
        "wall_s": round(best["batched"], 4),
        "points_per_s": round(points / best["batched"], 2),
        "speedup": round(speedup, 2),
        "grid_points": points,
        "amplitude_v": BATCHED_AMPLITUDE,
        "duration_s": BATCHED_DURATION,
        "perpoint_ms_per_point": round(best["per-point"] / points * 1e3, 3),
        "batched_ms_per_point": round(best["batched"] / points * 1e3, 3),
    }


def format_summary(payload: dict) -> str:
    lines = [f"sweep throughput ({payload['grid_points']} points):"]
    for name, case in payload["modes"].items():
        versus = "per-point" if name == "batched" else "serial"
        speedup = (
            f" ({case['speedup']:.2f}x vs {versus})" if "speedup" in case
            else ""
        )
        lines.append(
            f"  {name}: {case['wall_s']:.3f} s, "
            f"{case['points_per_s']:.1f} points/s{speedup}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per mode (best-of)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "BENCH_sweep.json")
    args = parser.parse_args(argv)
    print("sweep benchmarks (best of %d):" % args.repeats, flush=True)
    payload = run_benchmarks(repeats=args.repeats)
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {args.output}")
    print(format_summary(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
