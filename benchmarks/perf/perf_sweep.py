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
  several times, no point is an error row, the pool's rows are
  byte-identical to the serial rows, and a store-backed replay
  recomputes zero points.  The serial time (best of ``repeats``) and
  one pool run's time are recorded, not gated.
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

#: The benchmark grid: 8 points over the fig7 scenario, sized so serial
#: execution takes seconds (stable ratios) but CI stays fast.
GRID = {
    "capacitance": [22e-6, 47e-6, 100e-6, 220e-6],
    "frequency": [4.7, 9.4],
}
DURATION = 1.5

#: The eventful grid: one topology (fast kernel, hibernus on the
#: synthetic engine) over 64 capacitances.  A 4 V rectified supply
#: makes every point boot, then snapshot and restore 3-5 times within
#: the run — the transient regime the paper's results come from.
EVENTFUL_CAPS = 64
EVENTFUL_AMPLITUDE = 4.0
EVENTFUL_DURATION = 1.0


def _eventful_base() -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-eventful",
        dt=50e-6,
        duration=EVENTFUL_DURATION,
        decimate=64,
        kernel="fast",
        storage=StorageSpec("capacitor",
                            {"capacitance": 47e-6, "v_max": 3.3}),
        harvesters=(
            HarvesterSpec("signal-generator", {
                "amplitude": EVENTFUL_AMPLITUDE, "frequency": 4.7,
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


def _eventful_grid(caps: int) -> dict:
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

    eventful = run_eventful_benchmark(repeats=repeats)

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
        "modes": {
            "serial": mode(serial_wall),
            "pool": mode(
                pool_wall, speedup=round(pool_speedup, 2)
            ),
            "cached": mode(
                cached_wall, speedup=round(cached_speedup, 2)
            ),
            "eventful": eventful,
        },
    }


def run_eventful_benchmark(repeats: int = 3) -> dict:
    """Run the eventful grid serially and on the pool; gate exactness.

    The serial sweep is timed best of ``repeats``; one pool run is
    timed for the record.  Gates (machine-independent): no error rows,
    pool rows byte-identical to serial rows (``to_record()``), and a
    store-backed replay that recomputes zero points.
    """
    runner = SweepRunner(_eventful_base(), _eventful_grid(EVENTFUL_CAPS))
    points = len(runner)
    print(f"  timing eventful grid ({points} points, serial best of "
          f"{repeats}, then pool) ...", flush=True)
    serial_wall, serial = _best_of(
        repeats, lambda: runner.run(parallel=False)
    )
    pool_wall, pool = _best_of(1, lambda: runner.run(parallel=True))

    def rows(result):
        return [json.dumps(p.to_record(), sort_keys=True) for p in result]

    errors = [point.error for point in serial if point.error is not None]
    if errors:
        raise AssertionError(f"eventful grid produced error rows: {errors}")
    if rows(pool) != rows(serial):
        raise AssertionError(
            "pool rows differ from serial rows on the eventful grid (byte "
            "comparison of to_record())"
        )
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "eventful.jsonl")
        first = runner.run(parallel=False, store=ResultStore(store_path))
        replay = runner.run(
            parallel=False, store=ResultStore(store_path), resume=True
        )
    if first.computed != points or replay.computed != 0 \
            or replay.cached != points:
        raise AssertionError(
            f"eventful store replay recomputed {replay.computed} of "
            f"{points} points; expected pure cache hits"
        )
    return {
        "wall_s": round(serial_wall, 4),
        "points_per_s": round(points / serial_wall, 2),
        "pool_wall_s": round(pool_wall, 4),
        "grid_points": points,
        "amplitude_v": EVENTFUL_AMPLITUDE,
        "duration_s": EVENTFUL_DURATION,
    }


def format_summary(payload: dict) -> str:
    lines = [f"sweep throughput ({payload['grid_points']} points):"]
    for name, case in payload["modes"].items():
        speedup = (
            f" ({case['speedup']:.2f}x vs serial)" if "speedup" in case
            else ""
        )
        if "pool_wall_s" in case:
            speedup = (f" ({case['grid_points']} points; pool "
                       f"{case['pool_wall_s']:.3f} s)")
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
