"""Result-store backend harness: million-row ingest + analytics queries.

The fleet-scale scenario behind the columnar backend: sweep workers on
many hosts each wrote a disjoint result shard, and an analytics node
ingests them into one store (``ResultStore.merge_shards``) before
answering best/pareto/series queries.  This harness builds that exact
workload synthetically — N rows split across 8 shards, written once per
backend — then times, per backend:

* **ingest** — ``merge_shards`` of all shards into a fresh store.  The
  JSONL path pays ``json.loads`` + ``json.dumps`` per row; the columnar
  path moves whole column blocks with vectorized hash dedupe.  This is
  the *gated* number: columnar must ingest at least
  ``INGEST_SPEEDUP_FLOOR`` (10x) faster than JSONL.  The gate is a
  ratio of the two backends on the same machine and data, so it is
  hardware-independent to first order and holds at reduced row counts
  (CI runs fewer rows than the committed 1M baseline).
* **load** — a fresh process opening the merged store.
* **best / pareto / series** — the analytics queries, answered from the
  loaded store; both backends must return *identical* answers (same
  best row, same frontier, same series), which is also asserted.

::

    PYTHONPATH=src python benchmarks/perf/perf_store.py            # 1M rows
    PYTHONPATH=src python benchmarks/perf/perf_store.py --rows 50000
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.crossover import series_from_store
from repro.analysis.pareto import pareto_from_store
from repro.results.metrics import empty_metrics
from repro.results.run_result import RunResult
from repro.results.store import ResultStore

#: Columnar shard-merge ingest must beat JSONL by at least this much.
INGEST_SPEEDUP_FLOOR = 10.0

#: Workers in the simulated fleet == shards to merge.
N_SHARDS = 8

#: Scenario names the synthetic fleet sweeps (series queries filter on
#: one of them).
SCENARIO_NAMES = tuple(f"fleet-node-{i}" for i in range(8))

#: The metric columns the synthetic rows fill (a realistic dense core;
#: the remaining registry columns stay None, exercising sparse columns).
FILLED_METRICS = (
    "t_end", "vcc_min", "vcc_max", "completion_time", "energy_total",
    "energy_overhead", "energy_harvested", "energy_consumed",
    "energy_leaked", "availability", "progress", "cycles_executed",
    "brownouts", "snapshots",
)

#: Fraction of rows that are error rows (infeasible corners).
ERROR_FRACTION = 0.01


def synthetic_results(rows: int, seed: int = 7) -> list:
    """Deterministic fleet-sweep rows: numeric grid + ~1% error rows."""
    rng = random.Random(seed)
    base = empty_metrics()
    out = []
    for i in range(rows):
        overrides = {
            "node": i % 256,
            "capacitance": round(1e-6 * (1 + i % 100), 9),
        }
        metrics = dict(base)
        if rng.random() < ERROR_FRACTION:
            metrics["error"] = "SpecError: infeasible corner"
        else:
            for j, key in enumerate(FILLED_METRICS):
                metrics[key] = rng.random() * (j + 1)
            metrics["completed"] = rng.random() < 0.9
            metrics["cycles_executed"] = rng.randrange(10**6)
            metrics["brownouts"] = rng.randrange(4)
            metrics["snapshots"] = rng.randrange(16)
        out.append(RunResult(
            spec_hash=f"{i:016x}",
            name=SCENARIO_NAMES[i % len(SCENARIO_NAMES)],
            overrides=overrides,
            metrics=metrics,
        ))
    return out


def write_shards(results: list, root: str, backend: str) -> list:
    """Split rows into N_SHARDS disjoint shards; returns shard paths."""
    suffix = ".colstore" if backend == "columnar" else ".jsonl"
    per_shard = (len(results) + N_SHARDS - 1) // N_SHARDS
    paths = []
    for s in range(N_SHARDS):
        chunk = results[s * per_shard:(s + 1) * per_shard]
        if not chunk:
            break
        path = os.path.join(root, f"shard-{s}{suffix}")
        store = ResultStore(path)
        with store.batch():
            for result in chunk:
                store.add(result)
        paths.append(path)
    return paths


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def _query_answers(store: ResultStore) -> dict:
    """The analytics answers, reduced to comparable primitives."""
    best = store.best("energy_total")
    frontier = pareto_from_store(store, "energy_total", "progress")
    xs, ys, _ = series_from_store(
        store, "capacitance", "energy_total", name=SCENARIO_NAMES[0]
    )
    return {
        "best": best.spec_hash,
        "pareto": [r.spec_hash for r in frontier],
        "series": (xs, ys),
    }


def bench_backend(results: list, root: str, backend: str) -> dict:
    """Write shards, time merge-ingest, then time a cold load + queries."""
    suffix = ".colstore" if backend == "columnar" else ".jsonl"
    print(f"  [{backend}] writing {N_SHARDS} shards ...", flush=True)
    write_wall, shard_paths = _timed(
        lambda: write_shards(results, root, backend)
    )

    target = os.path.join(root, f"merged{suffix}")
    print(f"  [{backend}] timing merge-ingest ...", flush=True)
    ingest_wall, merged = _timed(
        lambda: ResultStore.merge_shards(shard_paths, output=target)
    )
    if len(merged) != len(results):
        raise AssertionError(
            f"{backend} ingest produced {len(merged)} rows; "
            f"expected {len(results)}"
        )
    del merged

    print(f"  [{backend}] timing cold load + queries ...", flush=True)
    store = ResultStore(target)
    # Row loading is lazy; len() forces the full materialization.
    load_wall, loaded = _timed(lambda: len(store))
    if loaded != len(results):
        raise AssertionError(
            f"{backend} reload found {loaded} rows; expected {len(results)}"
        )
    best_wall, _ = _timed(lambda: store.best("energy_total"))
    pareto_wall, _ = _timed(
        lambda: pareto_from_store(store, "energy_total", "progress")
    )
    series_wall, _ = _timed(lambda: series_from_store(
        store, "capacitance", "energy_total", name=SCENARIO_NAMES[0]
    ))
    answers = _query_answers(store)
    rows = len(results)
    return {
        "payload": {
            "write_shards_s": round(write_wall, 3),
            "ingest_s": round(ingest_wall, 3),
            "ingest_rows_per_s": round(rows / ingest_wall, 1),
            "load_s": round(load_wall, 3),
            "best_s": round(best_wall, 4),
            "pareto_s": round(pareto_wall, 4),
            "series_s": round(series_wall, 4),
        },
        "answers": answers,
    }


def run_benchmarks(rows: int = 1_000_000, repeats: int = 1) -> dict:
    """Time both backends on the same fleet workload; gate the ratio.

    ``repeats`` is accepted for harness symmetry but ingest runs once —
    a million-row merge is long enough to be timing-stable on its own.
    """
    print(f"  generating {rows} synthetic rows ...", flush=True)
    results = synthetic_results(rows)
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = bench_backend(results, os.path.join(tmp, "jsonl"), "jsonl")
        columnar = bench_backend(
            results, os.path.join(tmp, "columnar"), "columnar"
        )
    if jsonl["answers"] != columnar["answers"]:
        raise AssertionError(
            "backends disagree on query answers over identical data"
        )
    speedup = (
        jsonl["payload"]["ingest_s"] / columnar["payload"]["ingest_s"]
    )
    if speedup < INGEST_SPEEDUP_FLOOR:
        raise AssertionError(
            f"columnar ingest speedup {speedup:.1f}x fell below the "
            f"{INGEST_SPEEDUP_FLOOR:.0f}x floor at {rows} rows"
        )
    return {
        "schema": 1,
        "python": platform.python_version(),
        "rows": rows,
        "shards": N_SHARDS,
        "cpus": os.cpu_count() or 1,
        "ingest_speedup_floor": INGEST_SPEEDUP_FLOOR,
        "ingest_speedup": round(speedup, 2),
        "answers_identical": True,
        "backends": {
            "jsonl": jsonl["payload"],
            "columnar": columnar["payload"],
        },
    }


def format_summary(payload: dict) -> str:
    lines = [f"store backends ({payload['rows']} rows, "
             f"{payload['shards']} shards):"]
    for name, case in payload["backends"].items():
        lines.append(
            f"  {name}: ingest {case['ingest_s']:.2f} s "
            f"({case['ingest_rows_per_s']:.0f} rows/s), "
            f"load {case['load_s']:.2f} s, best {case['best_s']:.3f} s, "
            f"pareto {case['pareto_s']:.3f} s, series {case['series_s']:.3f} s"
        )
    lines.append(
        f"  columnar ingest speedup: {payload['ingest_speedup']:.1f}x "
        f"(floor {payload['ingest_speedup_floor']:.0f}x); "
        "query answers identical"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000,
                        help="synthetic fleet rows (default 1M)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parents[2]
                        / "BENCH_store.json")
    args = parser.parse_args(argv)
    print(f"store benchmarks ({args.rows} rows):", flush=True)
    payload = run_benchmarks(rows=args.rows)
    args.output.write_text(json.dumps(payload, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {args.output}")
    print(format_summary(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
