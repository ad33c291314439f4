"""Seeded input generators for the regime benchmark's workloads.

Everything here is plain Python over plain data: a generator returns
JSON-able dicts naming a preset, its base overrides and a grid (or an
HTTP request body), and never imports ``repro``.  The program under
test receives only these generated inputs, so the same ``--seed`` gives
the same inputs on every commit.

Inputs are *stratified*: every round covers each stratum of every axis
once, with seeded jitter around the stratum's centre.  Two seeds therefore give
different points but the same cost profile per round, which keeps
host-time figures comparable across seeds.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Iterator, List

#: Workload names, in the order the README describes them.
WORKLOADS = ("fig7-fft", "eq5-batched", "eq5-perpoint", "serve-mix")

#: Fig. 7 axes: capacitance (F, log-stratified), source resistance (ohm)
#: and supply frequency (Hz).  Every corner of this box boots,
#: snapshots, restores and completes the FFT-512 within the preset's
#: 1.2 s horizon.
FIG7_POINTS_PER_ROUND = 8
FIG7_CAPACITANCE = (22e-6, 33e-6)
FIG7_RESISTANCE = (1500.0, 3000.0)
FIG7_FREQUENCY = (4.7, 9.4)

#: Eq. (5) axes: interruption frequency (Hz, log-stratified) times
#: capacitance (F).  Trapezoid supplies above about 100 Hz do not fit
#: one period and raise ``ConfigurationError``, so the top stays below.
EQ5_STRATEGIES = ("hibernus", "quickrecall")
EQ5_FREQUENCY = (1.0, 99.0)
EQ5_FREQUENCY_STRATA = 16
EQ5_CAPACITANCE = (10e-6, 33e-6)
EQ5_CAPACITANCE_STRATA = 2


#: Every generated point runs on the fast kernel (presets default to
#: the reference kernel, which the correctness gate uses as its oracle).
FAST = {"kernel": "fast"}


def _sig(value: float, digits: int = 4) -> float:
    """Round to ``digits`` significant figures (stable JSON, readable)."""
    return float(f"{value:.{digits}g}")


#: How much of its stratum a value may wander over, around the centre.
#: Seeds only nudge the points, so every seed does the same simulated
#: work per round (fig7: the same interpreter instruction and kernel
#: step counts on every seed tried).
JITTER = 0.02


def _strata(rng: random.Random, low: float, high: float, count: int,
            log: bool = False) -> List[float]:
    """One jittered value near the centre of each of ``count`` strata."""
    lo, hi = (math.log(low), math.log(high)) if log else (low, high)
    values = []
    for k in range(count):
        offset = 0.5 + JITTER * (rng.random() - 0.5)
        x = lo + (k + offset) / count * (hi - lo)
        values.append(_sig(math.exp(x) if log else x))
    return values


def _round_rng(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def fig7_round(seed: int, round_index: int) -> List[Dict[str, Any]]:
    """One Latin-hypercube round of Fig. 7 jobs, one point per job."""
    rng = _round_rng(seed, "fig7-fft", round_index)
    n = FIG7_POINTS_PER_ROUND
    axes = [
        _strata(rng, *FIG7_CAPACITANCE, n, log=True),
        _strata(rng, *FIG7_RESISTANCE, n),
        _strata(rng, *FIG7_FREQUENCY, n),
    ]
    for values in axes:
        rng.shuffle(values)
    return [
        {
            "preset": "fig7",
            "overrides": dict(FAST),
            "grid": {
                "capacitance": [c],
                "source_resistance": [r],
                "frequency": [f],
            },
        }
        for c, r, f in zip(*axes)
    ]


def eq5_round(seed: int, round_index: int) -> List[Dict[str, Any]]:
    """One round of Eq. (5) crossover jobs: one job per strategy.

    Each job's grid crosses every frequency stratum with every
    capacitance stratum: 32 points, enough lanes for the batched
    kernel's vectorized passes (it needs 32 lanes in one regime).
    """
    rng = _round_rng(seed, "eq5", round_index)
    jobs = []
    for strategy in EQ5_STRATEGIES:
        jobs.append({
            "preset": f"crossover-{strategy}",
            "overrides": dict(FAST),
            "grid": {
                "frequency": _strata(
                    rng, *EQ5_FREQUENCY, EQ5_FREQUENCY_STRATA, log=True
                ),
                "capacitance": _strata(
                    rng, *EQ5_CAPACITANCE, EQ5_CAPACITANCE_STRATA, log=True
                ),
            },
        })
    return jobs


def inproc_rounds(workload: str, seed: int,
                  start: int = 0) -> Iterator[List[Dict[str, Any]]]:
    """Endless rounds of in-process jobs for ``workload``, from ``start``."""
    make = fig7_round if workload == "fig7-fft" else eq5_round
    index = start
    while True:
        yield make(seed, index)
        index += 1


# -- serve-mix ---------------------------------------------------------------

#: Cheap base scenarios (a few ms per point) drawn from the presets.
SERVE_BASES = {
    "crossover-hibernus": {
        "kernel": "fast", "engine__total_cycles": 200_000, "duration": 3.0,
    },
    "crossover-quickrecall": {
        "kernel": "fast", "engine__total_cycles": 200_000, "duration": 3.0,
    },
    "fig7": {"kernel": "fast", "program__n": 16, "duration": 0.1},
}

#: ``GET /v1/results`` parameter sets, issued in rotation.
QUERIES = (
    {"best": "energy_total"},
    {"pareto": "energy_total,availability"},
    {"series": "capacitance,energy_total"},
)

#: Each client thread repeats this cycle; every job op is followed by
#: ``QUERIES_PER_JOB`` result queries while the other threads write.
#: A default sweep of one topology is a single batched task, which the
#: service runs on its executor thread; ``sweep-perpoint``
#: (``batch_size=1``) fans its points out across the worker pool.
SERVE_JOB_CYCLE = ("sweep", "run", "sweep-perpoint", "exploration",
                   "resubmit")
QUERIES_PER_JOB = 2


#: Per-base (frequency, capacitance) ranges.  Fig. 7's Hibernus
#: thresholds make capacitance below 22 uF infeasible by Eq. (4).
SERVE_RANGES = {
    "crossover": ((1.0, 99.0), (10e-6, 33e-6)),
    "fig7": ((4.7, 9.4), (22e-6, 47e-6)),
}


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return _sig(math.exp(rng.uniform(math.log(low), math.log(high))))


def _serve_axis(rng: random.Random, base: str) -> Dict[str, float]:
    freq, cap = SERVE_RANGES[base.split("-")[0]]
    return {
        "frequency": _log_uniform(rng, *freq),
        "capacitance": _log_uniform(rng, *cap),
    }


def serve_ops(seed: int, thread: int) -> Iterator[Dict[str, Any]]:
    """One client thread's endless, seeded closed-loop operation stream.

    Ops are ``{"op": "job", "kind": ..., "request": {...}}`` or
    ``{"op": "query", "params": {...}}``.  A sweep's 2x2 grid reuses the
    fresh point of the thread's previous sweep on the same base, so
    grids partly overlap and one point in four is a store hit;
    ``resubmit`` re-posts
    the thread's previous job verbatim (a job-cache hit).
    """
    rng = random.Random(f"serve-mix/{seed}/{thread}")
    bases = sorted(SERVE_BASES)
    previous: Dict[str, Dict[str, float]] = {}
    last_job = None
    query_index = thread
    cycle = 0
    while True:
        for kind in SERVE_JOB_CYCLE:
            base = bases[(cycle + thread) % len(bases)]
            request: Dict[str, Any] = {
                "preset": base, "overrides": dict(SERVE_BASES[base]),
            }
            if kind == "resubmit":
                op = dict(last_job, resubmit=True)
            elif kind == "run":
                request["overrides"].update(_serve_axis(rng, base))
                op = {"op": "job", "kind": "run", "request": request}
            elif kind.startswith("sweep"):
                fresh = _serve_axis(rng, base)
                shared = previous.get(base) or _serve_axis(rng, base)
                previous[base] = fresh
                request["grid"] = {
                    key: sorted({fresh[key], shared[key]})
                    for key in ("frequency", "capacitance")
                }
                if kind == "sweep-perpoint":
                    request["batch_size"] = 1
                op = {"op": "job", "kind": "sweep", "request": request}
            else:
                low, high = SERVE_RANGES[base.split("-")[0]][1]
                request["space"] = {"capacitance": {
                    "kind": "log", "low": low, "high": high,
                }}
                request["objectives"] = ["energy_total"]
                request["optimizer"] = "random"
                request["budget"] = 4
                request["seed"] = rng.randrange(1 << 30)
                request["overrides"].update(
                    frequency=_serve_axis(rng, base)["frequency"]
                )
                op = {"op": "job", "kind": "exploration", "request": request}
            if kind != "resubmit":
                last_job = op
            yield op
            for _ in range(QUERIES_PER_JOB):
                yield {"op": "query", "params": dict(QUERIES[query_index % 3])}
                query_index += 1
        cycle += 1


def warmup_request(seed: int, workers: int) -> Dict[str, Any]:
    """A per-point sweep wide enough to spawn every pool worker.

    Its rows land in the store before timing starts; timed points are
    drawn at random with four significant figures, so they practically
    never repeat one of these.
    """
    count = max(2, 2 * workers)
    base = "crossover-quickrecall"
    return {
        "preset": base,
        "overrides": dict(SERVE_BASES[base]),
        "batch_size": 1,
        "grid": {
            "frequency": [_sig(2.0 + 0.123457 * k + seed % 7 * 1e-3)
                          for k in range(count)],
            "capacitance": [22e-6],
        },
    }
