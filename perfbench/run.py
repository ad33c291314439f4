"""Regime benchmark: one command, four seeded workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload fig7-fft --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Both run the correctness gate.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).  Exit status is
0 when the outputs are correct, 1 when they are not, and 2 when the
checkout holds no program to measure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List

import common
from layers import PER_LAYER
from workloads import WORKLOADS

#: End-to-end metrics: name -> unit (host time unless stated).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "cpu_ms_per_point": "ms",
    "peak_rss_mb": "MB",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
}

def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: set up from a fresh interpreter, report when ready."""
    import inproc

    inproc.Context(workload, seed)
    print(f"ready {time.monotonic()!r}", flush=True)


def inproc_setup_s(workload: str, seed: int) -> float:
    """Median time for a fresh process to import, parse and load, at
    reference host speed."""
    speed = common.HostSpeed()
    samples = []
    for _ in range(common.SETUP_REPEATS):
        speed.probe()
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            env=common.child_env(), capture_output=True, text=True,
            timeout=600, check=True,
        ).stdout
        samples.append(float(out.split()[-1]) - t0)
    speed.probe()
    return common.reference_median(samples, speed)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not common.program_present():
        print(f"error: no program sources under {common.SRC}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    common.bootstrap()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    cold = common.ckernel_cache_cold()
    if args.workload == "serve-mix":
        import servemix

        out = servemix.run(args.seed, args.seconds, bool(args.trace))
    else:
        import inproc

        setup_s = inproc_setup_s(args.workload, args.seed)
        out = inproc.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), setup_s)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(out["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    import numpy

    host = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cc": bool(shutil.which("cc")),
        "ckernel_loaded": out["ckernel"],
        "ckernel_cache_cold": cold,
    }
    for name, metric in metrics.items():
        print(f"{args.workload:>13} {name:<28} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    print("samples: " + json.dumps(out["samples"]))
    print("host: " + json.dumps(host))
    if out.get("diagnostics"):
        print("diagnostics: " + json.dumps(out["diagnostics"]))
    if out.get("trace_path"):
        print(f"trace: {os.path.relpath(out['trace_path'], common.ROOT)}")
    for error in out["errors"]:
        print(f"INCORRECT: {error}")
    correct = not out["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    shutil.rmtree(out["workdir"], ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
