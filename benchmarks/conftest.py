"""Shared benchmark helpers.

Every benchmark reproduces one figure or expression from the paper (see
DESIGN.md's experiment index) and prints the same rows/series the paper
reports.  Absolute numbers come from our simulated substrate, so the
assertions check the *shape*: who wins, by roughly what factor, where the
crossovers and thresholds fall.
"""

from __future__ import annotations

#: The execution kernels every ported bench runs its rows on.
KERNELS = ("reference", "fast")


def once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
