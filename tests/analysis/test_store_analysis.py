"""Store-backed analysis: pareto and crossover on ResultStore.

Includes the refactor-equivalence checks: the store-backed entry points
must produce exactly the numbers the bare-sequence cores produce.
"""

import pytest

from repro.analysis.crossover import (
    crossover_from_store,
    find_crossover,
    series_from_store,
)
from repro.analysis.pareto import pareto_from_store, pareto_points
from repro.errors import ConfigurationError
from repro.results import ResultStore, RunResult
from repro.results.metrics import empty_metrics


def stored(i, name, **values):
    metrics = empty_metrics()
    overrides = {}
    for key, value in values.items():
        if key in metrics:
            metrics[key] = value
        else:
            overrides[key] = value
    return RunResult(
        spec_hash=f"{name}-{i}", name=name, overrides=overrides,
        metrics=metrics,
    )


@pytest.fixture()
def design_store():
    store = ResultStore()
    points = [
        # (cost=energy_total, benefit=availability)
        (3.0, 0.50), (1.0, 0.20), (2.0, 0.60), (2.5, 0.55), (1.5, 0.20),
    ]
    for i, (cost, benefit) in enumerate(points):
        store.add(stored(i, "design", energy_total=cost, availability=benefit))
    # A failed point: excluded, not treated as free.
    store.add(RunResult.failed("boom", spec_hash="design-x", name="design"))
    return store


def test_pareto_from_store_matches_pareto_points(design_store):
    frontier = pareto_from_store(design_store, "energy_total", "availability")
    raw = pareto_points(
        [r["energy_total"] for r in design_store.ok()],
        [r["availability"] for r in design_store.ok()],
    )
    assert [(r["energy_total"], r["availability"]) for r in frontier] == raw
    assert [r["energy_total"] for r in frontier] == [1.0, 2.0]


def test_pareto_minimize_both_axes(design_store):
    frontier = pareto_from_store(
        design_store, "energy_total", "availability", maximize_benefit=False
    )
    assert [(r["energy_total"], r["availability"]) for r in frontier] == [
        (1.0, 0.20)
    ]


def test_pareto_requires_recorded_columns():
    with pytest.raises(ConfigurationError, match="no stored result"):
        pareto_from_store(ResultStore(), "energy_total", "availability")


def test_series_from_store_sorted_and_filtered():
    store = ResultStore()
    for i, (f, e) in enumerate([(40.0, 3.0), (2.0, 1.0), (10.0, 2.0)]):
        store.add(stored(i, "curve", frequency=f, energy_total=e))
    store.add(RunResult.failed("bad point", spec_hash="curve-x", name="curve",
                               overrides={"frequency": 80.0}))
    xs, ys, rows = series_from_store(store, "frequency", "energy_total",
                                     name="curve")
    assert xs == [2.0, 10.0, 40.0]
    assert ys == [1.0, 2.0, 3.0]
    assert [r.name for r in rows] == ["curve"] * 3


def test_crossover_from_store_matches_find_crossover():
    store = ResultStore()
    xs = [2.0, 10.0, 40.0, 80.0]
    ys_a = [1.0, 2.0, 4.0, 8.0]
    ys_b = [3.0, 2.5, 3.5, 4.0]
    for i, x in enumerate(xs):
        store.add(stored(i, "a", frequency=x, energy_total=ys_a[i]))
        store.add(stored(i, "b", frequency=x, energy_total=ys_b[i]))
    from_store = crossover_from_store(
        store, "frequency", "energy_total", "name", "a", "b"
    )
    assert from_store == pytest.approx(find_crossover(xs, ys_a, ys_b))


def test_crossover_from_store_excludes_unshared_points():
    store = ResultStore()
    for i, x in enumerate([2.0, 10.0, 40.0]):
        store.add(stored(i, "a", frequency=x, energy_total=float(i) - 1.0))
    # Series b is missing x=10 (failed there): only {2, 40} are shared.
    store.add(stored(0, "b", frequency=2.0, energy_total=0.5))
    store.add(stored(2, "b", frequency=40.0, energy_total=0.5))
    value = crossover_from_store(
        store, "frequency", "energy_total", "name", "a", "b"
    )
    assert value == pytest.approx(
        find_crossover([2.0, 40.0], [-1.0, 1.0], [0.5, 0.5])
    )
    # Fewer than two shared points: no crossover, not an exception.
    assert crossover_from_store(
        store, "frequency", "energy_total", "name", "a", "missing"
    ) is None
