"""Restart recovery under injected store faults on the JSONL backend.

The torn-write contract: a ``store.torn_write`` injection writes a
*partial* append (complete leading records plus a torn tail) and then
raises — simulating a writer killed mid-flush.  The in-memory store
object is dead at that point (exactly as the process would be); the
test "restarts" by reopening the path fresh and asserts the durable
prefix survived, the torn tail vanished, and the store is appendable
again.  Also here: ``store.append_fail`` presenting as an ``OSError``,
and load-time compaction of stale worker-crash rows.
"""

import pytest

from repro import faults, obs
from repro.results import ResultStore, RunResult
from repro.results.metrics import empty_metrics
from repro.results.run_result import WORKER_FAILURE_PREFIX

BACKENDS = ("jsonl",)
SUFFIXES = {"jsonl": ".jsonl"}


@pytest.fixture(autouse=True)
def disarmed():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(params=BACKENDS)
def store_path(request, tmp_path):
    return tmp_path / f"store{SUFFIXES[request.param]}"


def make_result(i, **metrics):
    filled = empty_metrics()
    filled.update(metrics)
    return RunResult(
        spec_hash=f"h{i}", name="sweep",
        overrides={"x": float(i)}, metrics=filled,
    )


def counter_value(name, **labels):
    wanted = {str(k): str(v) for k, v in labels.items()}
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == name and dict(row["labels"]) == wanted:
            return row["value"]
    return 0


def test_torn_write_loses_only_the_torn_append(store_path):
    store = ResultStore(store_path)
    store.add(make_result(1, energy_total=1.0))
    store.add(make_result(2, energy_total=2.0))
    with faults.active({"store.torn_write": 1.0}):
        with pytest.raises(faults.FaultInjected):
            store.add(make_result(3, energy_total=3.0))
    # The "process" died mid-write; restart by reopening the path.
    survivor = ResultStore(store_path)
    assert sorted(r.spec_hash for r in survivor) == ["h1", "h2"]
    assert survivor.get("h1").metrics["energy_total"] == 1.0
    # The torn tail is gone, not lurking as interior corruption: the
    # store accepts appends and the re-run of the lost point lands.
    assert survivor.add(make_result(3, energy_total=3.0))
    reopened = ResultStore(store_path)
    assert sorted(r.spec_hash for r in reopened) == ["h1", "h2", "h3"]
    assert reopened.get("h3").metrics["energy_total"] == 3.0


def test_kill_mid_batch_keeps_durable_prefix(store_path):
    """Death inside ``store.batch()``'s single flush: the batch loses a
    *suffix* (it may land complete leading lines of the torn append),
    rows durable before the batch survive, and a clean re-run completes
    the batch."""
    store = ResultStore(store_path)
    store.add(make_result(1))
    with faults.active({"store.torn_write": 1.0}):
        with pytest.raises(faults.FaultInjected):
            with store.batch():
                store.add(make_result(2))
                store.add(make_result(3))
    survivor = ResultStore(store_path)
    survived = sorted(r.spec_hash for r in survivor)
    # A durable prefix, never a hole: h1 always; h3 only ever with h2.
    assert survived in (["h1"], ["h1", "h2"], ["h1", "h2", "h3"])
    with survivor.batch():
        survivor.add(make_result(2))
        survivor.add(make_result(3))
    assert sorted(r.spec_hash for r in ResultStore(store_path)) \
        == ["h1", "h2", "h3"]


def test_append_fail_surfaces_as_oserror(store_path):
    store = ResultStore(store_path)
    store.add(make_result(1))
    with faults.active({"store.append_fail": 1.0}):
        with pytest.raises(OSError):
            store.add(make_result(2))
    # Nothing was written: the durable file still holds only row 1.
    assert sorted(r.spec_hash for r in ResultStore(store_path)) == ["h1"]


def test_stale_crash_rows_compact_away_on_load(store_path):
    """A store holding old transient worker-crash rows drops them on
    the next open — they must never satisfy a resume — and compacts the
    file so they stop reloading forever."""
    store = ResultStore(store_path)
    store.add(make_result(1))
    store.add(RunResult.failed(
        f"{WORKER_FAILURE_PREFIX}TimeoutError: task deadline exceeded",
        spec_hash="h2", name="sweep", overrides={"x": 2.0},
    ))
    store.add(make_result(3))
    backend = store.backend
    before = counter_value(
        "repro_store_crash_rows_dropped_total", backend=backend
    )
    reopened = ResultStore(store_path)
    assert sorted(r.spec_hash for r in reopened) == ["h1", "h3"]
    assert "h2" not in reopened
    assert counter_value(
        "repro_store_crash_rows_dropped_total", backend=backend
    ) == before + 1
    # Compacted on disk too: a third open finds no crash rows to drop.
    assert sorted(r.spec_hash for r in ResultStore(store_path)) \
        == ["h1", "h3"]
    assert counter_value(
        "repro_store_crash_rows_dropped_total", backend=backend
    ) == before + 1
