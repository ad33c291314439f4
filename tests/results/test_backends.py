"""The StoreBackend contract on the durable (JSONL) backend.

Hash dedupe, resume, torn-tail recovery, interior-corruption detection,
shard merging, error rows, type fidelity; and the paths that named the
removed columnar format, which are refused.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.errors import ResultStoreError
from repro.results import ResultStore, RunResult
from repro.results.metrics import empty_metrics

BACKENDS = ("jsonl",)

SUFFIXES = {"jsonl": ".jsonl"}


def make_result(i, name="sweep", **metrics):
    filled = empty_metrics()
    filled.update(metrics)
    return RunResult(
        spec_hash=f"h{i}",
        name=name,
        overrides={"x": float(i)},
        metrics=filled,
    )


@pytest.fixture(params=BACKENDS)
def store_path(request, tmp_path):
    """A backend-selecting path: the suffix picks the implementation."""
    return tmp_path / f"store{SUFFIXES[request.param]}"


def data_file(path):
    """The file whose tail a crashed writer can tear."""
    return os.fspath(path)


# -- the shared contract -------------------------------------------------


def test_backend_selected_by_suffix(store_path):
    store = ResultStore(store_path)
    assert store.backend == "jsonl"


def test_existing_store_reopens_by_kind_not_by_name(tmp_path):
    """An existing file is JSONL whatever it is called: a JSONL file
    renamed ``*.colstore`` reopens with identical rows."""
    rows = [make_result(i, energy_total=0.5 * i) for i in range(3)]
    store = ResultStore(tmp_path / "b.jsonl")
    for row in rows:
        store.add(row)
    os.rename(tmp_path / "b.jsonl", tmp_path / "b.colstore")
    reopened = ResultStore(tmp_path / "b.colstore")
    assert reopened.backend == "jsonl"
    assert [r.to_record() for r in reopened] == \
        [r.to_record() for r in rows]


def test_directory_and_new_colstore_paths_are_refused(tmp_path):
    """The paths that named the removed columnar format raise, naming
    the path and the conversion, instead of being misread as JSONL."""
    directory = tmp_path / "runs"
    directory.mkdir()
    for path in (directory, tmp_path / "x.colstore"):
        with pytest.raises(ResultStoreError) as excinfo:
            ResultStore(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "removed" in message
        assert f"repro results out.jsonl --merge {path}" in message
    assert not (tmp_path / "x.colstore").exists()


def test_round_trip_preserves_types_and_order(store_path):
    """bool/int/float/str/None metric values and insertion order all
    survive persistence bit-for-bit on every backend."""
    store = ResultStore(store_path)
    store.add(make_result(1, completed=True, brownouts=3, energy_total=0.25,
                          error=None))
    store.add(make_result(2, completed=False, error="SpecError: no"))
    store.add(make_result(3, energy_total=float("inf")))
    reopened = ResultStore(store_path)
    assert [r.spec_hash for r in reopened] == ["h1", "h2", "h3"]
    for original in store:
        assert reopened.get(original.spec_hash).to_record() \
            == original.to_record()
    assert reopened.get("h1").metrics["completed"] is True
    assert reopened.get("h1").metrics["brownouts"] == 3
    assert reopened.get("h2").metrics["error"] == "SpecError: no"


def test_dedupe_by_hash(store_path):
    store = ResultStore(store_path)
    assert store.add(make_result(1, energy_total=1.0))
    assert not store.add(make_result(1, energy_total=9.0))
    assert ResultStore(store_path).get("h1").metrics["energy_total"] == 1.0


def test_resume_appends_only_the_gap(store_path):
    store = ResultStore(store_path)
    store.add(make_result(1))
    store.add(make_result(2))
    resumed = ResultStore(store_path)
    assert not resumed.add(make_result(1))
    assert resumed.add(make_result(3))
    assert len(ResultStore(store_path)) == 3


def test_traces_and_spec_survive(store_path):
    """Traces (nested JSON) and the embedded spec round-trip."""
    from repro.spec.presets import fig7_spec

    spec = fig7_spec(fft_size=64, duration=0.3)
    result = RunResult(
        spec_hash="t1",
        name=spec.name,
        overrides={},
        metrics=empty_metrics(),
        traces={"vcc": {"t": [0.0, 0.5], "v": [2.0, 2.5]}},
        spec=spec,
    )
    store = ResultStore(store_path)
    store.add(result)
    reopened = ResultStore(store_path).get("t1")
    assert reopened.traces == {"vcc": {"t": [0.0, 0.5], "v": [2.0, 2.5]}}
    assert reopened.spec is not None
    assert reopened.spec.to_dict() == spec.to_dict()


def test_torn_tail_is_dropped_and_recovered(store_path):
    """Killing a writer mid-flush loses at most the final append; the
    survivors stay loadable and the store stays appendable."""
    store = ResultStore(store_path)
    store.add(make_result(1))
    store.add(make_result(2))
    store.add(make_result(3))
    target = data_file(store_path)
    with open(target, "r+b") as stream:
        stream.truncate(os.path.getsize(target) - 3)
    recovered = ResultStore(store_path)
    assert [r.spec_hash for r in recovered] == ["h1", "h2"]
    recovered.add(make_result(4))
    assert [r.spec_hash for r in ResultStore(store_path)] == ["h1", "h2", "h4"]


def test_interior_corruption_raises(store_path):
    """Only the tail is recoverable; silent interior skips would
    misreport a sweep as complete."""
    store = ResultStore(store_path)
    store.add(make_result(1))
    store.add(make_result(2))
    target = data_file(store_path)
    with open(target, "r+b") as stream:
        stream.write(b"garbage!")  # stomp the first record/batch
    with pytest.raises(ResultStoreError):
        len(ResultStore(store_path))


def test_merge_shards_dedupes_and_persists(tmp_path, store_path):
    suffix = SUFFIXES["jsonl"]
    shard_a = tmp_path / f"a{suffix}"
    shard_b = tmp_path / f"b{suffix}"
    a = ResultStore(shard_a)
    a.add(make_result(1, energy_total=1.0))
    a.add(make_result(2, energy_total=2.0))
    b = ResultStore(shard_b)
    b.add(make_result(2, energy_total=99.0))  # overlap: first writer wins
    b.add(make_result(3, energy_total=3.0))
    merged = ResultStore.merge_shards([shard_a, shard_b], output=store_path)
    assert [r.spec_hash for r in merged] == ["h1", "h2", "h3"]
    assert merged.get("h2").metrics["energy_total"] == 2.0
    reopened = ResultStore(store_path)
    assert [r.spec_hash for r in reopened] == ["h1", "h2", "h3"]
    with pytest.raises(ResultStoreError, match="not found"):
        ResultStore.merge_shards([tmp_path / f"missing{suffix}"])


def test_merge_into_existing_store_keeps_existing_rows(tmp_path, store_path):
    suffix = SUFFIXES["jsonl"]
    existing = ResultStore(store_path)
    existing.add(make_result(1, energy_total=1.0))
    shard = tmp_path / f"s{suffix}"
    s = ResultStore(shard)
    s.add(make_result(1, energy_total=77.0))
    s.add(make_result(2, energy_total=2.0))
    merged = ResultStore.merge_shards([shard], output=store_path)
    assert [r.spec_hash for r in merged] == ["h1", "h2"]
    assert merged.get("h1").metrics["energy_total"] == 1.0


def test_nan_metrics_survive(store_path):
    import math

    store = ResultStore(store_path)
    store.add(make_result(1, energy_total=float("nan")))
    value = ResultStore(store_path).get("h1").metrics["energy_total"]
    assert math.isnan(value)


def test_overwrite_compacts(store_path):
    store = ResultStore(store_path)
    store.add(make_result(1, energy_total=5.0))
    store.add(make_result(1, energy_total=7.0), overwrite=True)
    reopened = ResultStore(store_path)
    assert len(reopened) == 1
    assert reopened.get("h1").metrics["energy_total"] == 7.0


def test_batch_overwrites_trigger_one_rewrite(store_path, monkeypatch):
    """The O(n^2) regression guard: a batch that overwrites many rows
    compacts exactly once, at batch exit."""
    store = ResultStore(store_path)
    with store.batch():
        for i in range(30):
            store.add(make_result(i))
    rewrites = []
    real_rewrite = store._backend.rewrite
    monkeypatch.setattr(
        store._backend, "rewrite",
        lambda rows: (rewrites.append(1), real_rewrite(rows))[1],
    )
    with store.batch():
        for i in range(30):
            store.add(make_result(i, energy_total=float(i)), overwrite=True)
        store.add(make_result(99))  # a fresh row rides the same batch
    assert len(rewrites) == 1
    reopened = ResultStore(store_path)
    assert len(reopened) == 31
    assert reopened.get("h7").metrics["energy_total"] == 7.0
    assert "h99" in reopened


def test_rewrite_preserves_another_writers_appends(store_path):
    """The PR-6 bug class: a compaction racing an append from another
    store handle must not drop the appended row."""
    ours = ResultStore(store_path)
    ours.add(make_result(1, energy_total=1.0))
    theirs = ResultStore(store_path)
    theirs.add(make_result(2, energy_total=2.0))
    # ours has never seen h2; its compaction re-reads under the lock
    # and folds the stranger row back in instead of erasing it.
    ours.add(make_result(1, energy_total=9.0), overwrite=True)
    assert ours.get("h2") is not None
    final = ResultStore(store_path)
    assert final.get("h1").metrics["energy_total"] == 9.0
    assert final.get("h2").metrics["energy_total"] == 2.0


_WRITER_SCRIPT = """
import sys
from repro.results import ResultStore, RunResult
from repro.results.metrics import empty_metrics

path, count = sys.argv[1], int(sys.argv[2])
store = ResultStore(path)
for i in range(count):
    metrics = empty_metrics()
    metrics["energy_total"] = float(i)
    store.add(RunResult(spec_hash=f"w{i}", name="worker",
                        overrides={"x": float(i)}, metrics=metrics))
print("done", flush=True)
"""


def test_two_process_append_compaction_race(store_path):
    """A live writer appending row-by-row while this process repeatedly
    compacts (overwrite => rewrite) must lose nothing on either side."""
    n_child = 40
    store = ResultStore(store_path)
    for i in range(5):
        store.add(make_result(i))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
        + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _WRITER_SCRIPT, str(store_path), str(n_child)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    flips = 0
    deadline = time.monotonic() + 60
    while child.poll() is None and time.monotonic() < deadline:
        store.add(
            make_result(flips % 5, energy_total=float(flips)), overwrite=True
        )
        flips += 1
    out, err = child.communicate(timeout=60)
    assert child.returncode == 0, err.decode()
    assert b"done" in out
    # One more racing compaction after the child finished.
    store.add(make_result(0, energy_total=-1.0), overwrite=True)
    final = ResultStore(store_path)
    missing = [f"w{i}" for i in range(n_child) if final.get(f"w{i}") is None]
    assert not missing, f"compaction dropped durable rows: {missing}"
    assert all(final.get(f"h{i}") is not None for i in range(5))
    assert flips > 0
