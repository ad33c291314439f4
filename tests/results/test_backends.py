"""The StoreBackend contract, enforced identically on JSONL and columnar.

Every durable backend must provide the same store semantics — hash
dedupe, resume, torn-tail recovery, interior-corruption detection,
shard merging, error rows, type fidelity — so the whole suite is
parametrized over both.  Backend-specific mechanics (shard layout,
string interning, overflow rows) get targeted tests at the end.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.errors import ResultStoreError
from repro.results import ResultStore, RunResult
from repro.results.metrics import empty_metrics

BACKENDS = ("jsonl", "columnar")

SUFFIXES = {"jsonl": ".jsonl", "columnar": ".colstore"}


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
    """The file whose tail a crashed writer can tear, per backend."""
    path = os.fspath(path)
    if path.endswith(".colstore"):
        return os.path.join(path, "shard-000000.dat")
    return path


# -- the shared contract -------------------------------------------------


def test_backend_selected_by_suffix(store_path):
    store = ResultStore(store_path)
    expected = "columnar" if str(store_path).endswith(".colstore") else "jsonl"
    assert store.backend == expected


def test_existing_store_reopens_by_kind_not_by_name(tmp_path):
    """An existing directory is columnar and an existing file JSONL,
    whatever they are called: a columnar store at a suffix-free path and
    a JSONL file named ``*.colstore`` both reopen with identical rows."""
    rows = [make_result(i, energy_total=0.5 * i) for i in range(3)]
    (tmp_path / "cs").mkdir()
    for written, moved, backend in (
        ("a.colstore", os.path.join("cs", "runs"), "columnar"),
        ("b.jsonl", "b.colstore", "jsonl"),
    ):
        store = ResultStore(tmp_path / written)
        for row in rows:
            store.add(row)
        os.rename(tmp_path / written, tmp_path / moved)
        reopened = ResultStore(tmp_path / moved)
        assert reopened.backend == backend
        assert [r.to_record() for r in reopened] == \
            [r.to_record() for r in rows]


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
    suffix = SUFFIXES["columnar" if str(store_path).endswith(".colstore")
                      else "jsonl"]
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
    suffix = SUFFIXES["columnar" if str(store_path).endswith(".colstore")
                      else "jsonl"]
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


# -- columnar-backend specifics ------------------------------------------


def test_columnar_schema_growth_starts_a_new_shard(tmp_path):
    path = tmp_path / "grow.colstore"
    store = ResultStore(path)
    store.add(make_result(1))
    store.add(RunResult(spec_hash="n1", name="sweep",
                        overrides={"x": 1.0, "novel_knob": "a"},
                        metrics=empty_metrics()))
    shards = sorted(f for f in os.listdir(path) if f.endswith(".dat"))
    assert shards == ["shard-000000.dat", "shard-000001.dat"]
    reopened = ResultStore(path)
    assert len(reopened) == 2
    assert reopened.get("n1").overrides["novel_knob"] == "a"


def three_row_colstore(tmp_path):
    path = tmp_path / "compact.colstore"
    store = ResultStore(path)
    for i in range(3):
        store.add(make_result(i, energy_total=float(i)))
    return path, store


def test_columnar_failed_compaction_keeps_every_row(tmp_path):
    from repro import faults

    path, store = three_row_colstore(tmp_path)
    with faults.active({"store.append_fail": 1.0}):
        with pytest.raises(OSError):
            store.add(make_result(1, energy_total=9.0), overwrite=True)
    reopened = ResultStore(path)
    assert sorted(r.spec_hash for r in reopened) == ["h0", "h1", "h2"]
    assert reopened.get("h1").metrics["energy_total"] == 1.0


def test_columnar_load_finishes_a_compaction_cut_before_its_unlinks(
    tmp_path, monkeypatch
):
    """Killed after the compacted shard was published and before the
    old shards were unlinked: both exist, load reads only the compacted
    one and unlinks the rest."""
    path, store = three_row_colstore(tmp_path)
    store.add(RunResult(spec_hash="n1", name="sweep",
                        overrides={"x": 1.0, "novel_knob": "a"},
                        metrics=empty_metrics()))  # a second shard

    def killed(target):
        raise KeyboardInterrupt("killed before unlinking old shards")

    monkeypatch.setattr(os, "unlink", killed)
    with pytest.raises(KeyboardInterrupt):
        store.add(make_result(1, energy_total=9.0), overwrite=True)
    monkeypatch.undo()
    shards = sorted(f for f in os.listdir(path) if f.endswith(".dat"))
    assert shards == ["shard-000000.dat", "shard-000001.dat",
                      "shard-000002.dat"]
    reopened = ResultStore(path)
    assert sorted(r.spec_hash for r in reopened) == ["h0", "h1", "h2", "n1"]
    assert reopened.get("h1").metrics["energy_total"] == 9.0
    assert sorted(os.listdir(path)) == [
        ".lock", "shard-000002.dat", "shard-000002.strings.jsonl",
    ]
    reopened.add(make_result(7))
    assert len(ResultStore(path)) == 5


def test_columnar_out_of_model_values_round_trip(tmp_path):
    """Huge ints and mixed-type columns take the overflow escape hatch
    but still round-trip exactly."""
    path = tmp_path / "odd.colstore"
    store = ResultStore(path)
    store.add(make_result(1, cycles_executed=2**70))
    store.add(RunResult(spec_hash="m1", name="sweep",
                        overrides={"x": "not-a-float"},
                        metrics=empty_metrics()))
    store.add(make_result(2, cycles_executed=7))
    reopened = ResultStore(path)
    assert reopened.get("h1").metrics["cycles_executed"] == 2**70
    assert reopened.get("m1").overrides["x"] == "not-a-float"
    assert reopened.get("h2").metrics["cycles_executed"] == 7


def test_columnar_rejects_oversized_hashes(tmp_path):
    store = ResultStore(tmp_path / "h.colstore")
    oversized = RunResult(spec_hash="x" * 80, name="sweep",
                          overrides={}, metrics=empty_metrics())
    with pytest.raises(ResultStoreError, match="hash"):
        store.add(oversized)


def test_backends_agree_at_fifty_thousand_rows(tmp_path):
    """The parity property at scale: one 50k-row synthetic sweep (with
    error rows mixed in) ingested into both backends must agree on
    every count and ranking query."""
    import random

    from repro.analysis.pareto import pareto_from_store

    rng = random.Random(11)
    rows = []
    for i in range(50_000):
        metrics = empty_metrics()
        if rng.random() < 0.02:
            metrics["error"] = "SimulationError: brownout storm"
        else:
            metrics["completed"] = True
            metrics["energy_total"] = rng.uniform(0.0, 1.0)
            metrics["progress"] = rng.uniform(0.0, 1.0)
        rows.append(RunResult(
            spec_hash=f"{i:08x}", name=f"node-{i % 4}",
            overrides={"capacitance": float(i % 97)}, metrics=metrics,
        ))
    answers = {}
    for suffix in SUFFIXES.values():
        store = ResultStore(tmp_path / f"big{suffix}")
        with store.batch():
            for row in rows:
                store.add(row)
        reopened = ResultStore(tmp_path / f"big{suffix}")
        frontier = pareto_from_store(reopened, "energy_total", "progress")
        answers[suffix] = (
            len(reopened),
            reopened.best("energy_total").spec_hash,
            [r.spec_hash for r in frontier],
            reopened.values(
                "energy_total", where=lambda r: r.name == "node-1"
            )[:100],
        )
    assert answers[".jsonl"] == answers[".colstore"]


def test_columnar_sidecar_sync_across_handles(tmp_path):
    """A second handle appending new interned strings is visible to the
    first handle's next flush (the sidecar re-sync path)."""
    path = tmp_path / "sync.colstore"
    first = ResultStore(path)
    first.add(make_result(1))
    second = ResultStore(path)
    second.add(RunResult(spec_hash="s2", name="other-scenario",
                         overrides={"x": 2.0}, metrics=empty_metrics()))
    first.add(RunResult(spec_hash="s3", name="third-scenario",
                        overrides={"x": 3.0}, metrics=empty_metrics()))
    names = {r.spec_hash: r.name for r in ResultStore(path)}
    assert names == {"h1": "sweep", "s2": "other-scenario",
                     "s3": "third-scenario"}
