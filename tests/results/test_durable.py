"""The durable-write contract shared by result stores and the job journal.

Every compaction the program runs replaces a file the program must find
intact after a crash, so each must make its temp file durable before
the rename publishes it; and the shared JSONL reader treats a final
line the writer never finished as torn, whichever file it reads.
"""

import os

import pytest

from repro.results import ResultStore, RunResult
from repro.results.metrics import empty_metrics
from repro.serve import JobRecord, JobStore


def make_result(i, **metrics):
    filled = empty_metrics()
    filled.update(metrics)
    return RunResult(
        spec_hash=f"h{i}", name="sweep",
        overrides={"x": float(i)}, metrics=filled,
    )


def result_store_overwrite(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    store.add(make_result(1, energy_total=1.0))
    store.add(make_result(2, energy_total=2.0))
    return path, lambda: store.add(
        make_result(1, energy_total=9.0), overwrite=True
    )


def job_store_compact(tmp_path):
    path = tmp_path / "runs.jsonl.jobs"
    store = JobStore(path)
    record = JobRecord(job_id="job-a", kind="run")
    store.save(record)
    record.status = "done"
    store.save(record)
    return path, store.compact


def job_store_torn_tail_load(tmp_path):
    path = tmp_path / "runs.jsonl.jobs"
    JobStore(path).save(JobRecord(job_id="job-a", kind="run", status="done"))
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"job_id": "job-b", "kind": "run", "sta')
    return path, lambda: JobStore(path)


@pytest.mark.parametrize("compaction", [
    result_store_overwrite, job_store_compact, job_store_torn_tail_load,
])
def test_compaction_fsyncs_its_temp_file_before_replacing(
    tmp_path, monkeypatch, compaction
):
    path, compact = compaction(tmp_path)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    compact()
    replaces = [i for i, event in enumerate(events)
                if event[0] == "replace" and event[2] == os.fspath(path)]
    assert len(replaces) == 1, events
    inode = events[replaces[0]][1]
    assert ("fsync", inode) in events[:replaces[0]], events


def test_unterminated_final_record_is_torn_and_appends_stay_whole(tmp_path):
    """A record whose newline never reached disk was never acknowledged:
    it is dropped like any torn tail, so the next append starts a line
    of its own instead of gluing onto it."""
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    store.add(make_result(1))
    store.add(make_result(2))
    data = path.read_bytes()
    path.write_bytes(data[:-1])  # row h2 complete, its newline lost
    recovered = ResultStore(path)
    assert [r.spec_hash for r in recovered] == ["h1"]
    assert recovered.add(make_result(2))
    assert recovered.add(make_result(3))
    assert [r.spec_hash for r in ResultStore(path)] == ["h1", "h2", "h3"]
    assert path.read_bytes().endswith(b"\n")
