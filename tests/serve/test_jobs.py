"""Job records, deterministic ids, and JSONL job persistence."""

import json

import pytest

from repro.errors import ResultStoreError
from repro.serve import JobRecord, JobStore, job_id_for
from repro.serve.jobs import JOB_SCHEMA


def test_job_ids_are_deterministic_and_key_order_insensitive():
    a = job_id_for("sweep", {"preset": "fig7", "grid": {"frequency": [4.7]}})
    b = job_id_for("sweep", {"grid": {"frequency": [4.7]}, "preset": "fig7"})
    assert a == b
    assert a.startswith("job-") and len(a) == len("job-") + 16


def test_job_ids_separate_kinds_and_requests():
    request = {"preset": "fig7"}
    assert job_id_for("run", request) != job_id_for("sweep", request)
    assert job_id_for("run", request) != \
        job_id_for("run", {"preset": "fig2"})


def test_record_round_trips_through_persisted_form():
    record = JobRecord(
        job_id="job-abc", kind="sweep", status="done",
        request={"preset": "fig7"}, points_total=4, points_computed=3,
        points_cached=1, result={"points": 4},
    )
    persisted = record.to_record()
    assert persisted["schema"] == JOB_SCHEMA
    assert JobRecord.from_record(persisted) == record


def test_from_record_rejects_bad_schema_status_and_missing_keys():
    good = JobRecord(job_id="job-abc", kind="run").to_record()
    with pytest.raises(ResultStoreError, match="schema"):
        JobRecord.from_record(dict(good, schema=99))
    with pytest.raises(ResultStoreError, match="unknown status"):
        JobRecord.from_record(dict(good, status="exploded"))
    missing = dict(good)
    del missing["kind"]
    with pytest.raises(ResultStoreError, match="'kind'"):
        JobRecord.from_record(missing)


def test_from_record_ignores_unknown_future_keys():
    persisted = JobRecord(job_id="job-abc", kind="run").to_record()
    persisted["added_in_v2"] = "whatever"
    assert JobRecord.from_record(persisted).job_id == "job-abc"


def test_store_keeps_the_last_snapshot_per_job(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    record = JobRecord(job_id="job-abc", kind="sweep")
    store.save(record)
    record.status = "running"
    store.save(record)
    record.status = "done"
    store.save(record)

    reloaded = JobStore(path)
    assert len(reloaded) == 1
    assert reloaded.get("job-abc").status == "done"
    # Event-sourced: three snapshot lines on disk until compaction.
    assert len(path.read_text().splitlines()) == 3
    reloaded.compact()
    assert len(path.read_text().splitlines()) == 1
    assert JobStore(path).get("job-abc").status == "done"


def test_torn_final_line_is_dropped_and_compacted(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.save(JobRecord(job_id="job-abc", kind="run", status="done"))
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"job_id": "job-def", "kind": "run", "sta')

    recovered = JobStore(path)
    assert recovered.records() == [store.get("job-abc")]
    # The torn tail was compacted away, so a re-load is clean JSON.
    for line in path.read_text().splitlines():
        json.loads(line)


def test_interior_corruption_raises_instead_of_skipping(tmp_path):
    path = tmp_path / "jobs.jsonl"
    JobStore(path).save(JobRecord(job_id="job-abc", kind="run"))
    with open(path, "a", encoding="utf-8") as stream:
        stream.write("not json at all\n")
        stream.write(json.dumps(
            JobRecord(job_id="job-def", kind="run").to_record()
        ) + "\n")
    with pytest.raises(ResultStoreError, match="corrupt job record"):
        JobStore(path)


def test_mark_stale_interrupted_touches_only_in_flight_jobs(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.save(JobRecord(job_id="job-q", kind="sweep", status="queued"))
    store.save(JobRecord(job_id="job-r", kind="sweep", status="running"))
    store.save(JobRecord(job_id="job-d", kind="sweep", status="done"))
    store.save(JobRecord(job_id="job-f", kind="sweep", status="failed"))

    restarted = JobStore(path)
    changed = restarted.mark_stale_interrupted()
    assert sorted(r.job_id for r in changed) == ["job-q", "job-r"]
    for record in changed:
        assert record.status == "interrupted"
        assert "restarted" in record.error
        assert record.finished_s is not None
    assert restarted.get("job-d").status == "done"
    assert restarted.get("job-f").status == "failed"
    # The interruption is durable across another restart.
    assert JobStore(path).get("job-r").status == "interrupted"


def test_pathless_store_is_in_memory_only(tmp_path):
    store = JobStore()
    store.save(JobRecord(job_id="job-abc", kind="run"))
    assert "job-abc" in store and len(store) == 1
    assert list(tmp_path.iterdir()) == []


def test_lookups_do_not_wait_for_a_save_blocked_on_fsync(tmp_path, monkeypatch):
    """``get`` answers from memory while another thread's snapshot is
    still being flushed to disk."""
    import os
    import threading

    store = JobStore(str(tmp_path / "service.jsonl.jobs"))
    store.save(JobRecord(job_id="job-a", kind="run"))
    in_fsync, release = threading.Event(), threading.Event()
    real_fsync = os.fsync

    def blocking_fsync(fd):
        in_fsync.set()
        release.wait(timeout=10)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", blocking_fsync)
    saver = threading.Thread(
        target=store.save, args=(JobRecord(job_id="job-b", kind="run"),)
    )
    saver.start()
    try:
        assert in_fsync.wait(timeout=10)
        answers = []
        lookup = threading.Thread(target=lambda: answers.append(
            (store.get("job-a"), store.get("job-b"), "job-a" in store,
             len(store.records()))
        ))
        lookup.start()
        lookup.join(timeout=2)
        assert not lookup.is_alive(), "get waited for the fsync"
        first, second, contained, count = answers[0]
        assert first.job_id == "job-a" and second.job_id == "job-b"
        assert contained and count == 2
    finally:
        release.set()
        saver.join(timeout=10)
    assert not saver.is_alive()
    lines = (tmp_path / "service.jsonl.jobs").read_text().splitlines()
    assert [json.loads(line)["job_id"] for line in lines] == \
        ["job-a", "job-b"]
