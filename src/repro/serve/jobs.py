"""Job records and their persistence for the simulation service.

A *job* is one accepted API request — a single run, a sweep grid, or a
budgeted exploration — tracked from submission to completion.  Job ids
are **deterministic**: the content hash of ``(kind, request)``, so
resubmitting the identical request addresses the identical job (the
service turns that into idempotent submission, the HTTP analogue of the
result store's hash dedupe).

Persistence mirrors the result store's durability model but is
event-sourced: every status transition appends one JSONL snapshot line,
the loader keeps the *last* snapshot per job, and a torn final line
(process killed mid-append) is dropped and compacted away.  A service
restarting over an existing job file therefore sees exactly the jobs
the previous process accepted — and marks any still ``queued`` or
``running`` as ``interrupted``, because their executor died with the
process (their *computed points* are safe in the result store; a
resubmission recomputes only the gap).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ResultStoreError
from repro.results.run_result import content_hash

#: The job lifecycle.  ``queued -> running -> done|failed``;
#: ``interrupted`` marks jobs whose executor died (service shutdown or
#: crash) — terminal for this process, but resubmission re-enqueues.
JOB_STATUSES = ("queued", "running", "done", "failed", "interrupted")

#: Statuses that will never change again within this service process.
TERMINAL_STATUSES = ("done", "failed", "interrupted")

#: Request kinds the service executes (also the job-id namespace).
JOB_KINDS = ("run", "sweep", "exploration")

#: Job record layout version; bump when the persisted shape changes.
JOB_SCHEMA = 1


def job_id_for(kind: str, request: Mapping[str, Any]) -> str:
    """The deterministic id of a job: hash of its kind and request."""
    return "job-" + content_hash({"kind": kind, "request": dict(request)})[:16]


@dataclass
class JobRecord:
    """One job's full observable state (what ``GET /v1/jobs/{id}`` returns).

    Attributes:
        job_id: deterministic id (see :func:`job_id_for`).
        kind: ``run`` / ``sweep`` / ``exploration``.
        status: one of :data:`JOB_STATUSES`.
        request: the accepted request payload, verbatim.
        created_s / started_s / finished_s: wall-clock timestamps
            (``time.time()``); None until the transition happens.
        points_total: grid/budget size once known (0 until running).
        points_computed / points_cached / points_errors: progress
            counters fanned out from :class:`~repro.spec.runner.BatchProgress`.
        batches: progress batches observed so far.
        deadline_s: total wall-clock budget from submission; a job
            whose budget expires before (or while waiting for) the
            executor fails with a deadline error instead of running.
            None means no deadline.
        max_retries: how many times a transiently-failed execution
            re-enqueues (with backoff) before the failure is terminal.
        attempts: completed execution attempts so far (0 until the
            first one fails and the job is re-enqueued).
        error: the one-line failure message for ``failed`` jobs.
        result: the kind-specific completion summary (spec hashes, best
            point, ...); None until ``done``.
    """

    job_id: str
    kind: str
    status: str = "queued"
    request: Dict[str, Any] = field(default_factory=dict)
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    points_total: int = 0
    points_computed: int = 0
    points_cached: int = 0
    points_errors: int = 0
    batches: int = 0
    deadline_s: Optional[float] = None
    max_retries: int = 0
    attempts: int = 0
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    def deadline_remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds of wall budget left (None when no deadline is set)."""
        if self.deadline_s is None:
            return None
        now = time.time() if now is None else now
        return self.created_s + self.deadline_s - now

    @property
    def terminal(self) -> bool:
        """True once the status will no longer change in this process."""
        return self.status in TERMINAL_STATUSES

    def to_record(self) -> Dict[str, Any]:
        """The plain-dict persisted/API form (one JSONL snapshot)."""
        record = asdict(self)
        record["schema"] = JOB_SCHEMA
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "JobRecord":
        """Rebuild from :meth:`to_record` output."""
        payload = dict(record)
        schema = payload.pop("schema", JOB_SCHEMA)
        if schema != JOB_SCHEMA:
            raise ResultStoreError(
                f"job record schema {schema!r} is not supported "
                f"(expected {JOB_SCHEMA})"
            )
        for key in ("job_id", "kind", "status"):
            if key not in payload:
                raise ResultStoreError(f"job record is missing {key!r}")
        if payload["status"] not in JOB_STATUSES:
            raise ResultStoreError(
                f"job record has unknown status {payload['status']!r}"
            )
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in payload.items() if k in known})


class JobStore:
    """Append-only JSONL persistence for job snapshots, last-wins.

    Thread-safe (submissions land from HTTP handler threads while the
    executor thread updates progress).  ``_lock`` guards only the
    in-memory map, so lookups never wait on the disk; ``_write_lock``
    orders file writes, so snapshots land (each fsynced) in the order
    their saves updated the map.  Follows the result store's
    recovery contract: a torn final line is dropped and the file
    compacted; corruption anywhere earlier raises, because silently
    skipping snapshots would misreport job history.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as stream:
            lines = stream.readlines()
        loaded: Dict[str, JobRecord] = {}
        bad_tail = False
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = JobRecord.from_record(json.loads(line))
            except (json.JSONDecodeError, ResultStoreError, TypeError) as error:
                if lineno == len(lines):
                    bad_tail = True
                    break
                raise ResultStoreError(
                    f"{self.path}:{lineno}: corrupt job record: {error}"
                ) from error
            loaded[record.job_id] = record
        self._records = loaded
        if bad_tail:
            self._rewrite_locked()

    def _rewrite_locked(self) -> None:
        """Replace the file with the map's snapshots (callers hold
        ``_write_lock``)."""
        lines = [json.dumps(r.to_record()) + "\n" for r in self.records()]
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as stream:
            stream.writelines(lines)
        os.replace(tmp_path, self.path)

    def save(self, record: JobRecord) -> None:
        """Persist one snapshot (and update the in-memory last-wins map)."""
        with self._write_lock:
            with self._lock:
                self._records[record.job_id] = record
            if self.path is None:
                return
            with open(self.path, "a", encoding="utf-8") as stream:
                stream.write(json.dumps(record.to_record()) + "\n")
                stream.flush()
                os.fsync(stream.fileno())

    def compact(self) -> None:
        """Rewrite the file to one (latest) snapshot per job."""
        with self._write_lock:
            if self.path is not None:
                self._rewrite_locked()

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def records(self) -> List[JobRecord]:
        """Every job's latest snapshot, in first-seen order."""
        with self._lock:
            return list(self._records.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._records

    def mark_stale_interrupted(self) -> List[JobRecord]:
        """Mark jobs a dead process left ``queued``/``running`` as
        ``interrupted``; returns the records it changed.

        Called once at service startup: those jobs' executors no longer
        exist, so leaving them non-terminal would report progress that
        can never arrive.
        """
        changed = []
        for record in self.records():
            if record.status in ("queued", "running"):
                record.status = "interrupted"
                record.error = (
                    "service restarted while the job was in flight; "
                    "resubmit to recompute only the missing points"
                )
                record.finished_s = time.time()
                self.save(record)
                changed.append(record)
        return changed
