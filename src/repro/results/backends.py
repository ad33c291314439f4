"""Persistence backends for :class:`~repro.results.store.ResultStore`.

The store separates *semantics* (hash-dedupe, overwrite, batching,
queries — `store.py`) from *persistence* (this module).  A backend
implements the :class:`StoreBackend` contract:

* ``load()`` — read every durable row, recovering a torn tail (the
  signature of a writer killed mid-flush) by dropping it and compacting;
  corruption anywhere earlier raises, because silently skipping interior
  rows would misreport a sweep as complete.
* ``append(row)`` / ``append_many(rows)`` — durable appends (one fsync
  per call), never touching rows already on disk.
* ``rewrite(rows)`` — compact the file to exactly ``rows`` *plus* any
  durable rows written by another process since our load; the
  preserved strangers are returned so the caller can fold them into its
  in-memory index.  This read-reconcile-replace under the file lock is
  what makes a live ``repro serve`` appending while a CLI ``repro
  results --merge`` compacts lose nothing.  Every write goes through
  :mod:`repro.results.durable`.

Every mutating operation (and every load) holds an advisory
``fcntl.flock`` on a ``.lock`` sidecar, so concurrent processes
serialize whole operations instead of interleaving bytes.  The lock
file sits *next to* the data (not on it) because ``rewrite`` replaces
the data file via ``os.replace`` — a lock on the replaced inode would
silently stop excluding anyone who opens the new one.

Two backends ship: :class:`JsonlBackend` — one JSON record per line,
human-greppable, append-cheap and portable, where a torn tail costs at
most the final *line* — and :class:`MemoryBackend`, which keeps
nothing.
"""

from __future__ import annotations

import os
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.results import durable

try:  # advisory locking is POSIX-only; elsewhere operations are unlocked
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import ResultStoreError
from repro.results.run_result import RunResult, is_worker_crash_error

PathLike = Union[str, "os.PathLike[str]"]


class _FileLock:
    """A reentrant advisory lock on a sidecar file (no-op without fcntl)."""

    def __init__(self, path: str):
        self._path = path
        self._fd: Optional[int] = None
        self._depth = 0

    def __enter__(self) -> "_FileLock":
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            if self._fd is None:
                try:
                    os.makedirs(
                        os.path.dirname(self._path) or ".", exist_ok=True
                    )
                    self._fd = os.open(
                        self._path, os.O_CREAT | os.O_RDWR, 0o644
                    )
                except OSError:
                    # Read-only media: proceed unlocked rather than
                    # refusing to read at all.
                    return self
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None and fcntl is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class StoreBackend:
    """The persistence contract behind :class:`ResultStore`.

    Subclasses own durability and cross-process exclusion; the store
    owns dedupe, overwrite policy and queries.  ``name`` identifies the
    backend in diagnostics (metric labels); ``ephemeral`` marks the
    in-memory backend (batching and compaction become no-ops).
    """

    name = "abstract"
    ephemeral = False

    def __init__(self, path: Optional[str]):
        self.path = path

    def load(self) -> List[RunResult]:
        raise NotImplementedError

    def append(self, result: RunResult) -> None:
        self.append_many([result])

    def append_many(self, results: Sequence[RunResult]) -> None:
        raise NotImplementedError

    def rewrite(self, results: Sequence[RunResult]) -> List[RunResult]:
        """Compact to ``results`` + concurrent strangers; return the latter."""
        raise NotImplementedError


class MemoryBackend(StoreBackend):
    """No persistence: the store lives and dies with the process."""

    name = "memory"
    ephemeral = True

    def __init__(self) -> None:
        super().__init__(None)

    def load(self) -> List[RunResult]:
        return []

    def append_many(self, results: Sequence[RunResult]) -> None:
        pass

    def rewrite(self, results: Sequence[RunResult]) -> List[RunResult]:
        return []


class JsonlBackend(StoreBackend):
    """One JSON record per line; the original ResultStore format."""

    name = "jsonl"

    def __init__(self, path: str):
        super().__init__(path)
        self._lock = _FileLock(f"{path}.lock")

    def _read(self) -> Tuple[List[RunResult], Optional[int]]:
        """Every intact row, and where a torn final line starts (if any)."""
        return durable.read_jsonl(
            self.path, RunResult.from_record, "result record"
        )

    def _replace(self, results: Sequence[RunResult]) -> None:
        durable.replace(self.path, durable.jsonl(r.to_record() for r in results))

    def rewrite(self, results: Sequence[RunResult]) -> List[RunResult]:
        """Compact to ``results`` + concurrent strangers; return the latter.

        The strangers are the first durable row of each hash ``results``
        lacks, re-read under the lock; a worker-crash row is never one
        (compaction would resurrect what the load-time cleanup drops).
        """
        with self._lock:
            known = {r.spec_hash for r in results}
            strangers: List[RunResult] = []
            on_disk = self._read()[0] if os.path.exists(self.path) else []
            for row in on_disk:
                if row.spec_hash not in known \
                        and not is_worker_crash_error(row.error):
                    known.add(row.spec_hash)
                    strangers.append(row)
            self._replace(list(results) + strangers)
        return strangers

    def load(self) -> List[RunResult]:
        if not os.path.exists(self.path):
            return []
        with self._lock:
            records, torn_at = self._read()
            if torn_at is not None:
                self._replace(records)
        return records

    def append_many(self, results: Sequence[RunResult]) -> None:
        if not results:
            return
        payload = durable.jsonl(r.to_record() for r in results)
        fault_key = f"{results[0].spec_hash}|{len(results)}"
        faults.maybe_delay(fault_key)
        faults.inject(
            "store.append_fail", fault_key,
            f"injected append failure on {self.path}",
        )
        with self._lock:
            if faults.fire("store.torn_write", fault_key):
                # Simulate death mid-append: a prefix of the encoded
                # bytes reaches disk (whole leading records plus a torn
                # final line), then the "process" dies.  load() recovers
                # by dropping the torn tail and compacting.
                durable.append(
                    self.path, payload[: max(1, len(payload) // 2)]
                )
                raise faults.FaultInjected(
                    f"injected torn write on {self.path}"
                )
            durable.append(self.path, payload)


def make_backend(path: Optional[PathLike]) -> StoreBackend:
    """The backend a store path names: None keeps the store in memory,
    any other path is a JSONL file (an existing file of any name opens
    as JSONL).

    A directory, or a new path ending in ``.colstore``, named the
    columnar format, which was removed: such a path raises
    :class:`ResultStoreError` saying how to convert it, instead of
    being misread as a JSONL file.
    """
    if path is None:
        return MemoryBackend()
    path = os.fspath(path)
    if os.path.isdir(path) or (
        not os.path.exists(path) and path.endswith(".colstore")
    ):
        raise ResultStoreError(
            f"{path}: the columnar result store format was removed and "
            "JSONL is the one durable format; convert a columnar store "
            "with an earlier release: repro results out.jsonl --merge "
            f"{path}"
        )
    return JsonlBackend(path)
