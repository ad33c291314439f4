"""Pluggable persistence backends for :class:`~repro.results.store.ResultStore`.

The store separates *semantics* (hash-dedupe, overwrite, batching,
queries — `store.py`) from *persistence* (this module).  A backend
implements the :class:`StoreBackend` contract:

* ``load()`` — read every durable row, recovering a torn tail (the
  signature of a writer killed mid-flush) by dropping it and compacting;
  corruption anywhere earlier raises, because silently skipping interior
  rows would misreport a sweep as complete.
* ``append(row)`` / ``append_many(rows)`` — durable appends (one fsync
  per call), never touching rows already on disk.
* ``rewrite(rows)`` — compact the file(s) to exactly ``rows`` *plus*
  any durable rows written by another process since our load; the
  preserved strangers are returned so the caller can fold them into its
  in-memory index.  This read-reconcile-replace under the file lock
  (one rule over each backend's own read and replace) is what makes a
  live ``repro serve`` appending while a CLI ``repro results --merge``
  compacts lose nothing.  Every write goes through
  :mod:`repro.results.durable`.

Every mutating operation (and every load) holds an advisory
``fcntl.flock`` on a ``.lock`` sidecar, so concurrent processes
serialize whole operations instead of interleaving bytes.  The lock
file sits *next to* the data (not on it) because ``rewrite`` replaces
the data file via ``os.replace`` — a lock on the replaced inode would
silently stop excluding anyone who opens the new one.

Two durable backends ship:

* :class:`JsonlBackend` — one JSON record per line.  Human-greppable,
  append-cheap, portable; a torn tail costs at most the final *line*.
  The right default for interactive sweeps and small stores.
* :class:`ColumnarBackend` — a ``.colstore`` directory of append-only
  shards, each one fixed-schema data file (``shard-NNNNNN.dat``,
  self-framing record batches of contiguous numpy column blocks) plus a
  JSONL string-table sidecar (``shard-NNNNNN.strings.jsonl``) holding
  the shard schema and every interned string (names, categorical
  values, error messages, spec/trace payloads).  A new shard starts
  whenever a batch brings columns the current schema lacks.  Reads map
  the data file with :func:`numpy.memmap` and decode whole columns at
  C speed; shard-to-store merges move column blocks wholesale (hash
  dedupe via ``np.isin``) without materialising Python rows — the
  fleet-scale ingest path.  A torn tail costs at most the final
  *batch*.
"""

from __future__ import annotations

import json
import os
import struct
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
    Union,
)

import numpy as np

from repro import faults
from repro.results import durable

try:  # advisory locking is POSIX-only; elsewhere operations are unlocked
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.errors import ResultStoreError
from repro.results.run_result import RunResult, is_worker_crash_error

PathLike = Union[str, "os.PathLike[str]"]

#: Path suffix that makes a *new* store path columnar.
COLUMNAR_SUFFIX = ".colstore"

#: Frame marker opening every columnar record batch.
_BATCH_MAGIC = b"RPB1"
_BATCH_HEADER = struct.Struct("<4sIH")  # magic, n_rows, n_cols

# Per-column presence codes (one byte per column per batch).
_ABSENT_COL = 0   # no row of the batch has the key
_DENSE_COL = 1    # every row has a non-None value
_NONE_COL = 2     # every row has the key, every value is None
_MIXED_COL = 3    # two bitmaps (key-present, value-not-None) + data

# Per-column value kinds (one byte per column per batch).
_KIND_F8 = 0
_KIND_I8 = 1
_KIND_BOOL = 2
_KIND_STR = 3     # int32 index into the shard string table (-1 = None)
_KIND_HASH = 4    # fixed 64-byte ASCII field

_KIND_DTYPES = {
    _KIND_F8: np.dtype("<f8"),
    _KIND_I8: np.dtype("<i8"),
    _KIND_BOOL: np.dtype("u1"),
    _KIND_STR: np.dtype("<i4"),
    _KIND_HASH: np.dtype("S64"),
}

#: Implicit columns present in every columnar shard, before the
#: ``o:<override>`` and ``m:<metric>`` value columns.
_SPECIAL_COLUMNS = ("#hash", "#name", "#spec", "#traces", "#overflow")

_ABSENT = object()  # sentinel: the row's dict lacks the key entirely


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
    backend in CLI flags and diagnostics; ``ephemeral`` marks the
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
        """Compact to ``results`` + concurrent strangers; return the latter.

        The strangers are the first durable row of each hash ``results``
        lacks, re-read under the lock; a worker-crash row is never one
        (compaction would resurrect what the load-time cleanup drops).
        """
        with self._lock:
            known = {r.spec_hash for r in results}
            strangers: List[RunResult] = []
            for row in self._read_rows():
                if row.spec_hash not in known \
                        and not is_worker_crash_error(row.error):
                    known.add(row.spec_hash)
                    strangers.append(row)
            self._replace(list(results) + strangers)
        return strangers

    def _read_rows(self) -> List[RunResult]:
        """Every durable row (none when nothing is stored yet)."""
        raise NotImplementedError

    def _replace(self, results: Sequence[RunResult]) -> None:
        """Make ``results`` the whole durable content."""
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

    def _read_rows(self) -> List[RunResult]:
        return self._read()[0] if os.path.exists(self.path) else []

    def _replace(self, results: Sequence[RunResult]) -> None:
        durable.replace(self.path, durable.jsonl(r.to_record() for r in results))

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


# ---------------------------------------------------------------------------
# Columnar backend
# ---------------------------------------------------------------------------


class _DecodedBatch:
    """One record batch, decoded to numpy columns (no Python rows yet)."""

    __slots__ = ("n", "codes", "kinds", "values", "present", "notnone")

    def __init__(self, n: int):
        self.n = n
        self.codes: Dict[str, int] = {}
        self.kinds: Dict[str, int] = {}
        self.values: Dict[str, np.ndarray] = {}
        self.present: Dict[str, np.ndarray] = {}
        self.notnone: Dict[str, np.ndarray] = {}


class _Shard:
    """Mutable writer state for one (data, sidecar) file pair."""

    __slots__ = ("dat", "sidecar", "columns", "table", "intern", "sidecar_size")

    def __init__(self, dat: str, sidecar: str, columns: List[str]):
        self.dat = dat
        self.sidecar = sidecar
        self.columns = columns
        self.table: List[str] = []
        self.intern: Dict[str, int] = {}
        self.sidecar_size = 0


def _category(value: Any) -> Optional[int]:
    """The column kind a value fits, or None for out-of-model types."""
    if isinstance(value, bool):
        return _KIND_BOOL
    if isinstance(value, float):
        return _KIND_F8
    if isinstance(value, int):
        return _KIND_I8
    if isinstance(value, str):
        return _KIND_STR
    return None


def _frame(n: int, columns: List[str], encoded: Dict[str, Tuple]) -> bytes:
    """One record batch of ``n`` rows; ``encoded`` maps a column to its
    (code, kind, values, present, notnone), and lacks absent columns."""
    codes = np.zeros(len(columns), np.uint8)
    kinds = np.zeros(len(columns), np.uint8)
    blocks: List[bytes] = []
    for i, name in enumerate(columns):
        code, kind, data, present, notnone = encoded.get(
            name, (_ABSENT_COL, _KIND_F8, None, None, None)
        )
        codes[i] = code
        kinds[i] = kind
        if code == _MIXED_COL:
            blocks.append(np.packbits(present).tobytes())
            blocks.append(np.packbits(notnone).tobytes())
        if code in (_DENSE_COL, _MIXED_COL):
            blocks.append(
                np.ascontiguousarray(data, dtype=_KIND_DTYPES[kind]).tobytes()
            )
    header = _BATCH_HEADER.pack(_BATCH_MAGIC, n, len(columns))
    return b"".join([header, codes.tobytes(), kinds.tobytes()] + blocks)


class ColumnarBackend(StoreBackend):
    """Sharded append-only columnar storage under a ``.colstore`` dir.

    Durability model: each flush appends one self-framing record batch —
    the string-table sidecar is extended and fsynced *before* the data
    file, so a complete batch never references a missing string.  A
    crash mid-flush tears at most the final batch (JSONL tears at most
    the final line); load truncates it and drops a torn sidecar line.
    Interior damage — a bad frame marker, a string index past the
    table — raises :class:`ResultStoreError`.
    """

    name = "columnar"

    def __init__(self, path: str):
        super().__init__(os.fspath(path))
        self._lock = _FileLock(os.path.join(self.path, ".lock"))
        self._active: Optional[_Shard] = None

    # -- shard discovery and sidecars ------------------------------------

    def _shard_paths(self) -> List[Tuple[str, str]]:
        if not os.path.isdir(self.path):
            return []
        pairs = []
        for entry in sorted(os.listdir(self.path)):
            if entry.startswith("shard-") and entry.endswith(".dat"):
                stem = entry[: -len(".dat")]
                pairs.append((
                    os.path.join(self.path, entry),
                    os.path.join(self.path, f"{stem}.strings.jsonl"),
                ))
        return pairs

    def _read_sidecar(
        self, sidecar: str, *, compact_tail: bool
    ) -> Tuple[List[str], List[str], bool]:
        """Returns (columns, table, base); drops a torn tail.  ``base``
        marks a compaction's shard, which supersedes every older one."""
        if not os.path.exists(sidecar):
            raise ResultStoreError(
                f"{sidecar}: missing string-table sidecar for its data file"
            )
        entries, torn_at = durable.read_jsonl(
            sidecar, lambda entry: entry, "string-table entry"
        )
        if not entries or not isinstance(entries[0], dict) \
                or "columns" not in entries[0]:
            raise ResultStoreError(f"{sidecar}: missing shard schema header")
        table = entries[1:]
        if any(not isinstance(s, str) for s in table):
            raise ResultStoreError(f"{sidecar}: non-string table entry")
        if torn_at is not None and compact_tail:
            durable.truncate(sidecar, torn_at)
        header = entries[0]
        return list(header["columns"]), table, bool(header.get("base"))

    def _next_shard(self, columns: List[str]) -> _Shard:
        """An unwritten shard numbered after every existing one."""
        os.makedirs(self.path, exist_ok=True)
        index = 0
        for dat, _sidecar in self._shard_paths():
            stem = os.path.basename(dat)[len("shard-"):-len(".dat")]
            try:
                index = max(index, int(stem) + 1)
            except ValueError:
                pass
        stem = f"shard-{index:06d}"
        return _Shard(
            os.path.join(self.path, f"{stem}.dat"),
            os.path.join(self.path, f"{stem}.strings.jsonl"),
            columns,
        )

    @staticmethod
    def _shard_header(columns: List[str], base: bool = False) -> str:
        header: Dict[str, Any] = {"format": "repro-colstore", "version": 1,
                                  "columns": columns}
        if base:
            header["base"] = True
        return durable.jsonl([header])

    def _create_shard(self, columns: List[str]) -> _Shard:
        shard = self._next_shard(columns)
        header = self._shard_header(columns)
        durable.replace(shard.sidecar, header)
        durable.append(shard.dat, b"")
        shard.sidecar_size = len(header.encode("utf-8"))
        return shard

    def _sync_active(self) -> Optional[_Shard]:
        """Point the writer at the newest shard, re-reading its table if
        another process extended it since we last looked."""
        pairs = self._shard_paths()
        if not pairs:
            self._active = None
            return None
        dat, sidecar = pairs[-1]
        shard = self._active
        size = os.path.getsize(sidecar) if os.path.exists(sidecar) else -1
        if shard is None or shard.dat != dat or shard.sidecar_size != size:
            columns, table, _base = self._read_sidecar(
                sidecar, compact_tail=True
            )
            shard = _Shard(dat, sidecar, columns)
            shard.table = table
            shard.intern = {s: i for i, s in enumerate(table)}
            shard.sidecar_size = os.path.getsize(sidecar)
            self._active = shard
        return shard

    def _intern(self, shard: _Shard, value: str,
                fresh: List[str]) -> int:
        index = shard.intern.get(value)
        if index is None:
            index = len(shard.table)
            shard.table.append(value)
            shard.intern[value] = index
            fresh.append(value)
        return index

    # -- encoding --------------------------------------------------------

    def _batch_columns(self, results: Sequence[RunResult]) -> List[str]:
        columns = list(_SPECIAL_COLUMNS)
        seen: Set[str] = set(columns)
        for result in results:
            for key in result.overrides:
                name = f"o:{key}"
                if name not in seen:
                    seen.add(name)
                    columns.append(name)
            for key in result.metrics:
                name = f"m:{key}"
                if name not in seen:
                    seen.add(name)
                    columns.append(name)
        return columns

    def _encode_value_column(
        self,
        dicts: List[Dict[str, Any]],
        key: str,
        shard: _Shard,
        fresh: List[str],
        overflow_rows: Set[int],
    ) -> Tuple[int, int, Optional[np.ndarray], Optional[np.ndarray],
               Optional[np.ndarray]]:
        """Encode one override/metric column of the batch.

        Returns (code, kind, values, present, notnone); values are a
        numpy array for codes 1/3, presence masks are bool arrays for
        code 3.  Rows whose value fits no column kind are added to
        ``overflow_rows`` (the caller reroutes the whole row through the
        string table) and encoded as None here.
        """
        n = len(dicts)
        try:
            vals = list(map(itemgetter(key), dicts))
            sparse = False
        except KeyError:
            vals = [d.get(key, _ABSENT) for d in dicts]
            sparse = True
        types = set(map(type, vals))
        types.discard(type(None))
        if sparse:
            types.discard(type(_ABSENT))
        if not types:
            if sparse:
                present = np.fromiter(
                    (v is not _ABSENT for v in vals), np.bool_, count=n
                )
                return (_MIXED_COL, _KIND_F8, np.zeros(n),
                        present, np.zeros(n, np.bool_))
            return _NONE_COL, _KIND_F8, None, None, None

        if types == {float} or types == {int, float}:
            kind = _KIND_F8
        elif types == {int}:
            kind = _KIND_I8
        elif types == {bool}:
            kind = _KIND_BOOL
        elif types == {str}:
            kind = _KIND_STR
        else:
            # Heterogeneous or out-of-model values: keep the rows, but
            # each offending row round-trips via its overflow record.
            kind = None
            for value in vals:
                if value is None or value is _ABSENT:
                    continue
                kind = _category(value)
                if kind is not None:
                    break
            if kind is None:
                kind = _KIND_STR
            cleaned = list(vals)
            for i, value in enumerate(vals):
                if value is None or value is _ABSENT:
                    continue
                fits = _category(value)
                if fits is None or not (
                    fits == kind
                    or (kind == _KIND_F8 and fits in (_KIND_F8, _KIND_I8))
                ):
                    overflow_rows.add(i)
                    cleaned[i] = None
            vals = cleaned

        none_count = vals.count(None) + (vals.count(_ABSENT) if sparse else 0)
        if none_count == 0:
            if kind == _KIND_STR:
                data = np.fromiter(
                    (self._intern(shard, v, fresh) for v in vals),
                    np.int32, count=n,
                )
            elif kind == _KIND_BOOL:
                data = np.asarray(vals, np.bool_)
            elif kind == _KIND_I8:
                try:
                    data = np.asarray(vals, np.int64)
                except OverflowError:
                    for i, value in enumerate(vals):
                        if not (-2**63 <= value < 2**63):
                            overflow_rows.add(i)
                    data = np.asarray(
                        [0 if not (-2**63 <= v < 2**63) else v for v in vals],
                        np.int64,
                    )
            else:
                data = np.asarray(vals, np.float64)
            return _DENSE_COL, kind, data, None, None

        # Mixed presence: slow row loop, but rare (error rows inside an
        # otherwise-clean batch, overrides present on a subset).
        present = np.fromiter((v is not _ABSENT for v in vals),
                              np.bool_, count=n)
        notnone = np.fromiter(
            (v is not _ABSENT and v is not None for v in vals),
            np.bool_, count=n,
        )
        if kind == _KIND_STR:
            data = np.fromiter(
                (self._intern(shard, v, fresh)
                 if (v is not None and v is not _ABSENT) else -1
                 for v in vals),
                np.int32, count=n,
            )
        else:
            dtype = {_KIND_F8: np.float64, _KIND_I8: np.int64,
                     _KIND_BOOL: np.bool_}[kind]
            zero = False if kind == _KIND_BOOL else 0
            data = np.asarray(
                [zero if (v is None or v is _ABSENT) else v for v in vals],
                dtype,
            )
        return _MIXED_COL, kind, data, present, notnone

    def _encode_batch(
        self, shard: _Shard, results: Sequence[RunResult], fresh: List[str]
    ) -> bytes:
        n = len(results)
        columns = shard.columns
        overrides = [r.overrides for r in results]
        metrics = [r.metrics for r in results]
        overflow_rows: Set[int] = set()

        encoded: Dict[str, Tuple] = {}
        for name in columns:
            if name.startswith("o:"):
                encoded[name] = self._encode_value_column(
                    overrides, name[2:], shard, fresh, overflow_rows
                )
            elif name.startswith("m:"):
                encoded[name] = self._encode_value_column(
                    metrics, name[2:], shard, fresh, overflow_rows
                )

        hashes = [r.spec_hash for r in results]
        if max(map(len, hashes)) > 64 or not all(
            h.isascii() for h in hashes
        ):
            raise ResultStoreError(
                "columnar stores need ASCII spec hashes of at most 64 "
                "bytes (the pipeline's sha256 hex keys always fit)"
            )
        encoded["#hash"] = (
            _DENSE_COL, _KIND_HASH, np.array(hashes, dtype="S64"), None, None,
        )
        encoded["#name"] = (
            _DENSE_COL, _KIND_STR,
            np.fromiter((self._intern(shard, r.name, fresh) for r in results),
                        np.int32, count=n),
            None, None,
        )

        def _payload_ids(payloads: List[Optional[str]]) -> Tuple:
            if not any(p is not None for p in payloads):
                return _NONE_COL, _KIND_STR, None, None, None
            data = np.fromiter(
                (self._intern(shard, p, fresh) if p is not None else -1
                 for p in payloads),
                np.int32, count=n,
            )
            return _DENSE_COL, _KIND_STR, data, None, None

        specs = [
            json.dumps(r.spec.to_dict())
            if (r.spec is not None and hasattr(r.spec, "to_dict")) else None
            for r in results
        ]
        traces = [
            json.dumps(r.traces) if r.traces else None for r in results
        ]
        overflow = [
            json.dumps(results[i].to_record()) if i in overflow_rows else None
            for i in range(n)
        ]
        encoded["#spec"] = _payload_ids(specs)
        encoded["#traces"] = _payload_ids(traces)
        encoded["#overflow"] = _payload_ids(overflow)

        return _frame(n, columns, encoded)

    def append_many(self, results: Sequence[RunResult]) -> None:
        """Append one record batch durably (sidecar first, then data)."""
        if not results:
            return
        fault_key = self._fault_gate(results)
        with self._lock:
            self._append_frame(
                self._batch_columns(results),
                lambda shard, fresh: self._encode_batch(shard, results, fresh),
                fault_key,
            )

    def _fault_gate(self, results: Sequence[RunResult]) -> str:
        """Fire ``io.slow`` and ``store.append_fail`` for a write of
        ``results``, before any byte lands; returns the fault key."""
        fault_key = f"{results[0].spec_hash}|{len(results)}"
        faults.maybe_delay(fault_key)
        faults.inject(
            "store.append_fail", fault_key,
            f"injected append failure on {self.path}",
        )
        return fault_key

    def _append_frame(
        self,
        columns: List[str],
        encode: Callable[[_Shard, List[str]], bytes],
        fault_key: Optional[str] = None,
    ) -> None:
        """Append one record batch to the newest shard, or a new one
        when it lacks some of ``columns``.  ``encode(shard, fresh)``
        builds the frame, listing the strings it interned in ``fresh``;
        those land (fsynced) before the frame does.
        """
        shard = self._sync_active()
        if shard is None or any(c not in shard.columns for c in columns):
            merged = list(shard.columns) if shard is not None else []
            merged += [c for c in columns if c not in merged]
            shard = self._active = self._create_shard(merged)
        fresh: List[str] = []
        frame = encode(shard, fresh)
        if fresh:
            payload = durable.jsonl(fresh)
            durable.append(shard.sidecar, payload)
            shard.sidecar_size += len(payload.encode("utf-8"))
        if fault_key is not None and faults.fire("store.torn_write", fault_key):
            # Only a prefix of the frame lands, which decode recognises
            # as a torn final batch and compacts away on reopen.
            durable.append(shard.dat, frame[: max(1, len(frame) // 2)])
            raise faults.FaultInjected(f"injected torn write on {shard.dat}")
        durable.append(shard.dat, frame)

    # -- decoding --------------------------------------------------------

    def _batches(
        self, *, compact_tail: bool
    ) -> Iterator[Tuple[List[str], List[str], _DecodedBatch]]:
        """Every intact record batch, with its shard's columns and table.

        Reads from the newest base shard on: a compaction that crashed
        after publishing its shard but before unlinking the old ones
        left those behind, and ``compact_tail`` unlinks them now.
        """
        shards = self._shard_paths()
        sidecars = [
            self._read_sidecar(sidecar, compact_tail=compact_tail)
            for _dat, sidecar in shards
        ]
        start = max(
            (i for i, (_c, _t, base) in enumerate(sidecars) if base),
            default=0,
        )
        if compact_tail:
            self._unlink(shards[:start])
        for (dat, _sidecar), (columns, table, _base) in zip(
            shards[start:], sidecars[start:]
        ):
            for batch in self._decode_batches(
                dat, columns, table, compact_tail=compact_tail
            ):
                yield columns, table, batch

    def _decode_batches(
        self, dat: str, columns: List[str], table: List[str],
        *, compact_tail: bool,
    ) -> List[_DecodedBatch]:
        size = os.path.getsize(dat)
        if size == 0:
            return []
        buf = np.memmap(dat, dtype=np.uint8, mode="r")
        raw = memoryview(buf)
        batches: List[_DecodedBatch] = []
        offset = 0
        good = 0
        torn = False
        n_cols = len(columns)
        while offset < size:
            if offset + _BATCH_HEADER.size + 2 * n_cols > size:
                torn = True
                break
            magic, n, cols = _BATCH_HEADER.unpack_from(raw, offset)
            if magic != _BATCH_MAGIC or cols != n_cols:
                if good == 0 and offset == 0:
                    raise ResultStoreError(
                        f"{dat}: not a colstore data file (bad frame marker)"
                    )
                raise ResultStoreError(
                    f"{dat}: corrupt record batch at byte {offset}"
                )
            pos = offset + _BATCH_HEADER.size
            codes = np.frombuffer(raw, np.uint8, n_cols, pos)
            kinds = np.frombuffer(raw, np.uint8, n_cols, pos + n_cols)
            pos += 2 * n_cols
            batch = _DecodedBatch(n)
            bitmap_bytes = (n + 7) // 8
            try:
                for i, name in enumerate(columns):
                    code, kind = int(codes[i]), int(kinds[i])
                    batch.codes[name] = code
                    batch.kinds[name] = kind
                    if code == _MIXED_COL:
                        if pos + 2 * bitmap_bytes > size:
                            raise _Torn()
                        batch.present[name] = np.unpackbits(
                            np.frombuffer(raw, np.uint8, bitmap_bytes, pos),
                            count=n,
                        ).astype(bool)
                        batch.notnone[name] = np.unpackbits(
                            np.frombuffer(
                                raw, np.uint8, bitmap_bytes,
                                pos + bitmap_bytes,
                            ),
                            count=n,
                        ).astype(bool)
                        pos += 2 * bitmap_bytes
                    if code in (_DENSE_COL, _MIXED_COL):
                        dtype = _KIND_DTYPES[kind]
                        nbytes = n * dtype.itemsize
                        if pos + nbytes > size:
                            raise _Torn()
                        batch.values[name] = np.frombuffer(
                            raw, dtype, n, pos
                        )
                        pos += nbytes
            except _Torn:
                torn = True
                break
            for name in columns:
                if batch.kinds.get(name) == _KIND_STR \
                        and name in batch.values:
                    ids = batch.values[name]
                    if ids.size and int(ids.max()) >= len(table):
                        raise ResultStoreError(
                            f"{dat}: string index past the sidecar table "
                            f"at byte {offset}"
                        )
            batches.append(batch)
            good = pos
            offset = pos
        if torn:
            # Copy every decoded column out of the memmap before
            # truncating the file underneath it.
            for batch in batches:
                batch.values = {k: np.array(v)
                                for k, v in batch.values.items()}
            del raw, buf
            if compact_tail:
                durable.truncate(dat, good)
        return batches

    def _materialize(
        self, columns: List[str], table: List[str], batch: _DecodedBatch
    ) -> List[RunResult]:
        n = batch.n
        spec_cache: Dict[int, Any] = {}

        def str_list(name: str) -> List[Optional[str]]:
            ids = batch.values[name].tolist()
            return [table[i] if i >= 0 else None for i in ids]

        def payload_ids(name: str) -> List[int]:
            if batch.codes.get(name, _NONE_COL) != _DENSE_COL:
                return [-1] * n
            return batch.values[name].tolist()

        hashes = [h.decode("ascii") for h in batch.values["#hash"].tolist()]
        names = str_list("#name")
        spec_ids = payload_ids("#spec")
        trace_ids = payload_ids("#traces")
        overflow_ids = payload_ids("#overflow")

        okeys: List[str] = []
        mkeys: List[str] = []
        olists: List[List[Any]] = []
        mlists: List[List[Any]] = []
        any_mixed = False
        for name in columns:
            if not (name.startswith("o:") or name.startswith("m:")):
                continue
            code = batch.codes.get(name, _ABSENT_COL)
            if code == _ABSENT_COL:
                continue
            kind = batch.kinds[name]
            if code == _NONE_COL:
                values: List[Any] = [None] * n
            else:
                if kind == _KIND_STR:
                    values = str_list(name)
                elif kind == _KIND_BOOL:
                    values = batch.values[name].astype(np.bool_).tolist()
                else:
                    values = batch.values[name].tolist()
                if code == _MIXED_COL:
                    any_mixed = True
                    present = batch.present[name]
                    notnone = batch.notnone[name]
                    for i in range(n):
                        if not present[i]:
                            values[i] = _ABSENT
                        elif not notnone[i]:
                            values[i] = None
            if name.startswith("o:"):
                okeys.append(name[2:])
                olists.append(values)
            else:
                mkeys.append(name[2:])
                mlists.append(values)

        orows = zip(*olists) if olists else iter(() for _ in range(n))
        mrows = zip(*mlists) if mlists else iter(() for _ in range(n))
        results: List[RunResult] = []
        for i, (otup, mtup) in enumerate(zip(orows, mrows)):
            oid = overflow_ids[i]
            if oid >= 0:
                results.append(RunResult.from_record(json.loads(table[oid])))
                continue
            if any_mixed:
                ov = {k: v for k, v in zip(okeys, otup) if v is not _ABSENT}
                mv = {k: v for k, v in zip(mkeys, mtup) if v is not _ABSENT}
            else:
                ov = dict(zip(okeys, otup))
                mv = dict(zip(mkeys, mtup))
            spec = None
            sid = spec_ids[i]
            if sid >= 0:
                if sid in spec_cache:
                    spec = spec_cache[sid]
                else:
                    spec = _parse_spec(table[sid])
                    spec_cache[sid] = spec
            tid = trace_ids[i]
            traces = json.loads(table[tid]) if tid >= 0 else None
            results.append(RunResult(
                spec_hash=hashes[i], name=names[i], overrides=ov,
                metrics=mv, traces=traces, spec=spec,
            ))
        return results

    # -- the StoreBackend contract ---------------------------------------

    def load(self) -> List[RunResult]:
        if not os.path.isdir(self.path):
            return []
        results: List[RunResult] = []
        with self._lock:
            for columns, table, batch in self._batches(compact_tail=True):
                results.extend(self._materialize(columns, table, batch))
        return results

    def _read_rows(self) -> List[RunResult]:
        return self.load()

    def _replace(self, results: Sequence[RunResult]) -> None:
        """Write ``results`` as one new base shard, then unlink the old
        shards.

        The base shard's sidecar lands first; its data file is renamed
        into place whole, which is when the shard becomes visible, so a
        failure before that leaves the old shards as they were.  A crash
        between the rename and the unlinks leaves both, and load reads
        from the newest base shard on.
        """
        stale = self._shard_paths()
        if results:
            self._fault_gate(results)
        shard = self._next_shard(self._batch_columns(results))
        fresh: List[str] = []
        frame = self._encode_batch(shard, results, fresh) if results else b""
        durable.replace(
            shard.sidecar,
            self._shard_header(shard.columns, base=True)
            + durable.jsonl(fresh),
        )
        durable.replace(shard.dat, frame)
        self._active = None
        self._unlink(stale)

    @staticmethod
    def _unlink(shards: Sequence[Tuple[str, str]]) -> None:
        # Data file first: a sidecar without one is ignored.
        for dat, sidecar in shards:
            os.unlink(dat)
            os.unlink(sidecar)

    # -- vectorized shard-merge ingest -----------------------------------

    def can_bulk_merge(self, shards: Sequence[str]) -> bool:
        return all(os.path.isdir(s) for s in shards)

    def bulk_merge(self, shards: Sequence[str]) -> int:
        """Fold columnar shard stores in by moving column blocks.

        Hash dedupe (against rows already here and across/within
        shards, first writer wins) runs over the fixed-width hash
        column as a hash-set membership sweep — sorted set operations
        (``np.isin``) lose to a plain set here because S64 comparisons
        pay a memcmp per element per sort level.  Surviving rows are
        copied column-by-column with ``np.compress`` and appended as
        new record batches; no row is ever materialized into Python —
        dedupe seeds from this store's own hash columns — which is what
        makes fleet-scale ingest an order of magnitude faster than
        row-wise JSONL merging.  Returns the number of rows absorbed;
        the caller reloads lazily when queried.
        """
        absorbed = 0
        with self._lock:
            seen: set = set()
            # Seed dedupe from our own hash columns — and compact any
            # torn tail first, because new frames append at file end.
            for _columns, _table, batch in self._batches(compact_tail=True):
                seen.update(batch.values["#hash"].tolist())
            for shard_path in shards:
                other = ColumnarBackend(os.fspath(shard_path))
                with other._lock:
                    for columns, table, batch in other._batches(
                        compact_tail=False
                    ):
                        hashes = batch.values["#hash"].tolist()
                        bmask = np.empty(batch.n, dtype=bool)
                        add = seen.add
                        for i, h in enumerate(hashes):
                            if h in seen:
                                bmask[i] = False
                            else:
                                bmask[i] = True
                                add(h)
                        if not bmask.any():
                            continue
                        if bmask.all():
                            kept = batch
                        else:
                            kept = self._compress_batch(batch, bmask)
                        self._append_frame(
                            columns,
                            lambda shard, fresh: self._remap_frame(
                                shard, fresh, columns, table, kept
                            ),
                        )
                        absorbed += kept.n
        return absorbed

    @staticmethod
    def _compress_batch(batch: _DecodedBatch,
                        mask: np.ndarray) -> _DecodedBatch:
        kept = _DecodedBatch(int(mask.sum()))
        kept.codes = dict(batch.codes)
        kept.kinds = dict(batch.kinds)
        kept.values = {k: np.compress(mask, v)
                       for k, v in batch.values.items()}
        kept.present = {k: np.compress(mask, v)
                        for k, v in batch.present.items()}
        kept.notnone = {k: np.compress(mask, v)
                        for k, v in batch.notnone.items()}
        return kept

    def _remap_frame(
        self, shard: _Shard, fresh: List[str], columns: List[str],
        table: List[str], batch: _DecodedBatch,
    ) -> bytes:
        """The frame of an already-decoded batch in ``shard``'s layout;
        remaps string ids from the source shard's table into ours."""
        remap: Optional[np.ndarray] = None
        used = set()
        for name in columns:
            if batch.kinds.get(name) == _KIND_STR and name in batch.values:
                used.update(
                    int(i) for i in np.unique(batch.values[name]) if i >= 0
                )
        if used:
            remap = np.full(max(used) + 1, -1, np.int32)
            for i in sorted(used):
                remap[i] = self._intern(shard, table[i], fresh)

        encoded: Dict[str, Tuple] = {}
        for name, code in batch.codes.items():
            kind = batch.kinds[name]
            data = batch.values.get(name)
            if kind == _KIND_STR and remap is not None and data is not None:
                data = np.where(
                    data >= 0, remap[np.maximum(data, 0)], np.int32(-1),
                ).astype(np.int32)
            encoded[name] = (code, kind, data, batch.present.get(name),
                             batch.notnone.get(name))
        return _frame(batch.n, shard.columns, encoded)


class _Torn(Exception):
    """Internal: the final record batch ends before its blocks do."""


def _parse_spec(payload: str) -> Optional[Any]:
    """Revalidate an embedded spec payload; degrade to None like
    :meth:`RunResult.from_record` does."""
    from repro.errors import SpecError
    from repro.spec.specs import ScenarioSpec

    try:
        return ScenarioSpec.from_dict(json.loads(payload))
    except (SpecError, json.JSONDecodeError):
        return None


def make_backend(path: Optional[PathLike]) -> StoreBackend:
    """The backend a store path names: its format follows the path.

    An existing directory is columnar and an existing file is JSONL,
    whatever their names; a new path is columnar only with a
    ``.colstore`` suffix.  No path keeps the store in memory.
    """
    if path is None:
        return MemoryBackend()
    path = os.fspath(path)
    if os.path.isdir(path) or (
        not os.path.exists(path) and path.endswith(COLUMNAR_SUFFIX)
    ):
        return ColumnarBackend(path)
    return JsonlBackend(path)
