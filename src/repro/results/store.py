"""Persistent, mergeable storage for :class:`RunResult` rows.

A :class:`ResultStore` is the query surface of the results pipeline:
spec-hash keyed in memory, persisted through a pluggable
:class:`~repro.results.backends.StoreBackend` so results survive process
exit and interrupted sweeps resume instead of recomputing.  Two durable
backends ship (see :mod:`repro.results.backends`): append-only JSONL
(one record per line — the portable default) and a sharded columnar
format (``.colstore`` directories of numpy column blocks — the
fleet-scale analytics store).  Shards written by separate processes or
machines merge by hash — the sweep grid is the unit of distribution.

Durability model: records are flushed per append (or once per
:meth:`batch`), and a load tolerates a torn tail — the signature of a
process killed mid-write — by dropping it and compacting; corruption
anywhere earlier raises, because silently skipping interior rows would
misreport a sweep as complete.  Every load, append and rewrite holds an
advisory file lock, and compaction re-reads the file under that lock,
so concurrent writers (a live ``repro serve`` plus a CLI merge) never
lose durable rows.

Query index: ``best``, ``columns`` and the analysis queries built on
:meth:`ResultStore.view` (``pareto_from_store``, ``series_from_store``)
read per-query views that each fold in only the rows appended since
they were last read.  Any change other than an append (an overwrite, a
compaction that folds in another writer's rows, a bulk shard merge)
drops every view, and the next read of each rebuilds it from scratch
(counted in ``repro_store_query_view_rebuilds_total{reason}``).  One
re-entrant lock, :attr:`ResultStore.lock`, guards the rows and the
views, so a store shared by a writer thread and query threads (``repro
serve``) answers every query from one consistent prefix of its rows.
"""

from __future__ import annotations

import math
import os
import threading
import time
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional,
    Sequence, Union,
)

from repro import obs
from repro.errors import ResultStoreError
from repro.results.backends import ColumnarBackend, StoreBackend, make_backend
from repro.results.metrics import result_columns
from repro.results.run_result import RunResult, is_worker_crash_error

__all__ = ["ResultStore", "rankable_results"]

PathLike = Union[str, "os.PathLike[str]"]

#: Most query views one store keeps; reading one more evicts the least
#: recently read.  HTTP clients choose the column names views are keyed
#: on, so the index must not grow with the queries it is asked.
MAX_QUERY_VIEWS = 64


class ResultStore:
    """Columnar queries over run results, with pluggable persistence.

    Args:
        path: the backing file (JSONL) or directory (columnar) to load
            from and append to; the path alone picks the format (see
            :func:`~repro.results.backends.make_backend`).  None keeps
            the store purely in memory (the default for one-shot
            sweeps).

    Iteration order is insertion order (load order, then append order),
    so a store round-trips its table layout.
    """

    def __init__(self, path: Optional[PathLike] = None):
        self._backend: StoreBackend = make_backend(path)
        self.path = self._backend.path
        #: Guards the rows, the batch buffer and the query views: hold
        #: it to read several answers from one state while another
        #: thread adds rows.
        self.lock = threading.RLock()
        #: Lazily-loaded row index (hash -> RunResult); None until the
        #: first access so pure block-move operations (columnar shard
        #: merges) never materialize a million Python objects.
        self._rows: Optional[Dict[str, RunResult]] = None
        #: The same rows in insertion order; query views remember how
        #: far into it they have read.
        self._order: List[RunResult] = []
        #: Query key -> ``[view, rows read]``, least recently read
        #: first; a dropped view leaves the reason it was dropped.
        self._views: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Buffered rows while a :meth:`batch` is open, else None.
        self._pending: Optional[List[RunResult]] = None
        #: True when an overwrite happened mid-batch: compaction is
        #: deferred to batch exit (one rewrite, not one per overwrite).
        self._dirty = False
        if self._backend.ephemeral:
            self._rows = {}

    @property
    def backend(self) -> str:
        """The persistence backend name: memory, jsonl or columnar."""
        return self._backend.name

    @property
    def _results(self) -> Dict[str, RunResult]:
        """The row index, loading from the backend on first access."""
        if self._rows is None:
            with self.lock:
                if self._rows is None:
                    self._load()
        return self._rows

    @property
    def _ordered(self) -> List[RunResult]:
        """The rows in insertion order (loading like :attr:`_results`)."""
        self._results
        return self._order

    def _load(self) -> None:
        t0 = time.monotonic()
        stale_crashes = 0
        with obs.span("store.load", backend=self.backend) as lspan:
            rows: Dict[str, RunResult] = {}
            for result in self._backend.load():
                if is_worker_crash_error(result.error):
                    # Transient worker-crash rows (left behind by
                    # older stores; the runner no longer persists
                    # them) would be skipped on every resume but
                    # grow the file forever — drop them here and
                    # compact below.
                    stale_crashes += 1
                    continue
                rows.setdefault(result.spec_hash, result)
            self._rows = rows
            self._order = list(rows.values())
            lspan.annotate(rows=len(rows))
        obs.histogram(
            "repro_store_load_seconds", backend=self.backend
        ).observe(time.monotonic() - t0)
        obs.counter(
            "repro_store_rows_loaded_total", backend=self.backend
        ).inc(len(rows))
        if stale_crashes:
            obs.counter(
                "repro_store_crash_rows_dropped_total",
                backend=self.backend,
            ).inc(stale_crashes)
            self._rewrite()

    def _drop_views(self, reason: str) -> None:
        """Forget every view after a change that is not an append."""
        self._views = OrderedDict.fromkeys(self._views, reason)

    # -- persistence -----------------------------------------------------

    def _rewrite(self) -> None:
        """Compact the backing store to the in-memory records.

        The backend re-reads the file under its lock and preserves any
        durable rows another process appended since our load (one per
        hash this store lacks, never a worker-crash row); those
        strangers fold back into the in-memory index so they are not
        recomputed later.  Callers hold :attr:`lock`.
        """
        t0 = time.monotonic()
        rows = self._results
        with obs.span("store.compact", backend=self.backend, rows=len(rows)):
            strangers = self._backend.rewrite(list(self._order))
        for result in strangers:
            rows[result.spec_hash] = result
        self._order.extend(strangers)
        if strangers:
            self._drop_views("compaction")
        obs.counter(
            "repro_store_compactions_total", backend=self.backend
        ).inc()
        obs.histogram(
            "repro_store_compact_seconds", backend=self.backend
        ).observe(time.monotonic() - t0)
        if self._pending is not None:
            # Every in-memory record — including any buffered ones — is
            # now durably on disk; appending the buffer again on batch
            # exit would duplicate rows.
            self._pending.clear()
            self._dirty = False

    @contextmanager
    def batch(self):
        """Buffer appends; one write-and-fsync when the block exits.

        Inside the ``with`` block, :meth:`add` updates the in-memory
        index immediately (lookups and dedupe behave normally) but
        queues the rows instead of paying a write + fsync per row; on
        exit the whole buffer lands in a single append.  Overwrites
        inside a batch defer their compaction to batch exit too — one
        rewrite covers the lot, instead of a full-file rewrite per
        overwritten row (O(n²) on overwrite-heavy batches).  A crash
        mid-flush tears at most the final line (JSONL) or final record
        batch (columnar), which the loader's torn-tail recovery drops —
        earlier rows stay durable.  Nesting is flattening: inner
        batches join the outermost one.  The workhorse of
        sweep/exploration workers, whose per-point fsync used to
        dominate small-grid throughput.
        """
        with self.lock:
            joined = self._backend.ephemeral or self._pending is not None
            if not joined:
                self._pending = []
                self._dirty = False
        if joined:
            yield self
            return
        try:
            yield self
        finally:
            with self.lock:
                self._flush_batch()

    def _flush_batch(self) -> None:
        pending, self._pending = self._pending, None
        dirty, self._dirty = self._dirty, False
        if dirty:
            self._rewrite()
        elif pending:
            # The append (and its fsync) is the batch's one durable
            # write; the histogram therefore measures flush+fsync.
            t0 = time.monotonic()
            with obs.span(
                "store.append", backend=self.backend, rows=len(pending)
            ):
                self._backend.append_many(pending)
            obs.histogram(
                "repro_store_append_seconds", backend=self.backend
            ).observe(time.monotonic() - t0)
            obs.counter(
                "repro_store_rows_appended_total", backend=self.backend
            ).inc(len(pending))

    # -- mutation --------------------------------------------------------

    def add(self, result: RunResult, overwrite: bool = False) -> bool:
        """Insert one result; returns False for an already-known hash.

        ``overwrite=True`` replaces the stored row (and compacts the
        file so the stale record does not shadow-resume later; inside a
        :meth:`batch` the compaction is deferred to batch exit).
        Re-adding a record identical to the stored one is a no-op —
        deterministic re-runs over a populated store cost no I/O.
        """
        with self.lock:
            rows = self._results
            known = rows.get(result.spec_hash)
            if known is not None:
                if not overwrite or known.to_record() == result.to_record():
                    obs.counter(
                        "repro_store_dedupe_hits_total", backend=self.backend
                    ).inc()
                    return False
                rows[result.spec_hash] = result
                self._order = list(rows.values())
                self._drop_views("overwrite")
                if self._backend.ephemeral:
                    return True
                if self._pending is not None:
                    self._dirty = True
                else:
                    self._rewrite()
            else:
                rows[result.spec_hash] = result
                self._order.append(result)
                if self._pending is not None:
                    self._pending.append(result)
                else:
                    self._backend.append(result)
                    obs.counter(
                        "repro_store_rows_appended_total",
                        backend=self.backend,
                    ).inc()
            return True

    def merge(self, other: Union["ResultStore", PathLike]) -> int:
        """Fold another store (or shard path) in; returns rows absorbed.

        First-writer-wins on hash collisions — shards of one sweep hold
        identical rows for identical hashes, so order doesn't matter.
        The absorbed rows land in one batched flush, not one fsync per
        row.
        """
        if not isinstance(other, ResultStore):
            other = ResultStore(other)
        absorbed = 0
        t0 = time.monotonic()
        with obs.span("store.merge", backend=self.backend) as mspan:
            with self.batch():
                for result in other:
                    if self.add(result):
                        absorbed += 1
            mspan.annotate(absorbed=absorbed)
        obs.histogram(
            "repro_store_merge_seconds", backend=self.backend
        ).observe(time.monotonic() - t0)
        obs.counter(
            "repro_store_rows_merged_total", backend=self.backend
        ).inc(absorbed)
        return absorbed

    @classmethod
    def merge_shards(
        cls,
        shards: Iterable[PathLike],
        output: Optional[PathLike] = None,
    ) -> "ResultStore":
        """Combine shard stores (one per worker/machine) into one store.

        This is the fleet ingest path.  When the output store and every
        shard are columnar, rows move as whole column blocks with
        vectorized hash dedupe (``np.isin``) — no per-row Python work —
        which is an order of magnitude faster than row-wise merging at
        million-row scale (see ``benchmarks/perf/perf_store.py``).
        Mixed or JSONL shards fall back to row-wise merge with one
        batched flush per shard.
        """
        shard_paths = [os.fspath(shard) for shard in shards]
        for shard in shard_paths:
            if not os.path.exists(shard):
                raise ResultStoreError(f"shard {shard!r} not found")
        store = cls(output)
        if (
            isinstance(store._backend, ColumnarBackend)
            and store._backend.can_bulk_merge(shard_paths)
        ):
            with obs.span(
                "store.merge", backend=store.backend, bulk=True,
                shards=len(shard_paths),
            ):
                store._backend.bulk_merge(shard_paths)
            # The blocks moved without materializing; drop any loaded
            # index so the next query reads the merged state.
            with store.lock:
                store._rows = None
                store._drop_views("merge")
        else:
            for shard in shard_paths:
                store.merge(shard)
        return store

    # -- lookup ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.results())

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._results

    def get(self, spec_hash: str) -> Optional[RunResult]:
        """The stored result for a spec hash, or None."""
        return self._results.get(spec_hash)

    def results(self) -> List[RunResult]:
        """Every stored result, in insertion order."""
        with self.lock:
            return list(self._ordered)

    # -- queries ---------------------------------------------------------

    def view(self, key: Hashable, make: Callable[[], Any]) -> Any:
        """The answer of the query view ``key``, brought up to date.

        ``make()`` builds an empty view: an object with ``extend(rows)``,
        which folds rows in (in insertion order), and ``answer()``,
        which returns a snapshot the caller may keep.  The store keeps
        up to :data:`MAX_QUERY_VIEWS` views and extends each only over
        the rows appended since it was last read; an unhashable key
        gets a view built for this one answer.  A view whose
        ``extend`` raises is discarded, so the next read rebuilds it
        and raises again, as a full scan would.
        """
        with self.lock:
            rows = self._ordered
            try:
                entry = self._views.pop(key, None)
            except TypeError:
                view = make()
                view.extend(rows)
                return view.answer()
            if not isinstance(entry, list):
                obs.counter(
                    "repro_store_query_view_rebuilds_total",
                    reason=entry or "new",
                ).inc()
                entry = [make(), 0]
            view, seen = entry
            if seen < len(rows):
                # Popped above: a view whose extend raises is not kept.
                view.extend(rows[seen:])
                entry[1] = len(rows)
            self._views[key] = entry
            if len(self._views) > MAX_QUERY_VIEWS:
                self._views.popitem(last=False)
            return view.answer()

    def select(
        self,
        where: Optional[Callable[[RunResult], bool]] = None,
        **equals: Any,
    ) -> List[RunResult]:
        """Rows matching a predicate and/or column equality filters.

        ``store.select(name="crossover-hibernus")`` or
        ``store.select(lambda r: r.ok and r["completed"])``.
        """
        return [
            result for result in self
            if (where is None or where(result)) and matches(result, equals)
        ]

    def ok(self) -> List[RunResult]:
        """Rows that ran without a pipeline error."""
        return [result for result in self if result.ok]

    def values(
        self, column: str, where: Optional[Callable[[RunResult], bool]] = None
    ) -> List[Any]:
        """One column across (optionally filtered) rows, insertion order."""
        return [result.get(column) for result in self.select(where)]

    def best(self, metric: str, minimize: bool = True) -> RunResult:
        """The row optimising ``metric`` among rows that recorded it.

        Error rows, rows whose value is non-finite (NaN/inf), and
        sub-full-fidelity screening rows are skipped with a warning
        instead of corrupting the ranking — an error row still carries
        its override columns, a NaN makes ``min``/``max``
        order-dependent, and a shortened-horizon row accumulates less
        of everything (see :func:`rankable_results`).  Filter with
        :meth:`select` to rank such rows deliberately.
        """
        lowest, highest, skipped = self.view(
            ("best", metric), lambda: _Extremes(metric)
        )
        warn_skipped(skipped, f"best({metric!r})", "row", stacklevel=2)
        best = lowest if minimize else highest
        if best is None:
            raise ResultStoreError(f"no stored result recorded {metric!r}")
        return best

    def count_failed(self) -> int:
        """How many rows recorded a pipeline error."""
        return self.view(("summary",), _Summary)[1]

    # -- tabular views ---------------------------------------------------

    def override_keys(self) -> List[str]:
        """Override columns in first-seen order across the store."""
        return self.view(("summary",), _Summary)[0]

    def columns(self) -> List[str]:
        """Table layout: override columns then the registry columns."""
        return self.override_keys() + result_columns()

    def rows(self) -> List[List[Any]]:
        """One row per result, matching :meth:`columns`."""
        with self.lock:
            columns, results = self.columns(), self.results()
        return [[result.get(column) for column in columns]
                for result in results]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Each result as one flat record (overrides merged with metrics)."""
        return [dict(r.overrides, **r.metrics) for r in self]

    def table(self) -> str:
        """The store as an aligned text table (see ``repro results``)."""
        from repro.analysis.report import format_cell, format_table

        with self.lock:
            columns, rows = self.columns(), self.rows()
        return format_table(
            columns, [[format_cell(cell) for cell in row] for row in rows]
        )


class _Extremes:
    """The ``best(metric)`` view: the first row with the lowest and the
    first with the highest value (as ``min``/``max`` over the rankable
    rows pick them), plus how many rows were skipped."""

    def __init__(self, metric: str):
        self.columns = (metric,)
        self.lowest: Optional[RunResult] = None
        self.highest: Optional[RunResult] = None
        self.low = self.high = 0.0
        self.skipped = 0

    def extend(self, rows: Sequence[RunResult]) -> None:
        metric = self.columns[0]
        for result in rows:
            status = rank_status(result, self.columns)
            if status is None:
                continue
            if not status:
                self.skipped += 1
                continue
            value = result[metric]
            if self.lowest is None:
                self.lowest = self.highest = result
                self.low = self.high = value
            elif value < self.low:
                self.lowest, self.low = result, value
            elif value > self.high:
                self.highest, self.high = result, value

    def answer(self) -> "tuple[Optional[RunResult], Optional[RunResult], int]":
        return self.lowest, self.highest, self.skipped


class _Summary:
    """The override columns in first-seen order, and the failed count."""

    def __init__(self) -> None:
        self.keys: Dict[str, None] = {}
        self.failed = 0

    def extend(self, rows: Sequence[RunResult]) -> None:
        for result in rows:
            self.failed += not result.ok
            for key in result.overrides:
                self.keys.setdefault(key)

    def answer(self) -> "tuple[List[str], int]":
        return list(self.keys), self.failed


def matches(result: RunResult, equals: Dict[str, Any]) -> bool:
    """True when every ``column=value`` filter of :meth:`ResultStore.select`
    holds for ``result`` (a row lacking a column never matches)."""
    return not any(result.get(k, _MISSING) != v for k, v in equals.items())


def _is_screening_row(result: RunResult) -> bool:
    """True for rows evaluated below full fidelity.

    The exploration driver stamps sub-full-fidelity evaluations with a
    ``fidelity`` override; their accumulated metrics (energy, time,
    cycles) cover a shortened horizon, so ranking them against
    full-horizon rows would systematically crown a screening artifact.
    """
    fidelity = result.overrides.get("fidelity")
    return (
        isinstance(fidelity, (int, float))
        and not isinstance(fidelity, bool)
        and fidelity < 1.0
    )


def rankable_results(
    results: Iterable[RunResult],
    columns: "tuple[str, ...]",
    *,
    describe: str,
    noun: str = "row",
) -> List[RunResult]:
    """The rows usable for ranking on ``columns``; warns about the rest.

    The one skip policy every ranking query (`best`, `--pareto`)
    shares.  Usable rows ran clean at full fidelity and recorded a
    finite value in every column.  Skipped **with a warning** (they
    could otherwise corrupt a ranking): error rows that carry any
    queried column via their overrides, non-finite (NaN/inf) or
    non-numeric values, and sub-full-fidelity screening rows.  Rows
    simply missing a column (not applicable, including error rows that
    recorded none of them) stay silent — matching the historical
    "among rows that recorded it" contract without warning about
    unrelated failures.  ``describe`` labels the warning with the
    originating query.
    """
    candidates: List[RunResult] = []
    skipped = 0
    for result in results:
        status = rank_status(result, columns)
        if status:
            candidates.append(result)
        elif status is not None:
            skipped += 1
    warn_skipped(skipped, describe, noun, stacklevel=3)
    return candidates


def rank_status(
    result: RunResult, columns: "tuple[str, ...]"
) -> Optional[bool]:
    """The per-row rule of :func:`rankable_results` and the ranking
    views: True when ``result`` ranks on ``columns``, False when it is
    skipped with a warning, None when it silently lacks a column."""
    values = [result.get(column) for column in columns]
    if not result.ok:
        return False if any(value is not None for value in values) else None
    if any(value is None for value in values):
        return None
    if _is_screening_row(result):
        return False
    return all(
        isinstance(value, (int, float)) and math.isfinite(float(value))
        for value in values
    )


def warn_skipped(
    skipped: int, describe: str, noun: str = "row", stacklevel: int = 2
) -> None:
    """The ranking queries' warning about ``skipped`` unusable rows
    (none when zero); ``stacklevel`` counts from the caller."""
    if skipped:
        warnings.warn(
            f"{describe}: skipped {skipped} {noun}(s) with errors, "
            "sub-full fidelity, or non-finite values",
            stacklevel=stacklevel + 1,
        )


class _Missing:
    def __eq__(self, other: Any) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()
