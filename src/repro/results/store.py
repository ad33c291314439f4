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
"""

from __future__ import annotations

import math
import os
import time
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro import obs
from repro.errors import ResultStoreError
from repro.results.backends import ColumnarBackend, StoreBackend, make_backend
from repro.results.metrics import result_columns
from repro.results.run_result import RunResult, is_worker_crash_error

__all__ = ["ResultStore", "rankable_results"]

PathLike = Union[str, "os.PathLike[str]"]


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
        #: Lazily-loaded row index (hash -> RunResult); None until the
        #: first access so pure block-move operations (columnar shard
        #: merges) never materialize a million Python objects.
        self._rows: Optional[Dict[str, RunResult]] = None
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
        return self._rows

    # -- persistence -----------------------------------------------------

    def _rewrite(self) -> None:
        """Compact the backing store to the in-memory records.

        The backend re-reads the file under its lock and preserves any
        durable rows another process appended since our load; those
        strangers fold back into the in-memory index so they are not
        recomputed later.  Stranger worker-crash rows are not folded
        back (they are transient; the next load of this store drops
        and compacts them).
        """
        t0 = time.monotonic()
        with obs.span(
            "store.compact", backend=self.backend, rows=len(self._results)
        ):
            for result in self._backend.rewrite(list(self._results.values())):
                if is_worker_crash_error(result.error):
                    continue
                self._results.setdefault(result.spec_hash, result)
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
        if self._backend.ephemeral or self._pending is not None:
            yield self
            return
        self._pending = []
        self._dirty = False
        try:
            yield self
        finally:
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
        known = self._results.get(result.spec_hash)
        if known is not None:
            if not overwrite or known.to_record() == result.to_record():
                obs.counter(
                    "repro_store_dedupe_hits_total", backend=self.backend
                ).inc()
                return False
            self._results[result.spec_hash] = result
            if self._backend.ephemeral:
                return True
            if self._pending is not None:
                self._dirty = True
            else:
                self._rewrite()
        else:
            self._results[result.spec_hash] = result
            if self._pending is not None:
                self._pending.append(result)
            else:
                self._backend.append(result)
                obs.counter(
                    "repro_store_rows_appended_total", backend=self.backend
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
            store._rows = None
        else:
            for shard in shard_paths:
                store.merge(shard)
        return store

    # -- lookup ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self._results.values())

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._results

    def get(self, spec_hash: str) -> Optional[RunResult]:
        """The stored result for a spec hash, or None."""
        return self._results.get(spec_hash)

    def results(self) -> List[RunResult]:
        """Every stored result, in insertion order."""
        return list(self._results.values())

    # -- queries ---------------------------------------------------------

    def select(
        self,
        where: Optional[Callable[[RunResult], bool]] = None,
        **equals: Any,
    ) -> List[RunResult]:
        """Rows matching a predicate and/or column equality filters.

        ``store.select(name="crossover-hibernus")`` or
        ``store.select(lambda r: r.ok and r["completed"])``.
        """
        selected = []
        for result in self:
            if where is not None and not where(result):
                continue
            if any(result.get(k, _MISSING) != v for k, v in equals.items()):
                continue
            selected.append(result)
        return selected

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
        candidates = rankable_results(self, (metric,), describe=f"best({metric!r})")
        if not candidates:
            raise ResultStoreError(f"no stored result recorded {metric!r}")
        return (min if minimize else max)(candidates, key=lambda r: r[metric])

    # -- tabular views ---------------------------------------------------

    def override_keys(self) -> List[str]:
        """Override columns in first-seen order across the store."""
        keys: List[str] = []
        for result in self:
            for key in result.overrides:
                if key not in keys:
                    keys.append(key)
        return keys

    def columns(self) -> List[str]:
        """Table layout: override columns then the registry columns."""
        return self.override_keys() + result_columns()

    def rows(self) -> List[List[Any]]:
        """One row per result, matching :meth:`columns`."""
        columns = self.columns()
        return [[result.get(column) for column in columns] for result in self]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Each result as one flat record (overrides merged with metrics)."""
        return [dict(r.overrides, **r.metrics) for r in self]

    def table(self, floatfmt: str = "{:.4g}") -> str:
        """The store as an aligned text table (see ``repro results``)."""
        from repro.analysis.report import format_cell, format_table

        return format_table(
            self.columns(),
            [[format_cell(cell, floatfmt) for cell in row]
             for row in self.rows()],
        )


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
    def rankable(value: Any) -> bool:
        return isinstance(value, (int, float)) and math.isfinite(float(value))

    candidates: List[RunResult] = []
    skipped = 0
    for result in results:
        values = [result.get(column) for column in columns]
        if not result.ok:
            if any(value is not None for value in values):
                skipped += 1
        elif any(value is None for value in values):
            continue
        elif _is_screening_row(result):
            skipped += 1
        elif all(rankable(value) for value in values):
            candidates.append(result)
        else:
            skipped += 1
    if skipped:
        warnings.warn(
            f"{describe}: skipped {skipped} {noun}(s) with errors, "
            "sub-full fidelity, or non-finite values",
            stacklevel=3,
        )
    return candidates


class _Missing:
    def __eq__(self, other: Any) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()
