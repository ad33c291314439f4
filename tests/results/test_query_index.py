"""The store's query index answers exactly as a full scan of its rows.

``best``, ``pareto_from_store``, ``series_from_store``, ``columns()``
and the failed count read views the store extends as rows land and
drops on every other change.  Seeded random sequences of store
operations run on every backend; after each step every answer,
including the text of the skip warnings, must equal the full-scan
reference over ``list(store)``.
"""

import random
import sys
import threading
import time
import warnings

import pytest

from repro import obs
from repro.analysis.crossover import series_from_store
from repro.analysis.pareto import pareto_from_store
from repro.errors import ConfigurationError, ResultStoreError
from repro.results import ResultStore, RunResult
from repro.results.metrics import empty_metrics, result_columns
from repro.results.store import MAX_QUERY_VIEWS, rankable_results

BACKENDS = {"memory": None, "jsonl": ".jsonl"}

#: Small value pools, so rows tie on x and metric values.
XS = (1.0, 2.0, 2.0, 3.0, 4.0, float("nan"))
ENERGIES = (0.5, 1.0, 1.0, 2.0, 3.0, float("nan"), float("inf"), None)
AVAILABILITIES = (0.1, 0.5, 0.5, 0.9, None)


# -- the full-scan reference ------------------------------------------------


def ref_best(rows, metric, minimize):
    candidates = rankable_results(rows, (metric,), describe=f"best({metric!r})")
    if not candidates:
        raise ResultStoreError(f"no stored result recorded {metric!r}")
    return (min if minimize else max)(candidates, key=lambda r: r[metric])


def ref_pareto(rows, cost, benefit, maximize_benefit):
    candidates = rankable_results(
        rows, (cost, benefit),
        describe=f"pareto_from_store({cost!r}, {benefit!r})",
    )
    if not candidates:
        raise ConfigurationError(
            f"no stored result records both {cost!r} and {benefit!r}"
        )
    sign = 1.0 if maximize_benefit else -1.0
    ordered = sorted(
        candidates, key=lambda r: (float(r[cost]), -sign * float(r[benefit]))
    )
    frontier, best = [], float("-inf")
    for result in ordered:
        value = sign * float(result[benefit])
        if value > best:
            frontier.append(result)
            best = value
    return frontier


def ref_series(rows, x, y, **filters):
    missing = object()
    picked = [
        r for r in rows
        if not any(r.get(k, missing) != v for k, v in filters.items())
        and r.get(x) is not None and r.get(y) is not None
    ]
    picked.sort(key=lambda r: float(r[x]))
    return ([float(r[x]) for r in picked], [float(r[y]) for r in picked],
            picked)


def ref_columns(rows):
    keys = []
    for result in rows:
        for key in result.overrides:
            if key not in keys:
                keys.append(key)
    return keys + result_columns()


# -- comparing answers ------------------------------------------------------


def outcome(fn):
    """``fn()``'s answer (or exception) and its warning texts, comparable."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            answer = comparable(fn())
        except (ResultStoreError, ConfigurationError) as error:
            answer = (type(error).__name__, str(error))
    return answer, [str(w.message) for w in caught]


def comparable(answer):
    if isinstance(answer, RunResult):
        return answer.spec_hash
    if isinstance(answer, tuple):  # a series
        xs, ys, rows = answer
        return ([repr(v) for v in xs], [repr(v) for v in ys],
                [r.spec_hash for r in rows])
    if isinstance(answer, list) and answer and \
            isinstance(answer[0], RunResult):
        return [r.spec_hash for r in answer]
    return answer


QUERIES = (
    ("best min", lambda s: s.best("energy_total"),
     lambda rows: ref_best(rows, "energy_total", True)),
    ("best max", lambda s: s.best("energy_total", minimize=False),
     lambda rows: ref_best(rows, "energy_total", False)),
    ("best override", lambda s: s.best("x", minimize=False),
     lambda rows: ref_best(rows, "x", False)),
    ("pareto", lambda s: pareto_from_store(s, "energy_total", "availability"),
     lambda rows: ref_pareto(rows, "energy_total", "availability", True)),
    ("pareto min-min",
     lambda s: pareto_from_store(s, "energy_total", "availability",
                                 maximize_benefit=False),
     lambda rows: ref_pareto(rows, "energy_total", "availability", False)),
    ("series", lambda s: series_from_store(s, "x", "energy_total"),
     lambda rows: ref_series(rows, "x", "energy_total")),
    ("series without NaN x",
     lambda s: series_from_store(s, "availability", "energy_total"),
     lambda rows: ref_series(rows, "availability", "energy_total")),
    ("series by name",
     lambda s: series_from_store(s, "x", "availability", name="a"),
     lambda rows: ref_series(rows, "x", "availability", name="a")),
    ("columns", lambda s: s.columns(), ref_columns),
    ("failed", lambda s: s.count_failed(),
     lambda rows: sum(1 for r in rows if not r.ok)),
)


def check_answers(store, step):
    rows = list(store)
    assert len(rows) == len(store)
    assert all(store.get(r.spec_hash) is r for r in rows), step
    for label, query, reference in QUERIES:
        assert outcome(lambda: query(store)) == \
            outcome(lambda: reference(rows)), f"{label} after {step}"


# -- random operation sequences ---------------------------------------------


def random_row(rng, spec_hash):
    name = rng.choice("ab")
    overrides = {"x": rng.choice(XS)}
    if rng.random() < 0.2:
        overrides["fidelity"] = 0.5
    if rng.random() < 0.3:
        overrides["capacitance"] = rng.choice((1e-5, 2e-5))
    if rng.random() < 0.15:
        return RunResult.failed("ConfigurationError: infeasible",
                                spec_hash=spec_hash, name=name,
                                overrides=overrides)
    metrics = empty_metrics()
    metrics["energy_total"] = rng.choice(ENERGIES)
    metrics["availability"] = rng.choice(AVAILABILITIES)
    return RunResult(spec_hash=spec_hash, name=name, overrides=overrides,
                     metrics=metrics)


class Sequence:
    """One seeded sequence of store operations on one backend."""

    def __init__(self, backend, tmp_path, seed):
        self.rng = random.Random(f"query-index/{backend}/{seed}")
        self.suffix = BACKENDS[backend]
        self.tmp_path = tmp_path
        self.path = (tmp_path / f"store{self.suffix}"
                     if self.suffix else None)
        self.store = ResultStore(self.path)
        self.hashes = 0
        self.shards = 0

    def fresh_hash(self):
        self.hashes += 1
        return f"h{self.hashes}"

    def known(self):
        return self.rng.choice(list(self.store))

    def step(self):
        rng, store = self.rng, self.store
        ops = ["add", "add", "add", "identical", "overwrite", "batch",
               "merge"]
        if self.path is not None:
            ops += ["reopen", "merge_shards", "stranger"]
        op = rng.choice(ops) if len(store) else "add"
        if op == "add":
            store.add(random_row(rng, self.fresh_hash()))
        elif op == "identical":
            row = self.known()
            store.add(RunResult.from_record(row.to_record()),
                      overwrite=rng.random() < 0.5)
        elif op == "overwrite":
            store.add(random_row(rng, self.known().spec_hash),
                      overwrite=True)
        elif op == "batch":
            with store.batch():
                for _ in range(rng.randint(1, 4)):
                    if rng.random() < 0.3:
                        store.add(random_row(rng, self.known().spec_hash),
                                  overwrite=True)
                    else:
                        store.add(random_row(rng, self.fresh_hash()))
        elif op == "merge":
            other = ResultStore()
            for _ in range(rng.randint(1, 4)):
                spec_hash = self.known().spec_hash if rng.random() < 0.3 \
                    else self.fresh_hash()
                other.add(random_row(rng, spec_hash))
            store.merge(other)
        elif op == "reopen":
            self.store = ResultStore(self.path)
        elif op == "merge_shards":
            self.shards += 1
            shard = self.tmp_path / f"shard{self.shards}{self.suffix}"
            writer = ResultStore(shard)
            for _ in range(rng.randint(1, 4)):
                writer.add(random_row(rng, self.fresh_hash()))
            self.store = ResultStore.merge_shards([shard], output=self.path)
        elif op == "stranger":
            # Another writer appends; the overwrite's compaction folds
            # its rows into this handle.
            ResultStore(self.path).add(random_row(rng, self.fresh_hash()))
            store.add(random_row(rng, self.known().spec_hash),
                      overwrite=True)
        return op


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", range(3))
def test_every_answer_equals_the_full_scan(backend, seed, tmp_path):
    sequence = Sequence(backend, tmp_path, seed)
    for index in range(30):
        op = sequence.step()
        check_answers(sequence.store, f"step {index} ({op})")


def test_an_unhashable_filter_is_answered_without_a_view():
    rng = random.Random("query-index/unhashable")
    store = ResultStore()
    for i in range(10):
        store.add(random_row(rng, f"h{i}"))
    assert comparable(series_from_store(store, "x", "energy_total",
                                        name=["a"])) == ([], [], [])
    assert not any(key[0] == "series" for key in store._views)


def test_series_order_with_nan_x_matches_a_stable_sort():
    """Past timsort's insertion-sort size, NaN x values order rows in a
    way no per-row insertion reproduces; the view re-sorts instead."""
    rng = random.Random("query-index/nan-series")
    store = ResultStore()
    for i in range(200):
        store.add(random_row(rng, f"h{i}"))
        check_answers(store, f"row {i}")


def test_views_extend_over_appends_and_rebuild_after_other_changes():
    def rebuilds():
        return {
            reason: obs.counter(
                "repro_store_query_view_rebuilds_total", reason=reason
            ).value
            for reason in ("new", "overwrite")
        }

    rng = random.Random("query-index/rebuilds")
    store = ResultStore()
    for i in range(5):
        store.add(random_row(rng, f"h{i}"))
    before = rebuilds()
    store.columns()
    store.add(random_row(rng, "h5"))
    store.columns()
    after = rebuilds()
    assert after["new"] - before["new"] == 1
    assert after["overwrite"] == before["overwrite"]
    store.add(random_row(rng, "h0"), overwrite=True)
    store.columns()
    assert rebuilds()["overwrite"] - after["overwrite"] == 1
    check_answers(store, "overwrite")


def test_view_count_is_capped():
    store = ResultStore()
    store.add(RunResult(spec_hash="h1", name="a", overrides={"x": 1.0},
                        metrics=dict(empty_metrics(), energy_total=1.0)))
    for i in range(MAX_QUERY_VIEWS + 10):
        with pytest.raises(ResultStoreError):
            store.best(f"metric{i}")
    assert len(store._views) == MAX_QUERY_VIEWS
    assert store.best("energy_total").spec_hash == "h1"


def test_a_failing_view_is_not_kept():
    """A series over a non-numeric column raises as a full scan would,
    on every read, and leaves no half-built view behind."""
    store = ResultStore()
    store.add(RunResult(spec_hash="h1", name="a", overrides={"x": "big"},
                        metrics=dict(empty_metrics(), energy_total=1.0)))
    for _ in range(2):
        with pytest.raises(ValueError):
            series_from_store(store, "x", "energy_total")
    assert not any(key[0] == "series" for key in store._views)


# catch_warnings is not thread-safe: silence the skip warnings up front.
@pytest.mark.filterwarnings("ignore:.*skipped")
def test_queries_see_a_prefix_while_another_thread_adds_rows():
    """One thread evaluates into the store while three query it: no
    call raises, and each answer is the full scan of some prefix."""
    from repro.serve.service import SimulationService

    rng = random.Random("query-index/threads")
    rows = [random_row(rng, f"h{i}") for i in range(300)]
    service = SimulationService(parallel=False)
    queries = (
        ({"best": "energy_total"}, "best",
         lambda prefix: ref_best(prefix, "energy_total", True)),
        ({"pareto": "energy_total,availability"}, "pareto",
         lambda prefix: ref_pareto(prefix, "energy_total", "availability",
                                   True)),
        ({"series": "x,energy_total"}, "series",
         lambda prefix: ref_series(prefix, "x", "energy_total")),
    )
    answers = {field: [] for _, field, _ in queries}
    errors = []
    done = threading.Event()

    def writer():
        try:
            for start in range(0, len(rows), 3):
                with service.store.batch():
                    for row in rows[start:start + 3]:
                        service.store.add(row)
                time.sleep(0.001)  # let the readers see many prefixes
        finally:
            done.set()

    def reader(params, field):
        try:
            while True:
                finished = done.is_set()
                try:
                    body = service.results_query(params)
                except (ResultStoreError, ConfigurationError):
                    body = None  # nothing rankable yet
                if body is not None:
                    answers[field].append((body["rows"], body[field]))
                if finished:
                    return
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(params, field))
        for params, field, _ in queries
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    def as_served(field, expected):
        if field == "best":
            return expected.spec_hash
        if field == "pareto":
            return [(r.overrides, r["energy_total"], r["availability"])
                    for r in expected]
        return [repr(v) for v in expected[0]], [repr(v) for v in expected[1]]

    def served(field, answer):
        if field == "best":
            return answer["spec_hash"]
        if field == "pareto":
            return [(p["overrides"], p["energy_total"], p["availability"])
                    for p in answer]
        return ([repr(v) for v in answer["xs"]],
                [repr(v) for v in answer["ys"]])

    for params, field, reference in queries:
        assert answers[field], field
        expected = {}
        for count, answer in answers[field]:
            if count not in expected:
                expected[count] = as_served(field, reference(rows[:count]))
            assert served(field, answer) == expected[count], (field, count)
        assert len(expected) > 1, f"{field} saw only one prefix"
