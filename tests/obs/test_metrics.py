"""The metrics registry: instruments, snapshots, renderings, deltas."""

import math
import re

import pytest

from repro import obs
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry

#: A Prometheus exposition sample line: name, optional labels, value.
_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"'
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    rf"(\{{{_LABEL}(,{_LABEL})*\}})?"
    r" (NaN|[+-]?Inf|[-+0-9.eE]+)$"
)


def test_counter_gauge_histogram_basics():
    counter = obs.counter("repro_test_total", kind="a")
    counter.inc()
    counter.inc(2.0)
    assert counter.value == 3.0

    gauge = obs.gauge("repro_test_depth")
    gauge.set(5)
    gauge.dec()
    assert gauge.value == 4.0

    hist = obs.histogram("repro_test_seconds")
    hist.observe(0.0007)
    hist.observe(100.0)
    assert hist.count == 2
    assert hist.sum == pytest.approx(100.0007)
    buckets = hist.bucket_counts()
    assert len(buckets) == len(DEFAULT_BUCKETS) + 1
    assert buckets[1] == 1  # 0.0007 lands in the 0.001 bucket
    assert buckets[-1] == 1  # 100.0 overflows to +Inf


def test_instruments_are_get_or_create_per_label_set():
    a = obs.counter("repro_test_total", path="x")
    b = obs.counter("repro_test_total", path="x")
    c = obs.counter("repro_test_total", path="y")
    assert a is b and a is not c
    a.inc()
    assert b.value == 1.0 and c.value == 0.0


def test_label_order_and_value_types_resolve_one_instrument():
    """A lookup by labels as passed finds the instrument the sorted,
    stringified labels name: any keyword order, ``1`` and ``"1"`` alike,
    ``1.0`` and ``True`` apart, unhashable values too."""
    registry = MetricsRegistry()
    a = registry.counter("repro_test_total", domain="chunk", mode="c")
    for _ in range(2):  # the second round hits the passed-labels keys
        assert registry.counter("repro_test_total", mode="c",
                                domain="chunk") is a
        assert registry.counter("repro_test_total", domain="chunk",
                                mode="c") is a
    one = registry.counter("repro_test_total", n=1)
    assert registry.counter("repro_test_total", n="1") is one
    assert registry.counter("repro_test_total", n=1) is one
    assert registry.counter("repro_test_total", n=1.0) is not one
    assert registry.counter("repro_test_total", n=True) is not one
    listed = registry.counter("repro_test_total", n=[1])
    assert registry.counter("repro_test_total", n="[1]") is listed
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("repro_test_total", mode="c", domain="chunk")
    registry.reset()
    assert registry.counter("repro_test_total", domain="chunk",
                            mode="c") is not a


def test_prometheus_text_is_independent_of_label_order():
    """The exposition text (what ``GET /metrics?format=prometheus``
    serves) of instruments looked up in mixed label orders and value
    types, pinned as the sorted-key registry rendered it."""
    registry = MetricsRegistry()
    for domain, mode in (("chunk.kernel", "c"), ("executor", "pool")):
        registry.counter("repro_t_total", domain=domain, mode=mode).inc()
        registry.counter("repro_t_total", mode=mode, domain=domain).inc(2)
    registry.counter("repro_t_total", mode=1, domain="x").inc()
    registry.counter("repro_t_total", domain="x", mode="1").inc()
    registry.counter("repro_t_total", domain="x", mode=1.0).inc(5)
    registry.gauge("repro_t_level", domain="chunk.kernel").set(1)
    registry.gauge("repro_t_level", domain="chunk.kernel").inc()
    hist = registry.histogram("repro_t_seconds", buckets=(0.1, 1.0),
                              path="b", kind="a")
    hist.observe(0.5)
    registry.histogram("repro_t_seconds", kind="a", path="b").observe(2.0)
    assert registry.render_prometheus() == (
        '# TYPE repro_t_level gauge\n'
        'repro_t_level{domain="chunk.kernel"} 2\n'
        '# TYPE repro_t_seconds histogram\n'
        'repro_t_seconds_bucket{kind="a",path="b",le="0.1"} 0\n'
        'repro_t_seconds_bucket{kind="a",path="b",le="1"} 1\n'
        'repro_t_seconds_bucket{kind="a",path="b",le="+Inf"} 2\n'
        'repro_t_seconds_sum{kind="a",path="b"} 2.5\n'
        'repro_t_seconds_count{kind="a",path="b"} 2\n'
        '# TYPE repro_t_total counter\n'
        'repro_t_total{domain="chunk.kernel",mode="c"} 3\n'
        'repro_t_total{domain="executor",mode="pool"} 3\n'
        'repro_t_total{domain="x",mode="1"} 2\n'
        'repro_t_total{domain="x",mode="1.0"} 5\n'
    )


def test_kind_collisions_are_an_error():
    obs.counter("repro_test_total")
    with pytest.raises(ValueError, match="already registered"):
        obs.gauge("repro_test_total")


def test_disabled_path_records_nothing():
    counter = obs.counter("repro_test_total")
    hist = obs.histogram("repro_test_seconds")
    previous = obs.set_obs_enabled(False)
    try:
        counter.inc()
        hist.observe(1.0)
        obs.gauge("repro_test_depth").set(9)
    finally:
        obs.set_obs_enabled(previous)
    assert counter.value == 0.0
    assert hist.count == 0
    assert obs.gauge("repro_test_depth").value == 0.0
    assert previous is True  # set_obs_enabled returns the old state


def test_histogram_quantile_is_a_bucket_bound():
    hist = obs.histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.05, 0.5, 20.0):
        hist.observe(value)
    assert hist.quantile(0.5) == 0.1
    assert hist.quantile(0.99) == math.inf
    assert obs.histogram("repro_empty_seconds").quantile(0.5) is None


def test_histogram_bounds_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        obs.histogram("repro_bad_seconds", buckets=(1.0, 1.0, 2.0))


def test_snapshot_reports_every_instrument():
    obs.counter("repro_test_total", kind="a").inc(2)
    obs.gauge("repro_test_depth").set(3)
    obs.histogram("repro_test_seconds").observe(0.2)
    snap = obs.registry.snapshot()
    assert snap["counters"] == [
        {"name": "repro_test_total", "labels": {"kind": "a"}, "value": 2.0}
    ]
    assert snap["gauges"][0]["value"] == 3.0
    (hist,) = snap["histograms"]
    assert hist["count"] == 1 and sum(hist["buckets"]) == 1
    assert hist["bounds"] == list(DEFAULT_BUCKETS)


def test_prometheus_rendering_is_well_formed():
    obs.counter("repro_test_total", kind='we"ird').inc()
    obs.gauge("repro_test_depth").set(2.5)
    obs.histogram("repro_test_seconds", buckets=(0.1, 1.0)).observe(0.5)
    text = obs.registry.render_prometheus()
    assert text.endswith("\n")
    lines = text.splitlines()
    type_lines = [l for l in lines if l.startswith("# TYPE")]
    assert "# TYPE repro_test_total counter" in type_lines
    assert "# TYPE repro_test_depth gauge" in type_lines
    assert "# TYPE repro_test_seconds histogram" in type_lines
    for line in lines:
        if line.startswith("#"):
            continue
        assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"
    # Histogram series are cumulative and end at +Inf == _count.
    assert 'repro_test_seconds_bucket{le="0.1"} 0' in lines
    assert 'repro_test_seconds_bucket{le="1"} 1' in lines
    assert 'repro_test_seconds_bucket{le="+Inf"} 1' in lines
    assert "repro_test_seconds_count 1" in lines


def test_delta_and_merge_round_trip():
    worker = MetricsRegistry()
    before = worker.values()
    worker.counter("repro_test_total", kind="w").inc(3)
    worker.histogram("repro_test_seconds").observe(0.3)
    delta = worker.delta(before)
    assert {row[0] for row in delta["counters"]} == {"repro_test_total"}

    obs.counter("repro_test_total", kind="w").inc()  # pre-existing local
    obs.registry.merge_delta(delta)
    assert obs.counter("repro_test_total", kind="w").value == 4.0
    merged = obs.histogram("repro_test_seconds")
    assert merged.count == 1 and merged.sum == pytest.approx(0.3)
    # No change -> empty delta -> merge is a no-op.
    assert worker.delta(worker.values()) == {}


def test_gauges_do_not_travel_in_deltas():
    worker = MetricsRegistry()
    before = worker.values()
    worker.gauge("repro_test_depth").set(7)
    assert worker.delta(before) == {}
