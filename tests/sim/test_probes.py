"""Tests for probes and traces."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.probes import Probe, Recorder, Trace


def make_trace(values, dt=0.1, name="t"):
    times = np.arange(len(values)) * dt
    return Trace(name, times, np.asarray(values, dtype=float))


def test_trace_rejects_mismatched_lengths():
    with pytest.raises(ConfigurationError):
        Trace("bad", np.array([0.0, 1.0]), np.array([1.0]))


def test_trace_basic_stats():
    trace = make_trace([1.0, 3.0, 2.0])
    assert trace.minimum() == 1.0
    assert trace.maximum() == 3.0
    assert math.isclose(trace.mean(), 2.0)
    assert math.isclose(trace.peak_to_peak(), 2.0)
    assert len(trace) == 3


def test_trace_between_slices_inclusive():
    trace = make_trace([0, 1, 2, 3, 4, 5])
    sub = trace.between(0.09, 0.31)
    assert list(sub.values) == [1.0, 2.0, 3.0]


def test_trace_value_at_interpolates():
    trace = make_trace([0.0, 10.0], dt=1.0)
    assert math.isclose(trace.value_at(0.25), 2.5)


def test_trace_integral_of_constant_power_is_energy():
    trace = make_trace([5.0] * 101, dt=0.01)
    assert math.isclose(trace.integral(), 5.0, rel_tol=1e-6)


def test_trace_fraction_above():
    trace = make_trace([0.0, 1.0, 2.0, 3.0])
    assert math.isclose(trace.fraction_above(1.5), 0.5)
    assert make_trace([]).fraction_above(0.0) == 0.0


def test_trace_dt_is_median_spacing():
    trace = make_trace([1, 2, 3], dt=0.25)
    assert math.isclose(trace.dt, 0.25)
    assert make_trace([1.0]).dt == 0.0


def test_probe_decimation():
    probe = Probe("x", lambda: 1.0, decimate=3)
    for i in range(9):
        probe.sample(float(i))
    trace = probe.trace()
    assert len(trace) == 3
    assert list(trace.times) == [2.0, 5.0, 8.0]


def test_probe_rejects_bad_decimation():
    with pytest.raises(ConfigurationError):
        Probe("x", lambda: 0.0, decimate=0)


def test_probe_clear():
    probe = Probe("x", lambda: 1.0)
    probe.sample(0.0)
    probe.clear()
    assert len(probe.trace()) == 0


def test_recorder_rejects_duplicate_names():
    recorder = Recorder()
    recorder.add("v", lambda: 0.0)
    with pytest.raises(ConfigurationError):
        recorder.add("v", lambda: 1.0)


def test_recorder_samples_all_probes():
    recorder = Recorder()
    recorder.add("a", lambda: 1.0)
    recorder.add("b", lambda: 2.0)
    recorder.sample(0.0)
    recorder.sample(1.0)
    traces = recorder.traces()
    assert list(traces["a"].values) == [1.0, 1.0]
    assert list(traces["b"].values) == [2.0, 2.0]
    assert "a" in recorder and "missing" not in recorder


# -- chunk sampling vs per-step sampling ------------------------------------

#: Step length for the chunk-sampling comparisons.
DT = 1e-3

#: ``(kind, steps)`` segments: per-step stretches between chunks, 1-step
#: chunks, and chunks longer than a small ring.
SCHEDULE = (
    ("chunk", 5), ("step", 2), ("chunk", 1), ("chunk", 7), ("step", 1),
    ("chunk", 13), ("chunk", 1), ("step", 3), ("chunk", 20), ("chunk", 2),
)


def _record(decimate, capacity, constant, chunked):
    """Traces of three probes driven through ``SCHEDULE``.

    ``a`` samples every ``decimate`` steps, ``b`` every ``decimate + 1``,
    and ``late`` (same decimation as ``a``) joins after the first
    segment, so its decimation phase differs from ``a``'s.  The signal
    is per-step (``0.5 * step + 1``) or, when ``constant``, the segment
    index, which a chunk reports as one 0-d value.
    """
    recorder = Recorder()
    clock = {"step": 0, "segment": 0}

    def fn():
        if constant:
            return float(clock["segment"])
        return 0.5 * clock["step"] + 1.0

    def chunk_fn(k):
        if constant:
            return float(clock["segment"])
        steps = np.arange(clock["step"] - k + 1, clock["step"] + 1)
        return 0.5 * steps + 1.0

    def add(name, d):
        recorder.add(name, fn, decimate=d, chunk_fn=chunk_fn,
                     capacity=capacity)

    add("a", decimate)
    add("b", decimate + 1)
    for index, (kind, k) in enumerate(SCHEDULE):
        clock["segment"] = index
        if index == 1:
            add("late", decimate)
        if chunked and kind == "chunk":
            first = clock["step"] + 1
            clock["step"] += k
            recorder.sample_chunk(first, k, DT)
        else:
            for _ in range(k):
                clock["step"] += 1
                recorder.sample(clock["step"] * DT)
    return recorder.traces()


@pytest.mark.parametrize("capacity", [None, 4])
@pytest.mark.parametrize("decimate", [1, 3, 7])
@pytest.mark.parametrize("constant", [False, True], ids=["array", "0-d"])
def test_chunk_sampling_equals_per_step_sampling(constant, decimate, capacity):
    per_step = _record(decimate, capacity, constant, chunked=False)
    chunked = _record(decimate, capacity, constant, chunked=True)
    assert set(chunked) == {"a", "b", "late"}
    for name, trace in per_step.items():
        assert len(trace) > 0
        if capacity is not None:
            assert len(trace) <= capacity
        np.testing.assert_array_equal(chunked[name].times, trace.times)
        np.testing.assert_array_equal(chunked[name].values, trace.values)
    if decimate > 1 and capacity is None:
        # The late probe's samples sit on other steps than a's.
        assert set(per_step["late"].times).isdisjoint(per_step["a"].times)
