"""Self-tests for the regime benchmark.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import common  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _take(iterator, count):
    return list(itertools.islice(iterator, count))


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("make", [workloads.fig7_round, workloads.eq5_round])
def test_rounds_are_deterministic_per_seed(make):
    assert make(7, 2) == make(7, 2)
    assert make(7, 2) != make(8, 2)
    assert make(7, 2) != make(7, 3)


def test_serve_ops_are_deterministic_per_seed():
    for thread in (0, 1):
        first = _take(workloads.serve_ops(5, thread), 40)
        assert first == _take(workloads.serve_ops(5, thread), 40)
        assert first != _take(workloads.serve_ops(6, thread), 40)
    assert workloads.warmup_request(5, 2) == workloads.warmup_request(5, 2)


def test_eq5_round_covers_every_stratum_inside_the_valid_range():
    low, high = workloads.EQ5_FREQUENCY
    count = workloads.EQ5_FREQUENCY_STRATA
    for job in workloads.eq5_round(3, 0):
        freqs = job["grid"]["frequency"]
        assert len(freqs) == count
        assert all(low <= f < 100.0 for f in freqs)
        strata = {
            int(math.log(f / low) / math.log(high / low) * count)
            for f in freqs
        }
        assert strata == set(range(count))
        assert job["overrides"]["kernel"] == "fast"


def test_fig7_round_stays_in_the_completing_box():
    for job in workloads.fig7_round(11, 0):
        grid = job["grid"]
        low, high = workloads.FIG7_CAPACITANCE
        assert low <= grid["capacitance"][0] <= high
        low, high = workloads.FIG7_RESISTANCE
        assert low <= grid["source_resistance"][0] <= high


def test_serve_sweeps_partly_overlap_and_resubmits_repeat():
    ops = _take(workloads.serve_ops(1, 0), 300)
    jobs = [op for op in ops if op["op"] == "job"]
    sweeps = [op["request"] for op in jobs
              if op["kind"] == "sweep" and not op.get("resubmit")]
    seen, overlaps = set(), 0
    for request in sweeps:
        points = {
            (request["preset"], f, c)
            for f in request["grid"]["frequency"]
            for c in request["grid"]["capacitance"]
        }
        overlaps += bool(points & seen)
        seen |= points
    assert overlaps > len(sweeps) // 3
    resubmits = [op for op in jobs if op.get("resubmit")]
    assert resubmits and all(
        any(op["request"] == other["request"] and not other.get("resubmit")
            for other in jobs)
        for op in resubmits
    )


# -- metric names --------------------------------------------------------------

def test_metric_names_and_units_are_well_formed():
    names = list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# -- self time -----------------------------------------------------------------

def test_self_time_of_synthetic_nested_spans():
    spans = [
        ("root", 1, 1, 0.0, 10.0),
        ("a", 1, 1, 1.0, 4.0),
        ("leaf", 1, 1, 2.0, 3.0),
        ("b", 1, 1, 5.0, 9.0),
        ("leaf", 1, 1, 6.0, 6.5),
        # Another thread overlapping in time is not nested in "root".
        ("other", 1, 2, 2.0, 8.0),
        # Nor is the same thread id in another process.
        ("other", 2, 1, 0.5, 1.5),
    ]
    assert self_times(spans) == pytest.approx({
        "root": 10.0 - 3.0 - 4.0,
        "a": 3.0 - 1.0,
        "b": 4.0 - 0.5,
        "leaf": 1.5,
        "other": 7.0,
    })


def test_self_time_back_to_back_spans_are_siblings():
    spans = [("p", 1, 1, 0.0, 4.0), ("c", 1, 1, 0.0, 2.0),
             ("c", 1, 1, 2.0, 4.0)]
    assert self_times(spans) == pytest.approx({"p": 0.0, "c": 4.0})


class _Layered:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1


def test_tracer_wrappers_fold_self_time_per_thread():
    tracer = Tracer()
    tracer.wrap(_Layered, "outer", "outer")
    tracer.wrap(_Layered, "inner", "inner")
    try:
        threads = [threading.Thread(target=_Layered().outer)
                   for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert _Layered().outer() == 2
    finally:
        tracer.unwrap_all()
    assert tracer.calls == {"outer": 4, "inner": 8}
    assert tracer.self_s["outer"] >= 0.0 and tracer.self_s["inner"] > 0.0
    assert len(tracer.chrome_trace()["traceEvents"]) == 12
    assert _Layered.outer.__name__ == "outer" and not hasattr(
        _Layered.outer, "__wrapped__"
    )


# -- statistics and comparisons -----------------------------------------------

def test_percentiles_and_tail_counts():
    values = [float(v) for v in range(1, 1001)]
    assert common.percentile(values, 50) == pytest.approx(500.5)
    assert common.beyond(values, 99) == 10
    assert common.percentile([3.0], 90) == 3.0


def test_host_speed_scales_each_sample_by_the_probes_around_it():
    ref = common.REFERENCE_PROBE_S
    gap = common.PROBE_WINDOW_S / 2
    speed = common.HostSpeed()
    # The host runs at half speed for four probes, then at full speed;
    # probes end ``gap`` apart, so a window spans five of them.
    speed.samples = [2 * ref] * 4 + [ref] * 4
    speed.spans = [(k * gap, k * gap) for k in range(8)]
    assert speed.scale(1) == pytest.approx(0.5)
    assert speed.scale(7) == pytest.approx(1.0)
    # Probes 3-7 around probe 5: one slow, four fast.
    assert speed.scale(5) == pytest.approx(1.0)
    # Sample k lies between probes k and k + 1: 0.5, 0.5 and 4.0 * 0.5.
    assert common.reference_median([1.0, 1.0, 4.0], speed) == \
        pytest.approx(0.5)
    assert speed.run_scale() == pytest.approx(ref / (1.5 * ref))


def test_probe_records_samples_and_restores_cpu_affinity():
    before = os.sched_getaffinity(0)
    speed = common.HostSpeed()
    assert speed.probe() == 0 and speed.probe() == 1
    assert os.sched_getaffinity(0) == before
    assert all(s > 0 for s in speed.samples)
    assert speed.spent_s >= sum(speed.samples)


def test_values_match_tolerates_only_tiny_float_differences():
    assert common.values_match(float("nan"), float("nan"), 0.0)
    assert common.values_match(1.0, 1.0 + 1e-12, 1e-9)
    assert not common.values_match(1.0, 1.0 + 1e-6, 1e-9)
    assert not common.values_match(3, 4, 1e-9)
    assert common.metric_mismatches({"a": 1.0}, {"a": 1.0, "b": 2}) == ["b"]


def test_client_loop_counts_every_raising_operation(monkeypatch):
    common.bootstrap()
    import http.client

    import servemix
    from repro.serve.client import ServiceClient

    def reset(self, *args, **kwargs):
        raise ConnectionResetError("reset by peer")

    def truncated(self, *args, **kwargs):
        raise http.client.IncompleteRead(b"{")

    monkeypatch.setattr(ServiceClient, "results", reset)
    for name in ("submit_run", "submit_sweep", "submit_exploration"):
        monkeypatch.setattr(ServiceClient, name, truncated)
    phase = servemix.Phase()
    servemix._client_loop("http://127.0.0.1:9", 1, 0, 30, phase,
                          threading.Lock(), threading.Barrier(1), None)
    assert phase.ops_done == phase.op_errors == len(phase.problems) == 30
    assert not phase.job_s and not phase.query_ms and phase.points == 0
    assert any("IncompleteRead" in p for p in phase.problems)
    assert any("ConnectionResetError" in p for p in phase.problems)


# -- smoke runs ------------------------------------------------------------------

def _run(workload, trace=0, seconds=1):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    result = _run(workload)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    result = _run("fig7-fft", trace=1, seconds=2)
    assert result["correct"] is True
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    layer_self = {k: v for k, v in metrics.items()
                  if PER_LAYER[k] == "s" and not k.startswith("serve.")}
    assert max(layer_self, key=layer_self.get) == "mcu.run_s"
