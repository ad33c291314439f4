"""The CLI observability surface: ``--trace-out`` and ``repro obs``."""

import json

import pytest

from repro.cli import main


def _write_spec(tmp_path):
    from repro.spec.presets import fig7_spec

    path = tmp_path / "spec.json"
    path.write_text(fig7_spec(fft_size=64, duration=0.2).to_json())
    return str(path)


def test_sweep_trace_out_writes_a_loadable_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code = main([
        "sweep", _write_spec(tmp_path),
        "--set", "frequency=4.7,9.4",
        "--output", str(tmp_path / "pts.jsonl"),
        "--trace-out", str(trace),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace event(s)" in out
    body = json.loads(trace.read_text())
    cats = {e["cat"] for e in body["traceEvents"] if e["ph"] == "X"}
    assert {"kernel", "pool", "store", "sweep"} <= cats
    assert body["otherData"]["metrics"]["counters"]  # snapshot rides along


def test_run_trace_out_and_obs_report(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main([
        "run", _write_spec(tmp_path), "--trace-out", str(trace),
    ]) in (0, 1)  # completion exit code is scenario-dependent
    capsys.readouterr()

    assert main(["obs", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "top spans by cumulative wall time" in out
    assert "kernel.run" in out
    assert "repro_kernel_runs_total" in out


def test_obs_command_rejects_missing_files(tmp_path, capsys):
    assert main(["obs", str(tmp_path / "nope.json")]) == 2
    assert "no trace file" in capsys.readouterr().err


def test_obs_report_shows_self_time_per_span_name(tmp_path, capsys):
    """Self time is each span's duration minus what the spans directly
    inside it cover, nesting per pid/tid: the column answers "where did
    the time go?" without a profiler."""
    from repro.obs.report import summarize_spans

    def span(name, ts, dur, pid=1, tid=1):
        return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                "pid": pid, "tid": tid, "cat": "test"}

    events = [
        span("sweep", 0, 1000),
        span("point", 100, 400),
        span("kernel", 150, 300),
        span("point", 600, 300),
        span("kernel", 700, 100),
        # Another thread: its own stack, never a child of "sweep".
        span("kernel", 0, 2000, tid=2),
        {"name": "progress", "ph": "i", "ts": 50, "pid": 1, "tid": 1},
    ]
    rows = {row["name"]: row for row in summarize_spans(events)}
    assert rows["sweep"]["self_s"] == pytest.approx((1000 - 400 - 300) / 1e6)
    assert rows["point"]["self_s"] == pytest.approx(
        (400 - 300 + 300 - 100) / 1e6)
    assert rows["kernel"]["self_s"] == pytest.approx(
        rows["kernel"]["total_s"])
    assert rows["kernel"]["total_s"] == pytest.approx((300 + 100 + 2000) / 1e6)
    assert rows["progress"]["self_s"] == 0.0

    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"traceEvents": events, "otherData": {}}))
    assert main(["obs", str(trace)]) == 0
    out = capsys.readouterr().out
    header = next(line for line in out.splitlines() if "count" in line)
    assert header.split() == ["span", "count", "total", "self", "avg", "max"]
    sweep = next(line for line in out.splitlines()
                 if line.strip().startswith("sweep"))
    assert sweep.split()[2:4] == ["1.00ms", "300.0us"]
