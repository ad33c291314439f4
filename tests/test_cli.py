"""Tests for the CLI experiment runner."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out
    assert "crossover" in out


def test_taxonomy_command(capsys):
    assert main(["taxonomy"]) == 0
    out = capsys.readouterr().out
    assert "Desktop PC" in out
    assert "transient" in out
    assert "Hibernus" in out


def test_sources_command(capsys):
    assert main(["sources"]) == 0
    out = capsys.readouterr().out
    assert "wind turbine" in out
    assert "uA" in out


def test_fig7_command_small(capsys):
    code = main(["fig7", "--fft-size", "64", "--duration", "0.6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "checksum ok" in out
    assert "yes" in out


def test_crossover_command_two_points(capsys):
    assert main(["crossover", "--frequencies", "2", "80"]) == 0
    out = capsys.readouterr().out
    assert "hibernus" in out
    assert "quickrecall" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_fig7_command_fast_kernel(capsys):
    code = main(["fig7", "--fft-size", "64", "--duration", "0.6",
                 "--kernel", "fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert "checksum ok" in out


def test_sweep_command_kernel_axis(capsys):
    code = main([
        "sweep", "--serial", "--duration", "0.4",
        "--set", "kernel=reference,fast",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "kernel" in out
    assert "reference" in out and "fast" in out


def test_run_command_rejects_unknown_kernel():
    with pytest.raises(SystemExit):
        main(["fig7", "--kernel", "warp"])


def test_spec_command_lists_presets(capsys):
    assert main(["spec"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out
    assert "crossover-hibernus" in out


def test_spec_dump_then_run_round_trip(tmp_path, capsys):
    assert main(["spec", "fig7"]) == 0
    dumped = capsys.readouterr().out
    path = tmp_path / "fig7.json"
    path.write_text(dumped)
    assert main(["run", str(path), "--duration", "0.2"]) in (0, 1)
    out = capsys.readouterr().out
    assert "scenario: fig7-fft512" in out
    assert "V_cc" in out


def _crossover_spec_file(tmp_path, duration):
    from repro.spec.presets import preset

    path = tmp_path / "spec.json"
    path.write_text(
        preset("crossover-hibernus").with_override("duration", duration)
        .to_json()
    )
    return path


def test_obs_shows_where_a_traced_run_spent_its_time(tmp_path, capsys):
    import re

    path = _crossover_spec_file(tmp_path, 0.3)
    trace = tmp_path / "trace.json"
    assert main(["run", str(path), "--kernel", "fast",
                 "--trace-out", str(trace)]) in (0, 1)
    capsys.readouterr()
    assert main(["obs", str(trace)]) == 0
    out = capsys.readouterr().out
    for part in ("prepare", "loop", "commit", "step"):
        match = re.search(
            r"repro_kernel_part_seconds_total\{part=%s\} +(\S+)" % part, out
        )
        assert match is not None, (part, out)
        assert float(match.group(1)) > 0.0, (part, out)


def test_run_profile_is_gone(tmp_path):
    path = _crossover_spec_file(tmp_path, 0.3)
    with pytest.raises(SystemExit) as exited:
        main(["run", str(path), "--profile"])
    assert exited.value.code == 2


def test_traced_runs_add_one_kernel_event_each(tmp_path, capsys):
    """N runs record N ``kernel.run`` spans and no other kernel event
    but the compiled library's one ``ckernel.load``."""
    import json

    from repro.sim import _ckernel

    _ckernel.reset_cache()
    trace = tmp_path / "trace.json"
    assert main([
        "sweep", "--preset", "crossover-hibernus", "--serial",
        "--kernel", "fast", "--duration", "0.3",
        "--set", "frequency=10,20,40", "--trace-out", str(trace),
    ]) == 0
    capsys.readouterr()
    names = [event["name"] for event in
             json.loads(trace.read_text())["traceEvents"]]
    kernel = [name for name in names
              if name.split(".", 1)[0] in ("kernel", "ckernel")]
    assert kernel.count("kernel.run") == 3, names
    assert kernel.count("ckernel.load") == 1, names
    assert len(kernel) == 4, names


def test_sweep_command_grid_rows(capsys):
    code = main([
        "sweep", "--serial", "--duration", "0.4",
        "--set", "capacitance=22e-6,47e-6",
        "--set", "frequency=4.7,9.4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 points" in out
    # one summary row per grid point
    assert out.count("2.2e-05") + out.count("4.7e-05") >= 4


def test_grid_value_parsing():
    from repro.cli import _parse_grid_value

    assert _parse_grid_value("22e-6") == 22e-6
    assert _parse_grid_value("3") == 3
    assert _parse_grid_value("False") is False
    assert _parse_grid_value("TRUE") is True
    assert _parse_grid_value("sleep") == "sleep"


def test_components_command(capsys):
    assert main(["components"]) == 0
    out = capsys.readouterr().out
    assert "harvester" in out
    assert "signal-generator" in out
    assert "quickrecall" in out


def test_sweep_output_and_resume(tmp_path, capsys):
    store_path = str(tmp_path / "sweep.jsonl")
    argv = ["sweep", "--serial", "--duration", "0.4",
            "--set", "capacitance=22e-6,47e-6",
            "--output", store_path, "--resume"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "2 computed, 0 reused" in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "0 computed, 2 reused" in second


def test_sweep_resume_requires_output(capsys):
    assert main(["sweep", "--serial", "--resume"]) == 2
    assert "--resume needs --output" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--deadline", "-1"], ["--deadline", "inf"], ["--max-retries", "-1"],
])
def test_sweep_rejects_bad_supervision_flags_and_stores_nothing(
    tmp_path, capsys, flags
):
    store_path = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--serial", "--duration", "0.4",
            "--set", "capacitance=22e-6", "--output", str(store_path)]
    assert main(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert "quarantined" not in captured.out
    assert not store_path.exists()


def test_sweep_refuses_a_program_parameter_and_stores_nothing(
    tmp_path, capsys
):
    store_path = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--preset", "fig7", "--serial", "--duration", "0.05",
            "--set", "n=100,128", "--output", str(store_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: program 'fft' rejects")
    assert len(captured.err.strip().splitlines()) == 1
    assert not store_path.exists()


def test_serve_rejects_a_bad_default_deadline_at_startup(
    tmp_path, capsys, monkeypatch
):
    import repro.serve

    def never_serve(server):
        server.service.close()
        server.server_close()
        raise AssertionError("a bad default deadline reached serving")

    monkeypatch.setattr(repro.serve, "serve_forever", never_serve)
    store_path = tmp_path / "runs.jsonl"
    argv = ["serve", "--serial", "--port", "0", "--deadline", "-1",
            "--store", str(store_path)]
    assert main(argv) == 2
    assert "'deadline_s'" in capsys.readouterr().err
    assert not store_path.exists()


def test_run_output_stores_result(tmp_path, capsys):
    from repro.results import ResultStore

    assert main(["spec", "fig7"]) == 0
    spec_json = capsys.readouterr().out
    spec_path = tmp_path / "fig7.json"
    spec_path.write_text(spec_json)
    store_path = tmp_path / "runs.jsonl"
    assert main(["run", str(spec_path), "--duration", "0.3",
                 "--output", str(store_path)]) in (0, 1)
    assert "stored 1 result" in capsys.readouterr().out
    store = ResultStore(store_path)
    assert len(store) == 1
    result = store.results()[0]
    assert result.name == "fig7-fft512"
    assert len(result.trace("vcc")) > 0


def test_results_command_table_best_pareto(tmp_path, capsys):
    store_path = str(tmp_path / "sweep.jsonl")
    assert main(["sweep", "--serial", "--duration", "0.4",
                 "--set", "capacitance=22e-6,47e-6",
                 "--output", store_path]) == 0
    capsys.readouterr()
    assert main(["results", store_path,
                 "--best", "energy_total",
                 "--pareto", "energy_total", "availability"]) == 0
    out = capsys.readouterr().out
    assert "2 rows" in out
    assert "best (min energy_total)" in out
    assert "pareto frontier" in out


def test_results_command_merges_shards(tmp_path, capsys):
    shard_a = str(tmp_path / "a.jsonl")
    shard_b = str(tmp_path / "b.jsonl")
    for shard, cap in ((shard_a, "22e-6"), (shard_b, "22e-6,47e-6")):
        assert main(["sweep", "--serial", "--duration", "0.4",
                     "--set", f"capacitance={cap}",
                     "--output", shard]) == 0
    capsys.readouterr()
    merged = str(tmp_path / "merged.jsonl")
    assert main(["results", merged, "--merge", shard_a, shard_b]) == 0
    out = capsys.readouterr().out
    assert "2 unique results" in out


def test_results_command_refuses_removed_store_paths(tmp_path, capsys):
    """A directory (read or merged) and a new ``.colstore`` output each
    fail with one line naming the path, not a misread JSONL store."""
    import os

    directory = str(tmp_path / "runs")
    (tmp_path / "runs").mkdir()
    shard = str(tmp_path / "a.jsonl")
    assert main(["sweep", "--serial", "--duration", "0.4",
                 "--set", "capacitance=22e-6", "--output", shard]) == 0
    capsys.readouterr()
    new_path = str(tmp_path / "x.colstore")
    for argv, path in (
        (["results", directory], directory),
        (["results", str(tmp_path / "out.jsonl"), "--merge", directory],
         directory),
        (["results", new_path, "--merge", shard], new_path),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert path in lines[0] and "removed" in lines[0]
    assert not os.path.exists(new_path)


def test_results_command_missing_store(capsys):
    assert main(["results", "/nonexistent/store.jsonl"]) == 2
    assert "no result store" in capsys.readouterr().err


def test_crossover_command_persistent_store(tmp_path, capsys):
    from repro.results import ResultStore

    store_path = str(tmp_path / "crossover.jsonl")
    assert main(["crossover", "--serial", "--frequencies", "2", "80",
                 "--output", store_path]) == 0
    out = capsys.readouterr().out
    assert "hibernus" in out
    store = ResultStore(store_path)
    assert len(store) == 4  # two strategies x two frequencies
    # Re-running reuses the store: identical table, no recompute needed.
    assert main(["crossover", "--serial", "--frequencies", "2", "80",
                 "--output", store_path]) == 0
    assert "hibernus" in capsys.readouterr().out


EXPLORE_ARGS = [
    "explore", "--serial", "--duration", "0.6",
    "--axis", "capacitance=log:8e-6:47e-6",
    "--objective", "capacitance", "--require", "completed",
    "--opt", "init=grid", "--opt", "initial=8",
    "--opt", "eta=4", "--opt", "min_fidelity=0.5",
    "--budget", "10",
]


def test_explore_command_multi_fidelity(capsys):
    assert main(EXPLORE_ARGS) == 0
    out = capsys.readouterr().out
    assert "via successive-halving" in out
    assert "batch 1" in out and "batch 2" in out
    assert "best (min capacitance (require completed))" in out
    assert "at full fidelity" in out


def test_explore_command_output_resume(tmp_path, capsys):
    store_path = str(tmp_path / "explore.jsonl")
    args = EXPLORE_ARGS + ["--output", store_path, "--resume"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "0 cached" in first.splitlines()[1]  # batch 1: all computed
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "0 computed, 10 reused" in second
    # Identical conclusion either way.
    line = lambda out: next(l for l in out.splitlines() if "best (" in l)
    assert line(first) == line(second)


def test_explore_command_random_multi_objective(capsys):
    assert main([
        "explore", "--serial", "--duration", "0.6",
        "--axis", "capacitance=log:1.2e-5:4.7e-5",
        "--objective", "capacitance", "--objective", "completion_time",
        "--require", "completed",
        "--optimizer", "random", "--budget", "5", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "pareto frontier" in out


def test_explore_command_space_file(tmp_path, capsys):
    from repro.explore import Axis, SearchSpace

    space_path = str(tmp_path / "space.json")
    SearchSpace.of(Axis.log("capacitance", 1.2e-5, 4.7e-5)).save(space_path)
    assert main([
        "explore", "--serial", "--duration", "0.6", "--space", space_path,
        "--objective", "completion_time", "--require", "completed",
        "--optimizer", "random", "--budget", "3",
    ]) == 0
    assert "best (min completion_time" in capsys.readouterr().out


def test_explore_serial_honours_max_retries(capsys):
    """--max-retries supervises a --serial exploration: injected
    transient worker crashes retry until no error row is left."""
    from repro import faults

    with faults.active({"worker.crash": 0.5}, seed=11):
        assert main([
            "explore", "--preset", "fig7",
            "--axis", "capacitance=log:22e-6:68e-6",
            "--budget", "4", "--optimizer", "random",
            "--max-retries", "10", "--serial",
        ]) == 0
    out = capsys.readouterr().out
    assert "4 computed (4 at full fidelity), 0 cached, 0 error(s)" in out


def test_explore_command_rejects_bad_configuration(capsys):
    # No search space at all.
    assert main(["explore", "--budget", "2"]) == 2
    assert "needs a search space" in capsys.readouterr().err
    # Malformed axis.
    assert main(["explore", "--axis", "capacitance", "--budget", "2"]) == 2
    assert "--axis wants" in capsys.readouterr().err
    # Unknown objective column.
    assert main(["explore", "--axis", "capacitance=log:1e-6:1e-4",
                 "--objective", "frobnication", "--budget", "2"]) == 2
    assert "not a result column" in capsys.readouterr().err
    # --resume without --output.
    assert main(["explore", "--axis", "capacitance=log:1e-6:1e-4",
                 "--resume", "--budget", "2"]) == 2
    assert "--resume needs --output" in capsys.readouterr().err


def test_axis_parsing():
    from repro.cli import _parse_axis
    from repro.errors import ReproError

    axis = _parse_axis("capacitance=log:1e-6:1e-4")
    assert axis.kind == "log" and axis.low == 1e-6
    assert _parse_axis("frequency=2:40").kind == "continuous"
    assert _parse_axis("store_slots=int:1:4").kind == "integer"
    cat = _parse_axis("strategy=cat:hibernus,quickrecall")
    assert cat.choices == ("hibernus", "quickrecall")
    assert _parse_axis("frequency=cat:4.7,9.4").choices == (4.7, 9.4)
    with pytest.raises(ReproError, match="LOW:HIGH"):
        _parse_axis("capacitance=log:1e-6")
    with pytest.raises(ReproError, match="--axis wants"):
        _parse_axis("=log:1:2")
    with pytest.raises(ReproError, match="must be numbers"):
        _parse_axis("capacitance=abc:def")
    with pytest.raises(ReproError, match="must be numbers"):
        _parse_axis("capacitance=log:1e-6:true")


def test_sweep_command_progress_flag(capsys):
    assert main(["sweep", "--serial", "--duration", "0.4",
                 "--set", "capacitance=22e-6,47e-6", "--progress"]) == 0
    out = capsys.readouterr().out
    assert "batch 1: 2 computed, 0 cached" in out


def test_sweep_default_flags_run_every_point_on_the_pool(capsys):
    """A parallel sweep (no --serial) of a one-topology grid submits
    every point to the worker pool, one task per point."""
    from repro import obs

    def pool_tasks():
        return sum(
            row["value"] for row in obs.registry.snapshot()["counters"]
            if row["name"] == "repro_pool_tasks_total"
            and dict(row["labels"]) == {"mode": "pool"}
        )

    before = pool_tasks()
    assert main([
        "sweep", "--duration", "0.2", "--kernel", "fast", "--workers", "2",
        "--set", "capacitance=22e-6,33e-6,47e-6,68e-6",
    ]) == 0
    assert "4 points (parallel)" in capsys.readouterr().out
    assert pool_tasks() - before == 4
