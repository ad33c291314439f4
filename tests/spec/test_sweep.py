"""SweepRunner: grid execution, serial/parallel equivalence, summaries."""

import pytest

from repro.errors import SpecError
from repro.spec import ScenarioSpec, SweepRunner
from repro.spec.presets import fig7_spec
from repro.spec.runner import run_in_process
from repro.spec.specs import expand_grid


def small_base():
    return fig7_spec(fft_size=64, duration=0.4)


def test_warm_worker_resolution_matches_parent_hashes():
    """Override-only tasks resolve, in the worker, to specs whose hashes
    equal the ones the parent computed — the cache-key contract the whole
    resume/dedupe machinery leans on."""
    runner = SweepRunner(
        small_base(), {"capacitance": [22e-6, 47e-6], "frequency": [4.7]}
    )
    result = runner.run(parallel=False)
    assert [p.spec_hash for p in result] == runner.hashes


def test_warm_pool_serves_multiple_batches():
    """One WarmPool instance survives across run() batches (the
    exploration driver's usage pattern) and produces rows identical to
    the transient-pool path."""
    from repro.spec.runner import WarmPool

    base = small_base()
    payloads = [
        {"spec_overrides": {"frequency": f}, "overrides": {"frequency": f}}
        for f in (4.7, 9.4)
    ]
    with WarmPool(max_workers=2) as pool:
        first = pool.run(payloads, base.to_dict())
        second = pool.run(payloads, base.to_dict())  # same workers
    assert [r["metrics"] for r in first] == [r["metrics"] for r in second]
    direct = run_in_process(payloads, base.to_dict())
    assert [r["metrics"] for r in first] == [r["metrics"] for r in direct]
    assert [r["spec_hash"] for r in first] == [r["spec_hash"] for r in direct]


def _kill_worker_process(payload):  # pragma: no cover - dies mid-run
    import os

    os._exit(1)


def test_warm_pool_recovers_after_a_worker_death(monkeypatch):
    """A dead worker breaks the executor; the batch lands as error rows
    and the NEXT batch gets a fresh pool instead of an uncaught
    BrokenProcessPool."""
    from repro.spec import runner as runner_mod
    from repro.spec.runner import WarmPool

    base = small_base()
    payloads = [
        {"spec_overrides": {"frequency": f}, "overrides": {"frequency": f}}
        for f in (4.7, 9.4)
    ]
    with WarmPool(max_workers=1) as pool:
        monkeypatch.setattr(
            runner_mod, "run_point_payload", _kill_worker_process
        )
        crashed = pool.run(payloads, base.to_dict())
        assert all(
            r["metrics"]["error"].startswith(runner_mod.WORKER_FAILURE_PREFIX)
            for r in crashed
        )
        monkeypatch.undo()
        recovered = pool.run(payloads, base.to_dict())
        assert all(r["metrics"]["error"] is None for r in recovered)


def test_resolution_failure_and_crash_share_one_key(monkeypatch):
    """A task that fails to resolve in the worker and a task whose
    worker crashes must pin their error rows under the same key."""
    from repro.spec import runner as runner_mod

    payload = {"spec_overrides": {"frequency": 4.7},
               "overrides": {"frequency": 4.7}}
    base = small_base().to_dict()
    crash_record = runner_mod._worker_failure(
        payload, RuntimeError("boom"), base
    )
    runner_mod._install_shared_base(base)
    try:
        monkeypatch.setattr(
            ScenarioSpec, "with_overrides",
            lambda self, o: (_ for _ in ()).throw(RuntimeError("no")),
        )
        resolve_record = runner_mod.run_point_payload(payload)
    finally:
        runner_mod._install_shared_base(None)
    assert resolve_record["spec_hash"] == crash_record["spec_hash"]


def test_expand_grid_deterministic_order():
    points = expand_grid({"a": [1, 2], "b": [10, 20]})
    assert points == [
        {"a": 1, "b": 10}, {"a": 1, "b": 20},
        {"a": 2, "b": 10}, {"a": 2, "b": 20},
    ]
    assert expand_grid({}) == [{}]


def test_runner_validates_grid_eagerly():
    with pytest.raises(SpecError):
        SweepRunner(small_base(), {"not-a-parameter": [1, 2]})


def test_two_by_two_grid_serial_equals_parallel():
    """The acceptance-criterion check: a 2x2 grid, pool == in-process."""
    runner = SweepRunner(
        small_base(),
        {"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]},
    )
    assert len(runner) == 4
    parallel = runner.run(parallel=True)
    serial = runner.run(parallel=False)
    assert len(parallel) == 4 and len(serial) == 4
    assert [p.overrides for p in parallel] == [p.overrides for p in serial]
    assert [p.metrics for p in parallel] == [p.metrics for p in serial]
    # Simulations are deterministic, so equality here is exact.
    for point in parallel:
        assert point.metrics["error"] is None
        assert point.metrics["completed"] is True


@pytest.mark.parametrize("kernel", ["reference", "fast"])
def test_grid_serial_equals_parallel_under_both_kernels(kernel):
    """The kernel choice must not disturb sweep determinism: the same
    grid run serially and through the process pool yields bit-identical
    rows under the reference and the fast kernel alike."""
    base = small_base().with_override("kernel", kernel)
    runner = SweepRunner(
        base, {"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]}
    )
    parallel = runner.run(parallel=True)
    serial = runner.run(parallel=False)
    assert [p.metrics for p in parallel] == [p.metrics for p in serial]
    for point in parallel:
        assert point.spec.kernel == kernel
        assert point.metrics["error"] is None


def test_kernel_is_sweepable():
    """`kernel` is a grid axis: one sweep can compare both kernels."""
    result = SweepRunner(
        small_base(), {"kernel": ["reference", "fast"]}
    ).run(parallel=False)
    assert [p.overrides["kernel"] for p in result] == ["reference", "fast"]
    ref_row, fast_row = result.points
    assert ref_row.metrics["error"] is None
    assert fast_row.metrics["error"] is None
    # Scalar summaries agree to the fast kernel's trace tolerance.
    assert fast_row.metrics["vcc_min"] == pytest.approx(
        ref_row.metrics["vcc_min"], abs=1e-9
    )
    assert fast_row.metrics["vcc_max"] == pytest.approx(
        ref_row.metrics["vcc_max"], abs=1e-9
    )
    assert fast_row.metrics["completion_time"] == ref_row.metrics[
        "completion_time"
    ]


def test_infeasible_point_reported_not_raised():
    # 4.7 uF cannot bank the Eq. (4) snapshot energy for a full-RAM
    # Hibernus snapshot: the point must come back as an error row.
    result = SweepRunner(
        small_base(), {"capacitance": [4.7e-6, 22e-6]}
    ).run(parallel=False)
    errors = [p.metrics["error"] for p in result]
    assert errors[0] is not None and "V_H" in errors[0]
    assert errors[1] is None


def test_result_table_one_row_per_point():
    result = SweepRunner(
        small_base(), {"frequency": [4.7, 9.4]}
    ).run(parallel=False)
    table = result.format()
    lines = [line for line in table.splitlines() if line.strip()]
    # header + separator + one row per point
    assert len(lines) == 2 + len(result)
    assert "frequency" in lines[0]
    assert "energy_total" in lines[0]


def test_best_point_selection():
    result = SweepRunner(
        small_base(), {"capacitance": [22e-6, 47e-6]}
    ).run(parallel=False)
    best = result.best("energy_total")
    energies = [p.metrics["energy_total"] for p in result]
    assert best.metrics["energy_total"] == min(e for e in energies if e is not None)


def test_worker_records_build_errors_per_point():
    # A bad keyword smuggled through an open-ended factory (pv-outdoor
    # forwards **kwargs) escapes name validation; the failure must come
    # back as the point's error field, not abort the sweep.
    spec = ScenarioSpec.from_dict({
        "storage": {"kind": "capacitor", "params": {"capacitance": 22e-6}},
        "harvesters": [{"kind": "pv-outdoor", "params": {"vmpp": 2.0}}],
        "duration": 0.01,
        "dt": 1e-3,
    })
    [record] = run_in_process(
        [{"spec_overrides": {}, "overrides": {}}], spec.to_dict()
    )
    summary = record["metrics"]
    assert summary["error"] is not None
    assert "pv-outdoor" in summary["error"]


def test_worker_is_pure_payload_in_payload_out():
    base = small_base().to_dict()
    payload = {"spec_overrides": {}, "overrides": {}}
    [record] = run_in_process([payload], base)
    summary = record["metrics"]
    assert summary["completed"] is True
    assert summary["vcc_max"] > 3.0
    # The payload and base round-trip untouched through the worker.
    assert payload == {"spec_overrides": {}, "overrides": {}}
    assert ScenarioSpec.from_dict(base) == small_base()
