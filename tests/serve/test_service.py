"""The in-process SimulationService: validation, execution, queries."""

import time

import pytest

from repro.errors import SpecError
from repro.serve import SimulationService, job_id_for
from tests.serve.conftest import small_sweep_request


@pytest.fixture
def service(tmp_path):
    with SimulationService(
        store_path=str(tmp_path / "service.jsonl"), parallel=False
    ) as service:
        yield service


def wait_terminal(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.queue.get(job_id)
        if record is not None and record.terminal:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


# -- execution ------------------------------------------------------------


def test_sweep_job_executes_and_reports_counters(service):
    record = service.submit("sweep", small_sweep_request())
    done = wait_terminal(service, record.job_id)
    assert done.status == "done"
    assert done.result["points"] == 2
    assert done.result["computed"] == 2 and done.result["cached"] == 0
    assert len(done.result["spec_hashes"]) == 2
    assert done.points_total == 2 and done.points_computed == 2
    assert done.started_s is not None and done.finished_s is not None
    assert len(service.store) == 2


def test_run_job_is_a_one_point_sweep(service):
    record = service.submit("run", {
        "preset": "fig7", "overrides": {"duration": 0.3, "n": 64},
    })
    done = wait_terminal(service, record.job_id)
    assert done.status == "done"
    assert done.result["name"].startswith("fig7")
    assert done.result["metrics"]["energy_total"] > 0
    assert service.store.get(done.result["spec_hash"]) is not None


def test_exploration_job_returns_best_and_frontier(service):
    record = service.submit("exploration", {
        "preset": "fig7",
        "overrides": {"duration": 0.3, "n": 64},
        "space": {"capacitance": {"kind": "log", "low": 1e-5, "high": 1e-4}},
        "objectives": ["energy_total:min"],
        "optimizer": "random",
        "budget": 4,
        "seed": 7,
    })
    done = wait_terminal(service, record.job_id)
    assert done.status == "done"
    assert done.result["evaluations"] == 4
    assert 1e-5 <= done.result["best"]["overrides"]["capacitance"] <= 1e-4
    assert done.result["best"]["objective"] == "min energy_total"


def test_resubmission_is_idempotent_and_costs_nothing(service):
    request = small_sweep_request()
    first = wait_terminal(service, service.submit("sweep", request).job_id)
    again = service.submit("sweep", request)
    assert again.job_id == first.job_id
    assert again.status == "done"  # the existing record, not a new job
    # No second execution happened: counters are those of the first run.
    assert service.queue.get(first.job_id).points_computed == 2


def test_overlapping_grids_compute_each_point_once(service):
    a = small_sweep_request(
        grid={"capacitance": [22e-6, 47e-6], "frequency": [4.7]}
    )
    b = small_sweep_request(
        grid={"capacitance": [47e-6, 100e-6], "frequency": [4.7]}
    )
    done_a = wait_terminal(service, service.submit("sweep", a).job_id)
    done_b = wait_terminal(service, service.submit("sweep", b).job_id)
    assert done_a.result["computed"] == 2
    assert done_b.result["computed"] == 1 and done_b.result["cached"] == 1
    assert len(service.store) == 3


def test_infeasible_point_is_an_error_row_not_a_failed_job(service):
    record = service.submit("sweep", small_sweep_request(
        grid={"capacitance": [-1e-6, 22e-6]}
    ))
    done = wait_terminal(service, record.job_id)
    assert done.status == "done"
    assert done.result["errors"] == 1
    assert done.points_errors == 1


def test_events_record_the_job_lifecycle(service):
    record = service.submit("sweep", small_sweep_request())
    wait_terminal(service, record.job_id)
    lines = list(service.queue.events(record.job_id, follow=False))
    text = "\n".join(lines)
    assert all(line.startswith(f"[{record.job_id}]") for line in lines)
    assert "queued" in text and "running" in text
    assert "2 computed" in text
    assert "done:" in text


# -- validation (the HTTP 400 path) ---------------------------------------


def test_request_needs_exactly_one_of_spec_or_preset(service):
    with pytest.raises(SpecError, match="exactly one of 'spec'"):
        service.submit("run", {})
    with pytest.raises(SpecError, match="exactly one of 'spec'"):
        service.submit("run", {
            "preset": "fig7", "spec": {"name": "x"},
        })


def test_unknown_preset_lists_available_presets(service):
    with pytest.raises(SpecError, match="fig7"):
        service.submit("run", {"preset": "nope"})


def test_sweep_needs_a_non_empty_grid(service):
    with pytest.raises(SpecError, match="'grid'"):
        service.submit("sweep", {"preset": "fig7"})
    with pytest.raises(SpecError, match="at least one override"):
        service.submit("sweep", {"preset": "fig7", "grid": {}})
    with pytest.raises(SpecError, match="matches nothing"):
        service.submit("sweep", {
            "preset": "fig7", "grid": {"not_a_knob": [1]},
        })


def test_exploration_validation_happens_at_submission(service):
    base = {
        "preset": "fig7",
        "space": {"capacitance": {"kind": "log", "low": 1e-5, "high": 1e-4}},
        "budget": 4,
    }
    with pytest.raises(SpecError, match="unknown optimizer"):
        service.submit("exploration", dict(base, optimizer="gradient"))
    with pytest.raises(SpecError, match="'budget'"):
        service.submit("exploration", dict(base, budget=0))
    with pytest.raises(SpecError, match="'budget'"):
        service.submit("exploration", dict(base, budget="lots"))
    with pytest.raises(SpecError, match="'seed'"):
        service.submit("exploration", dict(base, seed="x"))
    with pytest.raises(SpecError, match="'space'"):
        service.submit("exploration", {"preset": "fig7", "budget": 4})


def test_traces_must_be_a_list_of_names(service):
    with pytest.raises(SpecError, match="'traces'"):
        service.submit("run", {"preset": "fig7", "traces": "vcc"})


def test_unknown_trace_names_are_rejected_at_submit(service):
    requests = [
        ("run", {"preset": "fig7", "traces": ["vcc", "bogus"]}),
        ("sweep", small_sweep_request(traces=["Vcc"])),
    ]
    for kind, request in requests:
        with pytest.raises(SpecError, match="unknown trace name"):
            service.submit(kind, request)
    assert service.queue.records() == []


def test_unknown_kind_and_non_object_payloads_are_rejected(service):
    with pytest.raises(SpecError, match="unknown job kind"):
        service.submit("teleport", {"preset": "fig7"})
    with pytest.raises(SpecError, match="must be a JSON object"):
        service.submit("run", [1, 2, 3])


def test_rejected_requests_create_no_job(service):
    with pytest.raises(SpecError):
        service.submit("run", {"preset": "nope"})
    assert service.queue.records() == []


# -- lifecycle ------------------------------------------------------------


def test_close_marks_queued_jobs_interrupted(tmp_path):
    service = SimulationService(
        store_path=str(tmp_path / "s.jsonl"), parallel=False
    )
    # Never started: the job can only sit in the queue.
    record = service.submit("sweep", small_sweep_request())
    service.close()
    assert service.queue.get(record.job_id).status == "interrupted"
    with pytest.raises(Exception, match="shutting down"):
        service.submit("sweep", small_sweep_request(grid={"n": [32]}))


def test_restart_marks_stale_jobs_interrupted_and_resume_fills_gap(tmp_path):
    store_path = str(tmp_path / "s.jsonl")
    request = small_sweep_request()

    first = SimulationService(store_path=store_path, parallel=False)
    first.start()
    record = first.submit("sweep", request)
    wait_terminal(first, record.job_id)
    # Simulate a crash mid-flight: force the persisted status back to
    # running without going through stop().
    crashed = first.queue.get(record.job_id)
    crashed.status = "running"
    first.queue.store.save(crashed)
    if first.pool is not None:
        first.pool.close()

    second = SimulationService(store_path=store_path, parallel=False)
    second.start()
    stale = second.queue.get(record.job_id)
    assert stale.status == "interrupted"
    assert "resubmit" in stale.error
    # Resubmitting re-enqueues (interrupted is retryable) and the shared
    # store satisfies every point from cache.
    redo = second.submit("sweep", request)
    assert redo.job_id == record.job_id and redo.status == "queued"
    done = wait_terminal(second, redo.job_id)
    assert done.result["computed"] == 0 and done.result["cached"] == 2
    second.close()


def test_close_is_idempotent(service):
    service.close()
    service.close()
    assert service.healthz()["status"] == "shutting-down"


# -- queries --------------------------------------------------------------


def test_results_query_best_pareto_series_and_limit(service):
    wait_terminal(
        service,
        service.submit("sweep", small_sweep_request(
            grid={"frequency": [4.7, 9.4]}
        )).job_id,
    )
    body = service.results_query({})
    assert body["rows"] == 2 and body["failed"] == 0
    assert "energy_total" in body["columns"]

    best = service.results_query({"best": "energy_total"})["best"]
    assert best["value"] > 0 and best["spec_hash"]

    pareto = service.results_query(
        {"pareto": "energy_total,availability"}
    )["pareto"]
    assert 1 <= len(pareto) <= 2
    assert all("energy_total" in row for row in pareto)

    series = service.results_query(
        {"series": "frequency,energy_total"}
    )["series"]
    assert series["xs"] == [4.7, 9.4] and len(series["ys"]) == 2

    rows = service.results_query({"limit": "1"})["results"]
    assert len(rows) == 1 and rows[0]["metrics"]["energy_total"] > 0

    with pytest.raises(SpecError, match="two comma-separated"):
        service.results_query({"pareto": "energy_total"})
    with pytest.raises(SpecError, match="'limit'"):
        service.results_query({"limit": "many"})


def test_metrics_aggregate_job_counters(service):
    request = small_sweep_request()
    wait_terminal(service, service.submit("sweep", request).job_id)
    wait_terminal(service, service.submit(
        "sweep", small_sweep_request(
            grid={"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]}
        )
    ).job_id)
    metrics = service.metrics()
    assert metrics["jobs"]["done"] == 2
    assert metrics["points"]["computed"] == 4  # caps x 4.7 overlap cached
    assert metrics["points"]["cache_hits"] == 2
    assert metrics["points"]["cache_hit_ratio"] == round(2 / 6, 4)
    assert metrics["store"]["rows"] == 4
    assert metrics["pool"]["parallel"] is False
    assert metrics["uptime_s"] >= 0


def test_deterministic_job_id_matches_module_helper(service):
    request = small_sweep_request()
    assert service.submit("sweep", request).job_id == \
        job_id_for("sweep", request)
