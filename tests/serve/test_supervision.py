"""Job-level supervision: deadlines, retries, readiness, client retry.

The service's contract mirrors the pool supervisor one layer up: a job
carries a total wall budget (``deadline_s``) and a retry budget
(``max_retries``) that covers both engine-level failures (delayed
re-enqueue) and task-level worker crashes (the derived
:class:`SupervisionPolicy`)."""

import io
import json
import time
from urllib.error import HTTPError, URLError

import pytest

from repro import faults
from repro.errors import SpecError
from repro.serve import SimulationService
from repro.serve.client import ServiceClient, ServiceError
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


# -- validation ----------------------------------------------------------


@pytest.mark.parametrize("bad", [
    {"deadline_s": -1}, {"deadline_s": 0}, {"deadline_s": "soon"},
    {"deadline_s": True},
    {"max_retries": -1}, {"max_retries": 1.5}, {"max_retries": True},
    {"max_retries": "many"},
    {"deadline_s": float("inf")}, {"deadline_s": float("nan")},
])
def test_supervision_fields_are_validated(service, bad):
    with pytest.raises(SpecError):
        service.submit("sweep", small_sweep_request(**bad))


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_json_deadlines_are_rejected(service, literal):
    # JSON bodies parse these literals to floats; none is a deadline.
    request = small_sweep_request(
        deadline_s=json.loads(f'{{"d": {literal}}}')["d"]
    )
    with pytest.raises(SpecError, match="deadline_s"):
        service.submit("sweep", request)


@pytest.mark.parametrize("defaults", [
    {"default_deadline_s": -1}, {"default_deadline_s": float("inf")},
    {"default_max_retries": -1},
])
def test_service_defaults_are_validated_at_construction(tmp_path, defaults):
    with pytest.raises(SpecError):
        SimulationService(
            store_path=str(tmp_path / "s.jsonl"), parallel=False, **defaults
        )
    assert not (tmp_path / "s.jsonl").exists()


def test_supervision_fields_land_on_the_record(service):
    record = service.submit(
        "sweep", small_sweep_request(deadline_s=300, max_retries=2)
    )
    assert record.deadline_s == 300.0
    assert record.max_retries == 2
    # ...and survive the job store round trip.
    assert service.queue.get(record.job_id).deadline_s == 300.0


# -- deadlines -----------------------------------------------------------


def test_job_expired_in_queue_fails_without_running(tmp_path):
    # An unstarted queue: the job sits queued while its budget drains.
    service = SimulationService(
        store_path=str(tmp_path / "s.jsonl"), parallel=False
    )
    try:
        record = service.submit(
            "sweep", small_sweep_request(deadline_s=0.01)
        )
        time.sleep(0.05)
        service._execute_job(record)
        assert record.status == "failed"
        assert "deadline of 0.01s exceeded before execution" in record.error
        # It never ran: no attempt was burned, nothing computed.
        assert record.attempts == 0
        assert record.points_computed == 0
    finally:
        service.close()


def test_generous_deadline_does_not_disturb_the_job(service):
    record = service.submit(
        "sweep", small_sweep_request(deadline_s=300, max_retries=1)
    )
    done = wait_terminal(service, record.job_id)
    assert done.status == "done"
    assert done.result["points"] == 2


# -- retries -------------------------------------------------------------


def test_transient_engine_failure_retries_then_succeeds(service):
    original = service._sweep_job
    calls = {"n": 0}

    def flaky(record, policy=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient engine failure")
        return original(record, policy)

    service._sweep_job = flaky
    record = service.submit(
        "sweep", small_sweep_request(max_retries=2)
    )
    done = wait_terminal(service, record.job_id)
    assert done.status == "done"
    assert done.attempts == 1
    assert calls["n"] == 2
    events = service.queue.events(
        record.job_id, follow=False
    )
    assert any("retrying in" in line for line in events)


def test_serial_exploration_job_retries_worker_crashes(service):
    """An exploration job's ``max_retries`` supervises its evaluations on
    the in-process executor too: injected transient crashes retry until
    no error row is left."""
    with faults.active({"worker.crash": 0.5}, seed=11):
        record = service.submit("exploration", {
            "preset": "fig7",
            "overrides": {"n": 64, "duration": 0.25},
            "space": {
                "capacitance": {"kind": "log", "low": 1e-5, "high": 1e-4},
            },
            "optimizer": "random",
            "budget": 4,
            "max_retries": 10,
        })
        done = wait_terminal(service, record.job_id)
    assert done.status == "done"
    assert done.result["evaluations"] == 4
    assert done.result["errors"] == 0


def test_retry_budget_exhausts_to_failed(service):
    def always_broken(record, policy=None):
        raise RuntimeError("engine is down")

    service._sweep_job = always_broken
    record = service.submit(
        "sweep", small_sweep_request(max_retries=1)
    )
    done = wait_terminal(service, record.job_id)
    assert done.status == "failed"
    assert done.attempts == 2  # the first try + one retry
    assert "RuntimeError: engine is down" in done.error


def test_no_retry_budget_fails_immediately(service):
    def always_broken(record, policy=None):
        raise RuntimeError("engine is down")

    service._sweep_job = always_broken
    record = service.submit("sweep", small_sweep_request())
    done = wait_terminal(service, record.job_id)
    assert done.status == "failed"
    assert done.attempts == 1


# -- liveness vs readiness -----------------------------------------------


def test_readyz_reports_checks_and_degrade(service):
    body = service.readyz()
    assert body["ready"] is True
    assert body["checks"] == {
        "accepting": True, "executor": True, "pool": True,
    }
    assert "degrade" in body
    service.close()
    closed = service.readyz()
    assert closed["ready"] is False
    assert closed["checks"]["accepting"] is False


def test_readyz_shows_the_rung_fast_chunks_ran_on(service):
    from repro import degrade
    from repro.sim import _ckernel

    degrade.reset()
    record = service.submit("sweep", {
        "preset": "crossover-hibernus",
        "overrides": {"kernel": "fast", "duration": 0.3},
        "grid": {"frequency": [20.0, 40.0]},
    })
    assert wait_terminal(service, record.job_id).status == "done"
    mode = "python" if _ckernel.load() is None else "c"
    assert service.readyz()["degrade"]["chunk.kernel"] == {
        "mode": mode, "level": degrade.level_of("chunk.kernel", mode),
    }


def test_readyz_http_surface(client):
    body = client._json("GET", "/readyz")
    assert body["ready"] is True
    assert isinstance(body["degrade"], dict)
    # Liveness stays a separate, simpler question.
    assert client.healthz()["status"] == "ok"


# -- client connection retry ---------------------------------------------


class _FakeResponse:
    def __init__(self, payload: bytes):
        self._payload = payload

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self) -> bytes:
        return self._payload


def test_client_retries_connection_errors(monkeypatch):
    from repro.serve import client as client_mod

    calls = {"n": 0}

    def flaky_urlopen(request, timeout=None):
        calls["n"] += 1
        if calls["n"] < 3:
            raise URLError(ConnectionRefusedError(111, "refused"))
        return _FakeResponse(b'{"status": "ok"}')

    monkeypatch.setattr(client_mod, "urlopen", flaky_urlopen)
    api = ServiceClient("http://127.0.0.1:9", retries=3, backoff_s=0.0)
    assert api.healthz() == {"status": "ok"}
    assert calls["n"] == 3


def test_client_retry_budget_exhausts_with_attempt_count(monkeypatch):
    from repro.serve import client as client_mod

    calls = {"n": 0}

    def dead_urlopen(request, timeout=None):
        calls["n"] += 1
        raise URLError(ConnectionRefusedError(111, "refused"))

    monkeypatch.setattr(client_mod, "urlopen", dead_urlopen)
    api = ServiceClient("http://127.0.0.1:9", retries=2, backoff_s=0.0)
    with pytest.raises(ServiceError, match=r"after 3 attempts"):
        api.healthz()
    assert calls["n"] == 3


def test_client_never_retries_http_errors(monkeypatch):
    from repro.serve import client as client_mod

    calls = {"n": 0}

    def rejecting_urlopen(request, timeout=None):
        calls["n"] += 1
        raise HTTPError(
            request.full_url, 400, "Bad Request", {},
            io.BytesIO(b'{"error": "bad spec"}'),
        )

    monkeypatch.setattr(client_mod, "urlopen", rejecting_urlopen)
    api = ServiceClient("http://127.0.0.1:9", retries=3, backoff_s=0.0)
    with pytest.raises(ServiceError, match="bad spec") as excinfo:
        api.healthz()
    assert excinfo.value.status == 400
    assert calls["n"] == 1  # the server spoke; the answer stands
