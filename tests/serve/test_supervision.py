"""Job-level supervision: deadlines, retries, readiness, client retry.

The service's contract mirrors the pool supervisor one layer up: a job
carries a total wall budget (``deadline_s``) and a retry budget
(``max_retries``) that covers both engine-level failures (delayed
re-enqueue) and task-level worker crashes (the derived
:class:`SupervisionPolicy`)."""

import json
import socket
import threading
import time

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
    def __init__(self, status: int, payload: bytes):
        self.status = status
        self._payload = payload

    def read(self) -> bytes:
        return self._payload


class _FakeConnection:
    """Stands in for the ``http.client`` connection behind
    ``ServiceClient._connect``; ``respond(n)`` answers the n-th request
    or raises the transport error it should meet."""

    def __init__(self, respond):
        self.respond = respond
        self.calls = 0
        self.sock = None
        self.timeout = None

    def request(self, method, target, body=None, headers=None):
        self.calls += 1
        self._response = self.respond(self.calls)

    def getresponse(self):
        return self._response

    def close(self):
        self.sock = None


def fake_transport(monkeypatch, respond):
    connection = _FakeConnection(respond)
    monkeypatch.setattr(ServiceClient, "_connect", lambda self: connection)
    return connection


def test_client_retries_connection_errors(monkeypatch):
    def flaky(n):
        if n < 3:
            raise ConnectionRefusedError(111, "refused")
        return _FakeResponse(200, b'{"status": "ok"}')

    connection = fake_transport(monkeypatch, flaky)
    api = ServiceClient("http://127.0.0.1:9", retries=3, backoff_s=0.0)
    assert api.healthz() == {"status": "ok"}
    assert connection.calls == 3


def test_client_retry_budget_exhausts_with_attempt_count(monkeypatch):
    def dead(n):
        raise ConnectionRefusedError(111, "refused")

    connection = fake_transport(monkeypatch, dead)
    api = ServiceClient("http://127.0.0.1:9", retries=2, backoff_s=0.0)
    with pytest.raises(ServiceError, match=r"after 3 attempts"):
        api.healthz()
    assert connection.calls == 3


def test_client_never_retries_http_errors(monkeypatch):
    def rejecting(n):
        return _FakeResponse(400, b'{"error": "bad spec"}')

    connection = fake_transport(monkeypatch, rejecting)
    api = ServiceClient("http://127.0.0.1:9", retries=3, backoff_s=0.0)
    with pytest.raises(ServiceError, match="bad spec") as excinfo:
        api.healthz()
    assert excinfo.value.status == 400
    assert connection.calls == 1  # the server spoke; the answer stands


class _OneShotServer:
    """A raw HTTP/1.1 server that answers ``answers`` requests on each
    connection it accepts, then closes it without a ``Connection:
    close`` — what a server timing out an idle kept-alive connection
    does."""

    def __init__(self, answers):
        self.answers = answers
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            with conn, conn.makefile("rb") as stream:
                for _ in range(self.answers):
                    while stream.readline() not in (b"\r\n", b""):
                        pass
                    body = b'{"status": "ok"}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                        b"\r\nContent-Length: %d\r\n\r\n%s"
                        % (len(body), body)
                    )

    def close(self):
        self.listener.close()


def test_client_reconnects_once_when_the_server_closed_an_idle_connection(
    monkeypatch,
):
    from repro.serve import client as client_mod

    def no_backoff(seconds):
        raise AssertionError("a stale connection must not cost a retry")

    monkeypatch.setattr(client_mod.time, "sleep", no_backoff)
    server = _OneShotServer(answers=1)
    try:
        api = ServiceClient(server.url, retries=0)
        for _ in range(3):
            assert api.healthz() == {"status": "ok"}
        assert server.accepted == 3
    finally:
        server.close()


def test_client_reconnects_only_once_per_request():
    """A fresh connection that fails too is a real connection error."""
    server = _OneShotServer(answers=1)
    try:
        api = ServiceClient(server.url, retries=0)
        assert api.healthz() == {"status": "ok"}
        server.answers = 0  # every later connection closes unanswered
        with pytest.raises(ServiceError, match="cannot reach"):
            api.healthz()
        assert server.accepted == 2
    finally:
        server.close()
