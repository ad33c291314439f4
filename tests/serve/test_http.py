"""The HTTP surface end-to-end: a real server on an ephemeral port."""

import json
from urllib.request import Request, urlopen

import pytest

from repro.serve import ServiceError
from tests.serve.conftest import small_sweep_request


def test_healthz_and_metrics_respond(client):
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["jobs"]["running"] == 0
    metrics = client.metrics()
    assert metrics["store"]["rows"] == 0
    assert metrics["requests_served"] >= 1


def test_sweep_submit_poll_results_round_trip(client):
    job = client.submit_sweep(small_sweep_request())
    assert job["status"] == "queued" and job["kind"] == "sweep"
    done = client.wait(job["job_id"])
    assert done["status"] == "done"
    assert done["result"]["computed"] == 2
    assert done["schema"] == 1

    body = client.results(best="energy_total")
    assert body["rows"] == 2
    assert body["best"]["value"] > 0
    assert client.job(job["job_id"])["result"] == done["result"]
    assert any(j["job_id"] == job["job_id"] for j in client.jobs())


def test_idempotent_resubmission_over_http(client):
    request = small_sweep_request()
    first = client.submit_sweep(request)
    done = client.wait(first["job_id"])
    again = client.submit_sweep(request)
    assert again["job_id"] == first["job_id"]
    assert again["status"] == "done"
    assert client.metrics()["points"]["computed"] == \
        done["points_computed"]  # nothing recomputed


def test_exploration_and_run_over_http(client):
    run = client.submit_run({
        "preset": "fig7", "overrides": {"duration": 0.3, "n": 64},
    })
    assert client.wait(run["job_id"])["result"]["metrics"][
        "energy_total"] > 0

    exploration = client.submit_exploration({
        "preset": "fig7",
        "overrides": {"duration": 0.3, "n": 64},
        "space": {"capacitance": {"kind": "log", "low": 1e-5, "high": 1e-4}},
        "objectives": ["energy_total:min"],
        "optimizer": "random",
        "budget": 3,
        "seed": 1,
    })
    done = client.wait(exploration["job_id"])
    assert done["status"] == "done"
    assert done["result"]["evaluations"] == 3


def test_event_stream_covers_the_lifecycle(client):
    job = client.submit_sweep(small_sweep_request())
    lines = list(client.events(job["job_id"]))  # follows until terminal
    text = "\n".join(lines)
    assert "queued" in text and "running" in text and "done:" in text
    # Reconnect support: ?since skips what was already seen.
    tail = list(client.events(job["job_id"], since=len(lines) - 1,
                              follow=False))
    assert tail == lines[-1:]
    assert list(client.events(job["job_id"], since=0, follow=False)) == lines


def test_framework_errors_are_one_line_400s(client):
    cases = [
        ("submit_run", {"preset": "nope"}),
        ("submit_run", {}),
        ("submit_sweep", small_sweep_request(grid={"not_a_knob": [1]})),
        ("submit_sweep", {"preset": "fig7", "grid": {}}),
        ("submit_run", {"preset": "fig7", "traces": ["bogus"]}),
        ("submit_exploration", {
            "preset": "fig7",
            "space": {"capacitance": {"kind": "banana", "low": 1, "high": 2}},
            "budget": 3,
        }),
    ]
    for method, request in cases:
        with pytest.raises(ServiceError) as excinfo:
            getattr(client, method)(request)
        assert excinfo.value.status == 400
        message = str(excinfo.value)
        assert "\n" not in message and "Traceback" not in message
        assert message  # the CLI's one-liner, not an empty body


def test_unknown_preset_400_names_the_alternatives(client):
    with pytest.raises(ServiceError, match="fig7") as excinfo:
        client.submit_run({"preset": "nope"})
    assert excinfo.value.status == 400


def test_malformed_json_body_is_a_400_not_a_500(serve_server):
    host, port = serve_server.server_address[:2]
    request = Request(
        f"http://{host}:{port}/v1/sweeps",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        urlopen(request, timeout=10)
        raise AssertionError("expected HTTP 400")
    except Exception as error:
        assert getattr(error, "code", None) == 400
        body = json.loads(error.read())
        assert "not valid JSON" in body["error"]


def test_empty_body_is_a_400(client):
    with pytest.raises(ServiceError, match="JSON body") as excinfo:
        client._json("POST", "/v1/sweeps")
    assert excinfo.value.status == 400


def test_unknown_routes_and_jobs_are_404s(client):
    with pytest.raises(ServiceError) as excinfo:
        client._json("GET", "/v1/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError, match="no such job") as excinfo:
        client.job("job-0000000000000000")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._json("POST", "/v1/teleports", body={})
    assert excinfo.value.status == 404


def test_bad_results_query_is_a_400(client):
    with pytest.raises(ServiceError, match="two comma-separated") as excinfo:
        client.results(pareto="energy_total")
    assert excinfo.value.status == 400


def test_results_series_and_pareto_over_http(client):
    client.wait(client.submit_sweep(small_sweep_request(
        grid={"frequency": [4.7, 9.4]}
    ))["job_id"])
    series = client.results(series="frequency,energy_total")["series"]
    assert series["xs"] == [4.7, 9.4]
    pareto = client.results(pareto="energy_total,availability")["pareto"]
    assert len(pareto) >= 1


def test_persistent_connection_requests_do_not_stall(serve_server):
    """Headers and body leave in separate sends; with Nagle on, each
    request on a kept-alive connection waits out a delayed ACK."""
    import http.client
    import statistics
    import time

    host, port = serve_server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        elapsed = []
        for _ in range(5):
            t0 = time.perf_counter()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert json.loads(response.read())["status"] == "ok"
            elapsed.append(time.perf_counter() - t0)
    finally:
        connection.close()
    assert statistics.median(elapsed) < 0.020, elapsed


# -- kept-alive connections ------------------------------------------------


def connections_total():
    from repro import obs

    return obs.counter("repro_http_connections_total").value


def test_an_unread_request_body_does_not_poison_the_connection(serve_server):
    """A POST answered without reading its body (a 404, an over-limit
    refusal) must not leave those bytes to be parsed as the next
    request on the same connection."""
    import http.client

    from repro.serve.api import MAX_BODY_BYTES

    host, port = serve_server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)

    def healthz():
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"

    try:
        connection.request("POST", "/v1/nope", body=b"{" + b" " * 2046 + b"}",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 404
        response.read()
        healthz()

        connection.putrequest("POST", "/v1/sweeps")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        connection.endheaders()
        connection.send(b"x" * 2048)  # the refusal must not wait for more
        response = connection.getresponse()
        assert response.status == 400
        assert "exceeds" in json.loads(response.read())["error"]
        healthz()
    finally:
        connection.close()


def test_one_thread_keeps_one_connection(client):
    before = connections_total()
    for _ in range(20):
        assert client.healthz()["status"] == "ok"
    assert connections_total() - before == 1


def test_each_thread_sharing_a_client_gets_its_own_connection(client):
    import threading

    before = connections_total()
    errors = []

    def drive():
        try:
            for _ in range(10):
                client.healthz()
        except Exception as error:  # surfaced below
            errors.append(error)

    threads = [threading.Thread(target=drive) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert connections_total() - before == 2


def test_an_http_error_leaves_the_connection_reusable(client):
    before = connections_total()
    with pytest.raises(ServiceError) as excinfo:
        client._json("GET", "/v1/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.submit_run({"preset": "nope"})
    assert excinfo.value.status == 400
    assert client.healthz()["status"] == "ok"
    assert connections_total() - before == 1


def test_a_finished_event_stream_returns_its_connection(client):
    job = client.submit_sweep(small_sweep_request())
    before = connections_total()
    lines = list(client.events(job["job_id"]))
    assert "done:" in lines[-1]
    assert client.job(job["job_id"])["status"] == "done"
    assert connections_total() - before == 0


def test_an_abandoned_event_stream_drops_its_connection(client):
    job = client.submit_sweep(small_sweep_request())
    before = connections_total()
    stream = client.events(job["job_id"], timeout=60)
    assert "queued" in next(stream)
    # A request while the stream is open rides a connection of its own.
    assert client.healthz()["status"] == "ok"
    stream.close()  # abandoned before the terminating chunk
    assert client.wait(job["job_id"])["status"] == "done"
    assert connections_total() - before == 1
