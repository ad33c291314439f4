"""The HTTP surface of the simulation service (stdlib only).

Built on :class:`http.server.ThreadingHTTPServer`: one daemon thread per
connection for the cheap request/response endpoints, while the heavy
lifting stays on the service's single executor thread and its warm
worker pool.  Routes::

    POST /v1/runs            submit a single-run job
    POST /v1/sweeps          submit a sweep-grid job
    POST /v1/explorations    submit a budgeted-exploration job
    GET  /v1/jobs            list job records
    GET  /v1/jobs/{id}       one job's status + progress counters
    GET  /v1/jobs/{id}/events   chunked stream of progress lines
    GET  /v1/results         store queries (best / pareto / series / rows)
    GET  /healthz            liveness (is the process up?)
    GET  /readyz             readiness (can it execute jobs at full
                             capacity?  503 + failing checks when not;
                             the body also reports the degradation
                             ladder's current rungs)
    GET  /metrics            jobs, cache and pool statistics (JSON by
                             default; ``?format=prometheus`` serves the
                             text exposition format)
    GET  /v1/trace           the live span buffer as Chrome trace JSON

Error contract (the API-boundary satellite): any
:class:`~repro.errors.ReproError` raised while handling a request —
bad spec JSON, unknown component, malformed grid, invalid axis — maps
to **HTTP 400 with the same one-line message** the CLI prints on its
exit-2 path, as ``{"error": "..."}``.  Tracebacks never cross the wire;
a genuinely unexpected failure is a terse 500 with the exception type.

``GET /v1/jobs/{id}/events`` streams with ``Transfer-Encoding:
chunked``: one UTF-8 line per lifecycle transition or
:class:`~repro.spec.runner.BatchProgress` batch, flushed as produced,
ending when the job reaches a terminal status.  ``?since=N`` skips the
first N lines (reconnect support); ``?follow=0`` returns only what has
already happened.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlparse

from repro import obs
from repro.errors import ReproError, SpecError
from repro.serve.service import SimulationService

#: Largest accepted request body; a spec + grid is kilobytes, so
#: anything bigger is a client error, not a workload.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Default keep-alive interval for event streams (override per request
#: with ``?heartbeat=SECONDS``): quiet follows emit a marker line this
#: often so dead sockets surface as broken pipes, not parked threads.
_STREAM_HEARTBEAT_S = 15.0

#: POST collection -> job kind.
_COLLECTIONS = {
    "runs": "run",
    "sweeps": "sweep",
    "explorations": "exploration",
}

#: Prometheus text exposition content type (format version 0.0.4).
_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _coarse_endpoint(path: str) -> str:
    """A low-cardinality endpoint label for request metrics.

    Job ids (and any other per-resource path segment) collapse to
    placeholders so the label set stays bounded no matter how many jobs
    a service sees: ``/v1/jobs/abc123/events`` -> ``/v1/jobs/{id}/events``.
    """
    parts = path.strip("/").split("/")
    if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "jobs":
        parts[2] = "{id}"
    return "/" + "/".join(parts) if parts != [""] else "/"


class ServeHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that owns a :class:`SimulationService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: SimulationService):
        super().__init__(address, ServeHandler)
        self.service = service


class ServeHandler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`SimulationService`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in separate sends; with Nagle on, a client
    # holding its connection open waits out a delayed ACK (~40 ms) on
    # every request.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        # Quiet by default; the job event streams are the observability
        # surface.  Subclass to re-enable stdlib request logging.
        pass

    def setup(self) -> None:
        super().setup()
        # One handler instance serves one connection, so this counts
        # connections; with repro_http_requests_total it shows how many
        # requests each kept-alive connection carried.
        obs.counter("repro_http_connections_total").inc()

    def _send(self, status: int, payload: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        # Without indent, json encodes on its C encoder; the compact
        # separators also shrink the body.
        payload = json.dumps(body, separators=(",", ":")) + "\n"
        self._send(status, payload.encode("utf-8"), "application/json")

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _body_length(self) -> int:
        """The request body's declared byte count.

        A body this handler will not read in full — over the limit,
        chunked, or of malformed length — marks the connection to close
        after the reply, so its bytes are never parsed as the next
        request on a kept-alive connection.
        """
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES \
                or "Transfer-Encoding" in self.headers:
            self.close_connection = True
        return length

    def _discard_body(self) -> None:
        """Read and drop a body no route uses (or close, see
        :meth:`_body_length`)."""
        length = self._body_length()
        if length > 0 and not self.close_connection:
            self.rfile.read(length)

    def _read_body(self) -> Dict[str, Any]:
        length = self._body_length()
        if length > MAX_BODY_BYTES:
            raise SpecError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if length <= 0:
            raise SpecError("request needs a JSON body")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise SpecError(f"request body is not valid JSON: {error}")

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        return parsed.path.rstrip("/") or "/", dict(parse_qsl(parsed.query))

    # -- request handling ------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._timed("POST", self._handle_post)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._timed("GET", self._handle_get)

    def _timed(self, method: str, handler: Any) -> None:
        """Run one request handler under per-endpoint latency metrics.

        Endpoint labels are coarse (:func:`_coarse_endpoint`), so the
        per-(method, endpoint) histogram family stays bounded.  The
        measured time covers the whole handler — for event streams that
        includes the follow, which is the honest request latency.
        """
        path, _ = self._route()
        endpoint = _coarse_endpoint(path)
        t0 = time.monotonic()
        try:
            handler()
        finally:
            obs.counter(
                "repro_http_requests_total",
                method=method, endpoint=endpoint,
            ).inc()
            obs.histogram(
                "repro_http_request_seconds",
                method=method, endpoint=endpoint,
            ).observe(time.monotonic() - t0)

    def _handle_post(self) -> None:
        path, _params = self._route()
        self.service.requests_served += 1
        try:
            parts = path.strip("/").split("/")
            if len(parts) == 2 and parts[0] == "v1" and \
                    parts[1] in _COLLECTIONS:
                record = self.service.submit(
                    _COLLECTIONS[parts[1]], self._read_body()
                )
                self._send_json(202, record.to_record())
                return
            self._discard_body()
            self._send_error_json(404, f"no such endpoint: POST {path}")
        except ReproError as error:
            # The CLI's one-line exit-2 contract, over HTTP: client
            # errors are 400s carrying the message, never tracebacks.
            self._send_error_json(400, str(error))
        except BrokenPipeError:
            pass
        except Exception as error:
            self._send_error_json(500, f"internal error: "
                                       f"{type(error).__name__}")

    def _handle_get(self) -> None:
        path, params = self._route()
        self.service.requests_served += 1
        self._discard_body()
        try:
            if path == "/healthz":
                self._send_json(200, self.service.healthz())
            elif path == "/readyz":
                body = self.service.readyz()
                self._send_json(200 if body["ready"] else 503, body)
            elif path == "/metrics":
                if params.get("format") == "prometheus":
                    self._send_text(
                        200,
                        self.service.metrics_prometheus(),
                        _PROMETHEUS_CONTENT_TYPE,
                    )
                else:
                    self._send_json(200, self.service.metrics())
            elif path == "/v1/trace":
                self._send_json(200, self.service.trace())
            elif path == "/v1/jobs":
                self._send_json(200, {
                    "jobs": [
                        r.to_record() for r in self.service.queue.records()
                    ],
                })
            elif path.startswith("/v1/jobs/"):
                self._job_route(path, params)
            elif path == "/v1/results":
                self._send_json(200, self.service.results_query(params))
            else:
                self._send_error_json(404, f"no such endpoint: GET {path}")
        except ReproError as error:
            self._send_error_json(400, str(error))
        except BrokenPipeError:
            pass
        except Exception as error:
            self._send_error_json(500, f"internal error: "
                                       f"{type(error).__name__}")

    def _job_route(self, path: str, params: Dict[str, str]) -> None:
        parts = path.strip("/").split("/")
        job_id = parts[2]
        record = self.service.queue.get(job_id)
        if record is None:
            self._send_error_json(404, f"no such job: {job_id}")
            return
        if len(parts) == 3:
            self._send_json(200, record.to_record())
            return
        if len(parts) == 4 and parts[3] == "events":
            self._stream_events(job_id, params)
            return
        self._send_error_json(404, f"no such endpoint: GET {path}")

    def _stream_events(self, job_id: str, params: Dict[str, str]) -> None:
        try:
            since = int(params.get("since", 0))
        except ValueError:
            raise SpecError("'since' must be an integer event index")
        follow = params.get("follow", "1").lower() not in ("0", "false", "no")
        try:
            timeout = float(params.get("timeout", 300.0))
        except ValueError:
            raise SpecError("'timeout' must be a number of seconds")
        try:
            heartbeat = float(params.get("heartbeat", _STREAM_HEARTBEAT_S))
        except ValueError:
            raise SpecError("'heartbeat' must be a number of seconds")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            # Heartbeat lines double as liveness probes: writing one to
            # a vanished client raises BrokenPipeError here, freeing the
            # thread instead of parking it until `timeout`.
            for line in self.service.queue.events(
                job_id, since=since, follow=follow, timeout=timeout,
                heartbeat=heartbeat,
            ):
                self._write_chunk(line + "\n")
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-stream; nothing to clean up — the
            # job keeps running and the event log keeps accumulating.
            self.close_connection = True

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()


def create_server(
    host: str = "127.0.0.1",
    port: int = 8000,
    service: Optional[SimulationService] = None,
    **service_kwargs: Any,
) -> ServeHTTPServer:
    """Bind the API to ``host:port`` over a started service.

    Pass an existing :class:`SimulationService` to share it, or service
    keyword arguments (``store_path``, ``max_workers``, ``parallel``) to
    construct one.  ``port=0`` binds an ephemeral port (tests); read it
    back from ``server.server_address``.
    """
    if service is None:
        service = SimulationService(**service_kwargs)
    service.start()
    return ServeHTTPServer((host, port), service)


def serve_forever(server: ServeHTTPServer) -> None:
    """Run until SIGTERM/SIGINT, then shut down gracefully.

    Signals route through :func:`repro.spec.runner.install_signal_handlers`,
    whose hooks mark in-flight jobs ``interrupted`` and reap the warm
    pool before the process exits — the no-leaked-workers contract.
    """
    from repro.spec.runner import install_signal_handlers

    install_signal_handlers()
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.service.close()
        server.server_close()
