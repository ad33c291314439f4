"""A pure-stdlib client for the simulation service.

A small :mod:`http.client` wrapper used by the example client, the
load-test benchmark and the test suite — and copy-paste-able into any
environment that has Python and no dependencies::

    from repro.serve.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8000")
    job = client.submit_sweep({
        "preset": "fig7",
        "grid": {"capacitance": [22e-6, 47e-6], "frequency": [4.7, 9.4]},
    })
    for line in client.events(job["job_id"]):
        print(line)
    print(client.results(best="energy_total"))

Server-side framework errors surface as :class:`ServiceError` carrying
the server's one-line message and HTTP status — the same text the CLI
would have printed locally.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import weakref
from typing import Any, Dict, Iterator, List, Mapping, Optional
from urllib.parse import urlencode, urlsplit

from repro.errors import ReproError

#: Failures that mean a kept-alive connection went stale (the server
#: closed it while idle): ``RemoteDisconnected`` is a
#: ``ConnectionResetError``.
_STALE_ERRORS = (ConnectionResetError, BrokenPipeError)


class ServiceError(ReproError):
    """A request the service rejected (or could not be delivered).

    Attributes:
        status: the HTTP status code, or None for transport failures.
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Talk to a ``repro serve`` instance over HTTP.

    Each calling thread keeps one persistent HTTP/1.1 connection to the
    server, so a request pays no TCP setup and the server starts no
    thread for it.  A request that fails on a *reused* connection with
    a reset, ``RemoteDisconnected`` or a broken pipe (the server closed
    the idle connection) reconnects once, at once, before that counts
    as a retry.

    Connection errors (refused, reset, DNS) retry with capped
    exponential backoff + jitter before surfacing as
    :class:`ServiceError` — safe for every method here, because GETs
    are idempotent and submissions are content-hash idempotent (a
    retried POST re-addresses the same job).  A timeout does not retry:
    it has already spent the request's time.  HTTP *responses* (4xx,
    5xx) never retry: the server spoke, the answer stands; their body
    is read in full, so the connection stays usable.

    Args:
        base_url: e.g. ``http://127.0.0.1:8000`` (trailing slash ok).
        timeout: per-request socket timeout in seconds (streaming
            endpoints pass their own).
        retries: connection-error retry budget per request (0 restores
            the old fail-on-first-error behavior).
        backoff_s: base backoff; attempt ``k`` waits
            ``min(backoff_cap_s, backoff_s * 2**k)`` plus jitter.
    """

    #: Upper bound on one connection-retry backoff sleep.
    backoff_cap_s = 2.0

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.2,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ServiceError(
                f"base URL must look like http://host:port, "
                f"not {base_url!r}"
            )
        self._url = url
        self._local = threading.local()
        #: Every connection a thread of this client still holds.
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = \
            weakref.WeakSet()
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close the connection of every thread that used this client
        (call it with no request in flight); a later request
        reconnects."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    # -- transport -------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        """A new, not yet connected, connection to the server."""
        connection_class = (
            http.client.HTTPSConnection if self._url.scheme == "https"
            else http.client.HTTPConnection
        )
        return connection_class(
            self._url.hostname, self._url.port, timeout=self.timeout
        )

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection.  A closed one reopens on its next
        request, so the object is made once per thread."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> http.client.HTTPResponse:
        """Send one request on this thread's connection; return the
        response, its body unread, once its status is below 400."""
        target = self._url.path + path
        if params:
            target += "?" + urlencode(params)
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(dict(body)).encode("utf-8")
            headers["Content-Type"] = "application/json"
        timeout = timeout or self.timeout
        attempt = 0
        reconnected = False
        while True:
            connection = self._connection()
            reused = connection.sock is not None
            try:
                connection.timeout = timeout
                if reused:
                    connection.sock.settimeout(timeout)
                connection.request(method, target, body=data,
                                   headers=headers)
                response = connection.getresponse()
            except OSError as error:
                connection.close()
                if isinstance(error, TimeoutError):
                    raise
                if reused and not reconnected \
                        and isinstance(error, _STALE_ERRORS):
                    reconnected = True
                    continue
                if attempt >= self.retries:
                    raise ServiceError(
                        f"cannot reach {self.base_url}: {error}"
                        + (f" (after {attempt + 1} attempts)"
                           if attempt else "")
                    ) from None
                delay = min(self.backoff_cap_s, self.backoff_s * 2 ** attempt)
                time.sleep(delay * (1.0 + 0.25 * random.random()))
                attempt += 1
                continue
            except BaseException:
                connection.close()
                raise
            if response.status < 400:
                return response
            detail = self._read(response).decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                pass
            raise ServiceError(detail.strip() or f"HTTP {response.status}",
                               status=response.status)

    def _read(self, response: http.client.HTTPResponse) -> bytes:
        """The whole body of a response on this thread's connection;
        a read that fails closes the connection, whose stream is then
        out of step."""
        try:
            return response.read()
        except BaseException:
            self._connection().close()
            raise

    def _json(self, *args: Any, **kwargs: Any) -> Dict[str, Any]:
        return json.loads(self._read(self._request(*args, **kwargs)))

    # -- submission ------------------------------------------------------

    def submit_run(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """POST /v1/runs; returns the job record."""
        return self._json("POST", "/v1/runs", body=request)

    def submit_sweep(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """POST /v1/sweeps; returns the job record."""
        return self._json("POST", "/v1/sweeps", body=request)

    def submit_exploration(
        self, request: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """POST /v1/explorations; returns the job record."""
        return self._json("POST", "/v1/explorations", body=request)

    # -- status + results ------------------------------------------------

    def job(self, job_id: str) -> Dict[str, Any]:
        """GET /v1/jobs/{id}: the job's current record."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        """GET /v1/jobs: every job record."""
        return self._json("GET", "/v1/jobs")["jobs"]

    def wait(
        self, job_id: str, timeout: float = 120.0, poll_s: float = 0.1
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] in ("done", "failed", "interrupted"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record['status']!r} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll_s)

    def events(
        self,
        job_id: str,
        since: int = 0,
        follow: bool = True,
        timeout: float = 300.0,
    ) -> Iterator[str]:
        """GET /v1/jobs/{id}/events: yield progress lines as they land.

        ``http.client`` decodes the chunked framing transparently, so
        each yielded value is one complete event line.
        """
        params = {"since": since, "follow": int(follow), "timeout": timeout}
        response = self._request(
            "GET", f"/v1/jobs/{job_id}/events", params=params,
            timeout=timeout + 10.0,
        )
        # The stream holds this thread's connection until its last
        # chunk, so a request made while iterating opens another.
        connection = self._local.connection
        self._local.connection = None
        try:
            for raw in response:
                line = raw.decode("utf-8").rstrip("\n")
                if line:
                    yield line
        finally:
            if response.isclosed() \
                    and getattr(self._local, "connection", None) is None:
                self._local.connection = connection
            else:
                # Abandoned mid-stream: the unread chunks would be
                # parsed as the next response.
                connection.close()

    def results(self, **params: Any) -> Dict[str, Any]:
        """GET /v1/results with the given query parameters.

        ``client.results(best="energy_total")``,
        ``client.results(pareto="energy_total,availability")``,
        ``client.results(series="frequency,energy_total", name=...)``.
        """
        return self._json("GET", "/v1/results", params=params or None)

    def metrics(self) -> Dict[str, Any]:
        """GET /metrics."""
        return self._json("GET", "/metrics")

    def healthz(self) -> Dict[str, Any]:
        """GET /healthz."""
        return self._json("GET", "/healthz")
