"""Shared fixtures: a live service + HTTP server on an ephemeral port.

The server runs ``parallel=False`` so grid points execute on the
executor thread in-process — deterministic, sandbox-safe, and visible
to worker-counting monkeypatches (the same technique the sweep resume
tests use).
"""

import threading

import pytest

from repro.serve import ServiceClient, create_server


@pytest.fixture
def serve_server(tmp_path):
    server = create_server(
        port=0,
        store_path=str(tmp_path / "service.jsonl"),
        parallel=False,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.service.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def client(serve_server):
    host, port = serve_server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield client
    client.close()


def small_sweep_request(**extra):
    """A fast fig7 sweep request (sub-second per point, serial)."""
    request = {
        "preset": "fig7",
        "overrides": {"duration": 0.3, "n": 64},
        "grid": {"capacitance": [22e-6, 47e-6], "frequency": [4.7]},
    }
    request.update(extra)
    return request
