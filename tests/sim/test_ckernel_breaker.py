"""The C-kernel compile circuit breaker.

Repeated compile failures must not cost a compile attempt per batch
forever: after :data:`BREAKER_THRESHOLD` consecutive failures the
breaker opens and :func:`_compile` short-circuits to the Python rung
until it is explicitly reset."""

import pytest

from repro import faults, obs
from repro.sim import _ckernel


@pytest.fixture(autouse=True)
def pristine_kernel_state():
    """Isolate breaker + memo state; leave the module healthy after."""
    faults.clear()
    _ckernel.reset_breaker()
    _ckernel.reset_cache()
    yield
    faults.clear()
    _ckernel.reset_breaker()
    _ckernel.reset_cache()


def counter_value(name):
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == name and not row["labels"]:
            return row["value"]
    return 0


def test_breaker_opens_after_consecutive_failures():
    failures_before = counter_value("repro_ckernel_compile_failures_total")
    trips_before = counter_value("repro_ckernel_breaker_trips_total")
    with faults.active({"ckernel.compile_fail": 1.0}):
        for attempt in range(1, _ckernel.BREAKER_THRESHOLD + 1):
            _ckernel.reset_cache()
            assert _ckernel.load() is None
            assert _ckernel._compile_failures == attempt
    assert _ckernel.breaker_open()
    assert counter_value("repro_ckernel_compile_failures_total") \
        == failures_before + _ckernel.BREAKER_THRESHOLD
    assert counter_value("repro_ckernel_breaker_trips_total") \
        == trips_before + 1


def test_open_breaker_short_circuits_even_when_builds_would_succeed():
    with faults.active({"ckernel.compile_fail": 1.0}):
        for _ in range(_ckernel.BREAKER_THRESHOLD):
            _ckernel.reset_cache()
            _ckernel.load()
    assert _ckernel.breaker_open()
    # Faults disarmed: a compile would now succeed, but the breaker
    # holds the numpy rung — no compile attempt is even made.
    _ckernel.reset_cache()
    assert _ckernel.load() is None
    assert _ckernel.breaker_open()


def test_reset_breaker_restores_compilation():
    with faults.active({"ckernel.compile_fail": 1.0}):
        for _ in range(_ckernel.BREAKER_THRESHOLD):
            _ckernel.reset_cache()
            _ckernel.load()
    assert _ckernel.breaker_open()
    _ckernel.reset_breaker()
    assert not _ckernel.breaker_open()
    _ckernel.reset_cache()
    # With the breaker closed the build path runs again; on a machine
    # with a toolchain it succeeds and *resets* the failure streak.
    kernel = _ckernel.load()
    if kernel is not None:
        assert _ckernel._compile_failures == 0


def test_single_transient_failure_heals_without_tripping():
    with faults.active({"ckernel.compile_fail": 1.0}):
        _ckernel.reset_cache()
        assert _ckernel.load() is None
    assert _ckernel._compile_failures == 1
    assert not _ckernel.breaker_open()
    _ckernel.reset_cache()
    kernel = _ckernel.load()
    if kernel is not None:  # toolchain present: success clears the streak
        assert _ckernel._compile_failures == 0


def load_failures(reason):
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == "repro_ckernel_load_failures_total" \
                and dict(row["labels"]) == {"reason": reason}:
            return row["value"]
    return 0


def failure_instants():
    return [event["args"] for event in obs.drain()
            if event["name"] == "ckernel.load_failed"]


def test_self_check_mismatch_is_counted_not_silent(monkeypatch):
    if _ckernel._compile() is None:
        pytest.skip("no C compiler available")
    before = load_failures("selfcheck")
    monkeypatch.setattr(_ckernel, "_self_check", lambda kernel: False)
    _ckernel.reset_cache()
    obs.drain()
    with obs.capture():
        assert _ckernel.load() is None
    assert load_failures("selfcheck") == before + 1
    assert failure_instants() == [{"reason": "selfcheck"}]


def test_load_exception_is_counted_not_silent(monkeypatch):
    if _ckernel._compile() is None:
        pytest.skip("no C compiler available")
    before = load_failures("exception")

    def broken(so_path):
        raise OSError("cannot map the library")

    monkeypatch.setattr(_ckernel, "_bind", broken)
    _ckernel.reset_cache()
    obs.drain()
    with obs.capture():
        assert _ckernel.load() is None
    assert load_failures("exception") == before + 1
    assert failure_instants() == [
        {"reason": "exception", "error": "OSError: cannot map the library"}
    ]


def test_ckernel_self_check_guards_loading():
    """The load-time self-check passes for a healthy build (the module
    would otherwise silently fall back to the Python loops)."""
    chunk_loop = _ckernel.load()
    if chunk_loop is None:
        pytest.skip("no C compiler available")
    assert _ckernel._self_check(chunk_loop)
