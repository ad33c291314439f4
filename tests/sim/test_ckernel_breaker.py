"""Loading the C kernel: every reason it is absent is counted.

:func:`_ckernel.load` memoises its result, None included, so a process
builds at most once; a failed build, a load that raises and a failed
self-check each land in ``repro_ckernel_load_failures_total{reason}``
and leave the Python rung serving."""

import pytest

from repro import degrade, faults, obs
from repro.sim import _ckernel
from repro.spec.presets import preset
from repro.spec.runner import run_spec


@pytest.fixture(autouse=True)
def pristine_kernel_state():
    """Isolate the memo state; leave the module healthy after."""
    faults.clear()
    _ckernel.reset_cache()
    yield
    faults.clear()
    _ckernel.reset_cache()
    degrade.reset()


def load_failures(reason):
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == "repro_ckernel_load_failures_total" \
                and dict(row["labels"]) == {"reason": reason}:
            return row["value"]
    return 0


def failure_instants():
    return [event["args"] for event in obs.drain()
            if event["name"] == "ckernel.load_failed"]


def test_failed_compile_is_counted_and_the_python_rung_serves(monkeypatch):
    spec = preset("crossover-hibernus").with_override("kernel", "fast")
    before = load_failures("compile")
    with faults.active({"ckernel.compile_fail": 1.0}):
        _ckernel.reset_cache()
        assert _ckernel.load() is None
    assert load_failures("compile") == before + 1
    # The None is memoised: disarming does not rebuild in this process.
    degrade.reset()
    faulted = run_spec(spec, {}).to_record()
    assert degrade.current("chunk.kernel") == "python"
    assert load_failures("compile") == before + 1
    monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
    _ckernel.reset_cache()
    assert run_spec(spec, {}).to_record() == faulted


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
