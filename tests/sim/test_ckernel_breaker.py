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
    would otherwise silently fall back to the Python loops), its
    waveform cases too."""
    kernel = _ckernel.load()
    if kernel is None:
        pytest.skip("no C compiler available")
    assert _ckernel._self_check(kernel)
    assert _ckernel._waveform_self_check(kernel) and kernel.waveforms


def degrade_transitions(domain, mode):
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == "repro_degrade_transitions_total" \
                and dict(row["labels"]) == {"domain": domain, "mode": mode}:
            return row["value"]
    return 0


def test_a_waveform_mismatch_switches_off_only_the_waveforms(monkeypatch):
    """A host whose numpy ``sin`` differs from libm's (here: numpy's
    values moved one ulp) fails only the waveform self-check: the
    library still loads, the chunk loop reads closed-form sources from
    the memo as the Python loop does, the switch is a labelled degrade
    event, and rows do not change."""
    import numpy as np

    from repro.harvest.synthetic import SignalGenerator

    if _ckernel._compile() is None:
        pytest.skip("no C compiler available")
    spec = preset("fig7").with_overrides({"kernel": "fast", "duration": 0.6})
    healthy = run_spec(spec, {}).to_record()
    real = SignalGenerator.open_circuit_voltage_array
    monkeypatch.setattr(
        SignalGenerator, "open_circuit_voltage_array",
        lambda self, times: np.nextafter(real(self, times), np.inf),
    )
    before = load_failures("selfcheck")
    switched = degrade_transitions("chunk.waveform", "memo")
    _ckernel.reset_cache()
    degrade.reset()
    kernel = _ckernel.load()
    assert kernel is not None and not kernel.waveforms
    assert load_failures("selfcheck") == before
    assert degrade.current("chunk.waveform") == "memo"
    assert degrade.snapshot()["chunk.waveform"] == {"mode": "memo",
                                                    "level": 1}
    assert degrade_transitions("chunk.waveform", "memo") == switched + 1
    monkeypatch.setattr(SignalGenerator, "open_circuit_voltage_array", real)
    system = spec.build()
    system.run(spec.duration)
    (injector,) = system.rail._injectors
    assert degrade.current("chunk.kernel") == "c"
    assert injector._memo.evaluated >= system.simulator.steps
    assert run_spec(spec, {}).to_record() == healthy


def test_self_check_fused_replays_undo_every_kind_of_step():
    """The self-check's machines stepped inside chunks undo a step for
    each cause a chunk can undo one: a later load's boundary (a step
    that ran its budget), a port, a ckpt pause, the halt and a fault;
    so a miscompiled undo of any of them discards the library."""
    exits = set()
    for case in _ckernel._FUSED_CASES:
        exits |= _ckernel._fused_replay(None, *case)[1]
    assert exits >= {
        _ckernel.EXIT_BUDGET, _ckernel.EXIT_PORT, _ckernel.EXIT_CKPT,
        _ckernel.EXIT_HALT,
    }, exits
    assert exits & {_ckernel.EXIT_PC, _ckernel.EXIT_READ,
                    _ckernel.EXIT_WRITE}, exits
