"""The degradation ladder: rung tracking, change-only transitions and
the ``/readyz`` snapshot shape."""

import pytest

from repro import degrade, obs


@pytest.fixture(autouse=True)
def fresh_ladder():
    degrade.reset()
    yield
    degrade.reset()


def transition_count(domain, mode):
    wanted = {"domain": domain, "mode": mode}
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == "repro_degrade_transitions_total" \
                and dict(row["labels"]) == wanted:
            return row["value"]
    return 0


def test_level_of_orders_rungs_best_first():
    assert degrade.level_of("chunk.kernel", "c") == 0
    assert degrade.level_of("chunk.kernel", "python") == 1
    assert degrade.level_of("mcu.kernel", "c") == 0
    assert degrade.level_of("mcu.kernel", "python") == 1
    assert degrade.level_of("executor", "pool") == 0
    assert degrade.level_of("executor", "serial") == 1
    # Unknown domains/modes collapse to rung 0 instead of exploding.
    assert degrade.level_of("nope", "whatever") == 0


def test_report_tracks_current_mode():
    assert degrade.current("chunk.kernel") is None
    degrade.report("chunk.kernel", "c")
    assert degrade.current("chunk.kernel") == "c"
    degrade.report("chunk.kernel", "python")
    assert degrade.current("chunk.kernel") == "python"


def test_snapshot_reports_mode_and_level():
    degrade.report("chunk.kernel", "python")
    degrade.report("executor", "pool")
    assert degrade.snapshot() == {
        "chunk.kernel": {"mode": "python", "level": 1},
        "executor": {"mode": "pool", "level": 0},
    }


def test_transitions_count_changes_not_reports():
    before = transition_count("executor", "serial")
    degrade.report("executor", "serial")
    degrade.report("executor", "serial")  # steady state: no new transition
    degrade.report("executor", "serial")
    assert transition_count("executor", "serial") == before + 1
    degrade.report("executor", "pool")
    degrade.report("executor", "serial")  # a genuine flap counts again
    assert transition_count("executor", "serial") == before + 2


def fast_run():
    """A short fast-kernel run that advances in many chunks (chunks
    follow its transitions, so only its length sets their number)."""
    from repro.spec.presets import preset

    spec = preset("crossover-hibernus", frequency=20.0, duration=8.0,
                  total_cycles=40_000_000)
    spec = spec.with_overrides({"kernel": "fast"})
    system = spec.build()
    system.run(spec.duration)
    return system.simulator.chunk_stats.chunks


@pytest.mark.parametrize("disabled", [False, True])
def test_solo_chunks_report_their_rung_once_per_run(monkeypatch, disabled):
    """The solo fast path reports ``chunk.kernel`` once per run (never
    per chunk), on the rung the compiled loop's availability implies."""
    from repro.sim import _ckernel

    if disabled:
        monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
    _ckernel.reset_cache()
    reports = []
    real_report = degrade.report

    def spy(domain, mode):
        if domain == "chunk.kernel":
            reports.append(mode)
        real_report(domain, mode)

    monkeypatch.setattr(degrade, "report", spy)
    try:
        chunks = fast_run() + fast_run()
        expected = "python" if _ckernel.load() is None else "c"
    finally:
        monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
        _ckernel.reset_cache()
    assert chunks > 10
    assert reports == [expected, expected]
    assert degrade.snapshot()["chunk.kernel"] == {
        "mode": expected, "level": degrade.level_of("chunk.kernel", expected),
    }
    if disabled:
        assert expected == "python"


def converter_fed_run():
    """A 1 s fast-kernel run whose one power source sits behind a
    converter, which the compiled loop cannot read."""
    from repro.core.system import EnergyDrivenSystem
    from repro.harvest.synthetic import SquareWavePowerHarvester
    from repro.power.converter import LinearRegulator
    from repro.power.rail import ResistiveLoad
    from repro.storage.capacitor import Capacitor

    system = EnergyDrivenSystem(dt=1e-4, kernel="fast")
    system.set_storage(Capacitor(47e-6, v_max=3.3))
    system.add_power_source(
        SquareWavePowerHarvester(5e-3, 0.2), converter=LinearRegulator(2.5)
    )
    system.add_load(ResistiveLoad(5000.0))
    system.run(1.0)
    return system.simulator.chunk_stats.chunks


def test_declined_chunks_report_the_python_rung(monkeypatch):
    """With the library loaded, a converter-fed rail's chunks all run on
    the Python loop, and that is the rung reported; the next run whose
    chunks the compiled loop serves reports ``c`` again."""
    from repro.sim import _ckernel

    _ckernel.reset_cache()
    if _ckernel.load() is None:
        pytest.skip("no C compiler available")
    served = []
    real_run = _ckernel.ChunkLoop.run

    def counting_run(self, *args):
        result = real_run(self, *args)
        served.append(result is not None)
        return result

    reports = []
    real_report = degrade.report

    def spy(domain, mode):
        if domain == "chunk.kernel":
            reports.append(mode)
        real_report(domain, mode)

    monkeypatch.setattr(_ckernel.ChunkLoop, "run", counting_run)
    monkeypatch.setattr(degrade, "report", spy)
    assert converter_fed_run() > 1
    assert degrade.current("chunk.kernel") == "python"
    assert served == [False]  # declined once, then the run stays in Python
    assert fast_run() > 10
    assert all(served[1:])
    assert reports == ["python", "c"]
    assert degrade.current("chunk.kernel") == "c"


@pytest.mark.parametrize("disabled", [False, True])
def test_machines_report_their_rung_once_per_machine(monkeypatch, disabled):
    """``Machine.run`` reports ``mcu.kernel`` at a machine's first run,
    never per ``run`` call, on the rung the library's availability
    implies; the snapshot (``/readyz``) shows it."""
    from repro.mcu.assembler import assemble
    from repro.mcu.machine import Machine
    from repro.mcu.programs import fft_program
    from repro.sim import _ckernel

    if disabled:
        monkeypatch.setenv("REPRO_BATCH_CKERNEL", "0")
    _ckernel.reset_cache()
    reports = []
    real_report = degrade.report

    def spy(domain, mode):
        if domain == "mcu.kernel":
            reports.append(mode)
        real_report(domain, mode)

    monkeypatch.setattr(degrade, "report", spy)
    image = assemble(fft_program(16))
    calls = 0
    try:
        for _ in range(2):
            machine = Machine(image)
            while not machine.halted:
                machine.run(200)
                calls += 1
        expected = "python" if _ckernel.load() is None else "c"
    finally:
        monkeypatch.delenv("REPRO_BATCH_CKERNEL", raising=False)
        _ckernel.reset_cache()
    assert calls > 10
    assert reports == [expected, expected]
    assert degrade.snapshot()["mcu.kernel"] == {
        "mode": expected, "level": degrade.level_of("mcu.kernel", expected),
    }
    if disabled:
        assert expected == "python"
