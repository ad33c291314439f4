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
    """A short fast-kernel run that advances in many chunks."""
    from repro.spec.presets import preset

    spec = preset("crossover-hibernus", frequency=20.0, duration=0.3)
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
