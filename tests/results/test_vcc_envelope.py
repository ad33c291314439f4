"""Rows read V_cc from the rail's running envelope, not from a trace.

``vcc_min``/``vcc_max`` come from :class:`~repro.power.rail.RailStats`,
which the rail keeps as it steps over exactly the steps a vcc probe at
the run's ``decimate`` samples.  A row run records no trace at all, and
its envelope must equal the envelope of the vcc trace a traced run of
the same spec records, on every kernel and rung.
"""

import pytest

from repro.spec import preset
from repro.spec.runner import run_spec
from repro.sim.engine import Simulator

PRESETS = ("crossover-hibernus", "crossover-quickrecall", "fig7",
           "quickstart")


def scenario(name):
    spec = preset(name)
    return spec.with_overrides({"n": 64}) if name == "fig7" else spec


@pytest.fixture
def installed_probes(monkeypatch):
    """The names of every probe registered while the test runs."""
    names = []
    real = Simulator.probe

    def spy(self, name, *args, **kwargs):
        names.append(name)
        return real(self, name, *args, **kwargs)

    monkeypatch.setattr(Simulator, "probe", spy)
    return names


@pytest.mark.parametrize("kernel", ["reference", "fast"])
@pytest.mark.parametrize("decimate", [1, 3, 64])
@pytest.mark.parametrize("name", PRESETS)
def test_row_envelope_equals_the_traced_vcc_envelope(
    name, decimate, kernel, installed_probes
):
    spec = scenario(name).with_overrides(
        {"kernel": kernel, "decimate": decimate}
    )
    traced = spec.run()
    assert sorted(traced.traces) == ["frequency", "state", "vcc"]
    assert installed_probes == ["vcc", "state", "frequency"]
    vcc = traced.vcc()
    del installed_probes[:]

    row = run_spec(spec, {})

    assert installed_probes == []
    assert row.ok, row.error
    assert row.traces is None
    assert row["vcc_min"] == vcc.minimum()
    assert row["vcc_max"] == vcc.maximum()
    assert row["t_end"] == traced.t_end


def test_capture_traces_installs_only_the_named_probes(installed_probes):
    spec = scenario("quickstart").with_overrides({"duration": 0.05})
    row = run_spec(spec, {}, capture_traces=("state",))
    assert installed_probes == ["state"]
    assert sorted(row.traces) == ["state"]


def test_envelope_continues_across_runs():
    """Phase and extremes carry over between ``run`` calls, as the
    trace's decimation counter does."""
    spec = scenario("quickstart").with_overrides({"kernel": "fast"})
    system = spec.build()
    system.run(0.30005, decimate=7)
    run = system.run(0.40015, decimate=7)
    vcc = run.vcc()
    steps = system.simulator.steps
    assert steps % 7 and len(vcc) == steps // 7
    assert run.rail.stats.vcc_phase == steps % 7
    assert run.rail.stats.vcc_min == vcc.minimum()
    assert run.rail.stats.vcc_max == vcc.maximum()


def test_a_run_shorter_than_decimate_is_a_named_error_row():
    spec = scenario("quickstart").with_overrides(
        {"duration": 0.01, "decimate": 1000}
    )
    row = run_spec(spec, {})
    assert row.error.startswith("SimulationError: no V_cc sample")
    for part in ("duration=0.01 s", "dt=5e-05 s", "decimate=1000"):
        assert part in row.error
    assert row["vcc_min"] is None and row["vcc_max"] is None
