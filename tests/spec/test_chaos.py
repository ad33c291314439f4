"""Chaos acceptance: supervised sweeps under injected faults converge to
results bit-identical to a fault-free run.

The ISSUE's acceptance criterion lives here: a 64-point pool sweep with
``worker.crash:0.3`` and ``worker.hang:0.1`` injected completes with
spec hashes, metrics and vcc traces identical to the clean run, every
hang is reaped within the task deadline, and the retry/reap counters
are visible in the obs snapshot."""

import time

import pytest

from repro import faults, obs
from repro.explore import Axis, ExplorationDriver, SearchSpace
from repro.spec import SweepRunner
from repro.spec.presets import fig7_spec
from repro.results.run_result import is_quarantined_error
from repro.spec.runner import QUARANTINE_PREFIX, SupervisionPolicy, WarmPool


@pytest.fixture(autouse=True)
def disarmed():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retry at once: backoff is timing only, never results."""
    monkeypatch.setattr("repro.spec.runner.BACKOFF_BASE_S", 0.0)


def counter_value(name, **labels):
    wanted = {str(k): str(v) for k, v in labels.items()}
    total = 0
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == name and (
            not wanted or dict(row["labels"]) == wanted
        ):
            total += row["value"]
    return total


def small_base():
    return fig7_spec(fft_size=64, duration=0.25)


def point_rows(result):
    return [
        (p.spec_hash, p.metrics, p.traces) for p in result
    ]


# -- serial supervision --------------------------------------------------


def test_serial_retries_converge_to_clean_results():
    """Injected transient crashes retry (rolls re-randomise per attempt)
    until every point matches the fault-free run exactly."""
    runner = SweepRunner(
        small_base(), {"capacitance": [22e-6, 47e-6], "frequency": [4.7]}
    )
    clean = runner.run(parallel=False)
    with faults.active({"worker.crash": 0.5}, seed=11):
        chaotic = SweepRunner(
            small_base(),
            {"capacitance": [22e-6, 47e-6], "frequency": [4.7]},
        ).run(parallel=False, policy=SupervisionPolicy(max_retries=10))
    assert point_rows(chaotic) == point_rows(clean)
    assert not any(is_quarantined_error(p.error) for p in chaotic)


def test_poison_payload_is_quarantined_with_attempt_history():
    """A payload that crashes on every attempt stops burning retries:
    it lands as a persistent quarantine row carrying the attempt count."""
    runner = SweepRunner(small_base(), {"frequency": [4.7]})
    with faults.active({"worker.crash": 1.0}, seed=0):
        result = runner.run(
            parallel=False, policy=SupervisionPolicy(max_retries=2)
        )
    point = result.points[0]
    assert is_quarantined_error(point.error)
    assert point.error.startswith(QUARANTINE_PREFIX)
    assert "3 attempt(s) crashed" in point.error
    assert point.metrics["attempts"] == 3


def test_unsupervised_crash_rows_stay_transient():
    """policy=None preserves the historical contract: a crash is a
    worker-failure row, never a quarantine row."""
    from repro.results.run_result import is_worker_crash_error

    runner = SweepRunner(small_base(), {"frequency": [4.7]})
    with faults.active({"worker.crash": 1.0}, seed=0):
        result = runner.run(parallel=False)
    point = result.points[0]
    assert is_worker_crash_error(point.error)
    assert not is_quarantined_error(point.error)


def test_serial_deadline_pins_timeout_rows():
    """A hang under a serial in-process policy cannot be reaped, but a
    deadline on pool execution converts it to a retryable timeout; here
    we check the serial path at least honours per-attempt deadlines for
    crashed work (no deadlock, bounded wall time)."""
    runner = SweepRunner(small_base(), {"frequency": [4.7, 9.4]})
    started = time.monotonic()
    with faults.active({"worker.crash": 1.0}, seed=0):
        result = runner.run(parallel=False, policy=SupervisionPolicy(
            deadline_s=5.0, max_retries=1,
        ))
    assert time.monotonic() - started < 30.0
    assert all(is_quarantined_error(p.error) for p in result)


# -- the pool acceptance criterion ---------------------------------------


def test_64_point_pool_sweep_survives_crashes_and_hangs():
    """The headline chaos contract, end to end."""
    base = small_base()
    grid = {
        "capacitance": [22e-6, 27e-6, 33e-6, 39e-6,
                        47e-6, 56e-6, 68e-6, 82e-6],
        "frequency": [2.0, 2.7, 3.3, 4.0, 4.7, 6.3, 8.0, 9.4],
    }
    # Pin the worker count: on a single-core box the pool would default
    # to one worker, where any hang stalls the whole queue and every
    # round costs a full deadline window.
    clean = SweepRunner(base, grid, max_workers=4).run(
        parallel=True, capture_traces=("vcc",)
    )
    assert len(clean) == 64

    reaped_before = counter_value("repro_pool_workers_reaped_total")
    retries_before = counter_value("repro_pool_retries_total")
    injected_before = counter_value(
        "repro_faults_injected_total", point="worker.crash"
    )
    policy = SupervisionPolicy(deadline_s=3.0, max_retries=10)
    started = time.monotonic()
    with faults.active(
        {"worker.crash": 0.3, "worker.hang": 0.1}, seed=5, hang_s=30.0,
    ):
        chaotic = SweepRunner(base, grid, max_workers=4).run(
            parallel=True, capture_traces=("vcc",), policy=policy,
        )
    wall = time.monotonic() - started

    # Bit-identical to the fault-free run: hashes, metrics, traces.
    assert point_rows(chaotic) == point_rows(clean)
    assert not any(is_quarantined_error(p.error) for p in chaotic)

    # The chaos actually happened and the supervisor visibly handled it:
    # crash injections fired and were retried...
    assert counter_value(
        "repro_faults_injected_total", point="worker.crash"
    ) > injected_before
    assert counter_value("repro_pool_retries_total") > retries_before
    # ...and hangs (sleeping 30 s each) were reaped within the 5 s task
    # deadline — the sweep's wall time stays bounded by deadline windows,
    # under even a single hang's full sleep.
    assert counter_value("repro_pool_workers_reaped_total") > reaped_before
    assert wall < 30.0


def test_supervised_pool_exploration_survives_crashes_and_hangs():
    """The same contract for an exploration: its policy supervises every
    optimizer batch on the driver's own pool."""
    base = small_base()
    space = SearchSpace.of(
        Axis.log("capacitance", 22e-6, 82e-6),
        Axis("frequency", "continuous", low=2.0, high=9.4),
    )

    def explore(policy=None):
        return ExplorationDriver(
            base, space, ["completion_time"], optimizer="random",
            optimizer_params={"batch": 8}, seed=3, max_workers=4,
            policy=policy,
        ).run(budget=16)

    def rows(outcome):
        return [
            (e.result.spec_hash, e.result.metrics, e.result.traces)
            for e in outcome.evaluations
        ]

    clean = explore()
    assert len(clean) == 16

    reaped_before = counter_value("repro_pool_workers_reaped_total")
    retries_before = counter_value("repro_pool_retries_total")
    policy = SupervisionPolicy(deadline_s=3.0, max_retries=10)
    started = time.monotonic()
    with faults.active(
        {"worker.crash": 0.3, "worker.hang": 0.1}, seed=5, hang_s=30.0,
    ):
        chaotic = explore(policy)
    wall = time.monotonic() - started

    assert rows(chaotic) == rows(clean)
    assert not any(
        is_quarantined_error(e.result.error) for e in chaotic.evaluations
    )
    assert counter_value("repro_pool_retries_total") > retries_before
    assert counter_value("repro_pool_workers_reaped_total") > reaped_before
    assert wall < 30.0
