"""The fault-injection registry: deterministic rolls, spec parsing,
exception taxonomy, snapshot shipment and env arming.

Chaos is only useful when it replays — most of these tests pin the
determinism contract: whether a point fires is a pure function of
``(seed, point, key)``, so a chaos failure seen once reproduces forever.
"""

import pytest

from repro import faults, obs
from repro.errors import ReproError


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with the registry disarmed."""
    faults.clear()
    yield
    faults.clear()


def counter_value(name, **labels):
    wanted = {str(k): str(v) for k, v in labels.items()}
    for row in obs.registry.snapshot()["counters"]:
        if row["name"] == name and dict(row["labels"]) == wanted:
            return row["value"]
    return 0


# -- determinism ---------------------------------------------------------


def test_fire_is_deterministic_in_seed_point_key():
    keys = [f"key-{i}" for i in range(200)]
    faults.configure({"worker.crash": 0.5}, seed=7)
    first = [faults.fire("worker.crash", k) for k in keys]
    faults.configure({"worker.crash": 0.5}, seed=7)
    second = [faults.fire("worker.crash", k) for k in keys]
    assert first == second
    # A fair-ish split, not all-or-nothing.
    assert 40 < sum(first) < 160


def test_different_seeds_roll_differently():
    keys = [f"key-{i}" for i in range(200)]
    faults.configure({"worker.crash": 0.5}, seed=7)
    with_seed_7 = [faults.fire("worker.crash", k) for k in keys]
    faults.configure({"worker.crash": 0.5}, seed=8)
    with_seed_8 = [faults.fire("worker.crash", k) for k in keys]
    assert with_seed_7 != with_seed_8


def test_probability_extremes():
    faults.configure({"worker.crash": 0.0, "io.slow": 1.0}, seed=0)
    assert not any(faults.fire("worker.crash", f"k{i}") for i in range(50))
    assert all(faults.fire("io.slow", f"k{i}") for i in range(50))


def test_disarmed_never_fires():
    assert not faults.is_armed()
    assert not faults.fire("worker.crash", "anything")
    faults.inject("store.append_fail", "anything")  # no raise
    assert not faults.maybe_hang("anything")
    assert not faults.maybe_delay("anything")


def test_unlisted_point_never_fires_when_armed():
    faults.configure({"worker.crash": 1.0}, seed=0)
    assert not faults.fire("store.torn_write", "k")


# -- spec parsing --------------------------------------------------------


def test_parse_spec_happy_path():
    parsed = faults.parse_spec("worker.crash:0.2, io.slow:0.1,")
    assert parsed == {"worker.crash": 0.2, "io.slow": 0.1}


@pytest.mark.parametrize("bad", [
    "worker.exploded:0.5",     # unknown point
    "worker.crash",            # missing :probability
    "worker.crash:lots",       # non-numeric
    "worker.crash:1.5",        # outside [0, 1]
    "worker.crash:-0.1",
])
def test_parse_spec_rejects_bad_entries(bad):
    with pytest.raises(ReproError):
        faults.parse_spec(bad)


def test_configure_rejects_unknown_point():
    with pytest.raises(ReproError, match="unknown fault point"):
        faults.configure({"nope": 0.5})


# -- exception taxonomy --------------------------------------------------


def test_store_append_fail_is_an_oserror():
    faults.configure({"store.append_fail": 1.0}, seed=0)
    with pytest.raises(faults.InjectedIOError) as excinfo:
        faults.inject("store.append_fail", "k", "boom")
    assert isinstance(excinfo.value, OSError)
    assert isinstance(excinfo.value, faults.FaultInjected)
    assert "boom" in str(excinfo.value)


def test_other_points_raise_plain_fault_injected():
    faults.configure({"store.torn_write": 1.0}, seed=0)
    with pytest.raises(faults.FaultInjected) as excinfo:
        faults.inject("store.torn_write", "k")
    assert not isinstance(excinfo.value, OSError)


# -- arming lifecycles ---------------------------------------------------


def test_active_restores_previous_state():
    faults.configure({"io.slow": 1.0}, seed=1)
    with faults.active({"worker.crash": 1.0}, seed=2):
        assert faults.fire("worker.crash", "k")
        assert not faults.fire("io.slow", "k")
    # The outer configuration is back.
    assert faults.fire("io.slow", "k")
    assert not faults.fire("worker.crash", "k")


def test_active_restores_even_on_error():
    with pytest.raises(RuntimeError):
        with faults.active({"worker.crash": 1.0}):
            raise RuntimeError("escape")
    assert not faults.is_armed()


def test_snapshot_install_round_trip():
    faults.configure({"worker.hang": 0.25}, seed=9, hang_s=1.5, slow_s=0.01)
    snapshot = faults.state_snapshot()
    faults.clear()
    assert faults.state_snapshot() is None
    faults.install(snapshot)
    assert faults.is_armed()
    assert faults.state_snapshot() == snapshot
    faults.install(None)
    assert not faults.is_armed()


def test_env_arming(monkeypatch):
    monkeypatch.setenv(faults.ENV_SPEC, "worker.crash:1.0")
    monkeypatch.setenv(faults.ENV_SEED, "3")
    monkeypatch.setenv(faults.ENV_HANG_S, "0.5")
    faults._load_env()
    snapshot = faults.state_snapshot()
    assert snapshot["probabilities"] == {"worker.crash": 1.0}
    assert snapshot["seed"] == 3
    assert snapshot["hang_s"] == 0.5


def test_env_arming_ignores_empty_spec(monkeypatch):
    monkeypatch.setenv(faults.ENV_SPEC, "")
    faults._load_env()
    assert not faults.is_armed()


# -- payload keys and observability --------------------------------------


def test_payload_key_varies_with_attempt():
    payload = {"spec_overrides": {"frequency": 4.7}}
    retry = dict(payload, fault_attempt=1)
    assert faults.payload_key(payload) != faults.payload_key(retry)
    # ...but is stable for the same (payload, attempt) pair.
    assert faults.payload_key(payload) == faults.payload_key(dict(payload))


def test_payload_key_separates_override_free_payloads_of_two_presets():
    """Regression: an empty override dict used to key as ``null``, so
    every override-free payload (a service run job, a one-point sweep)
    rolled alike whatever its scenario."""
    from repro.spec.presets import preset
    from repro.spec.runner import spec_hash

    payload = {"spec_overrides": {}, "overrides": {}}
    fig7, crossover = (
        spec_hash(preset(name)) for name in ("fig7", "crossover-hibernus")
    )
    assert faults.payload_key(payload, fig7) != \
        faults.payload_key(payload, crossover)
    assert faults.payload_key(payload, fig7) == \
        faults.payload_key(dict(payload), fig7)
    # Payloads of one base key on their overrides.
    assert faults.payload_key({"spec_overrides": {"kernel": "fast"}}, fig7) \
        != faults.payload_key({"spec_overrides": {"kernel": "reference"}},
                              fig7)


def test_fired_injections_bump_the_counter():
    before = counter_value("repro_faults_injected_total", point="io.slow")
    faults.configure({"io.slow": 1.0}, seed=0, slow_s=0.0)
    assert faults.maybe_delay("k1")
    assert faults.maybe_delay("k2")
    after = counter_value("repro_faults_injected_total", point="io.slow")
    assert after == before + 2
