"""RunResult: hashing, typed access, record round-trips, traces."""

import pytest

from repro.errors import SpecError
from repro.results import RunResult, content_hash, spec_hash
from repro.results.metrics import result_columns
from repro.results.run_result import MAX_TRACE_SAMPLES
from repro.spec.presets import fig7_spec


def small_spec():
    return fig7_spec(fft_size=64, duration=0.3)


def test_spec_hash_is_canonical():
    spec = small_spec()
    assert spec_hash(spec) == spec_hash(spec.to_dict())
    # Key order in the payload must not matter.
    payload = spec.to_dict()
    reordered = dict(reversed(list(payload.items())))
    assert spec_hash(payload) == spec_hash(reordered)


def test_spec_hash_tracks_every_field():
    spec = small_spec()
    assert spec_hash(spec) != spec_hash(spec.with_override("duration", 0.4))
    assert spec_hash(spec) != spec_hash(spec.with_override("kernel", "fast"))
    # The reproducibility satellite: the seed is part of the identity.
    assert spec_hash(spec) != spec_hash(spec.with_override("seed", 7))


def test_content_hash_rejects_unserializable():
    with pytest.raises(SpecError):
        content_hash({"fn": object()})


def test_from_system_run_and_typed_access():
    spec = small_spec()
    result = RunResult.from_system_run(
        spec.run(), spec, overrides={"capacitance": 22e-6}, index=3
    )
    assert result.ok and result.error is None
    assert result.spec_hash == spec_hash(spec)
    assert result.name == spec.name
    assert result.index == 3
    assert result["capacitance"] == 22e-6          # override wins
    assert result["completed"] is True             # metric fallback
    assert result["name"] == spec.name
    with pytest.raises(KeyError):
        result["no_such_column"]
    assert result.get("no_such_column", 42) == 42
    assert sorted(result.metrics) == sorted(result_columns())


def test_record_round_trip_preserves_everything():
    spec = small_spec()
    result = RunResult.from_system_run(
        spec.run(), spec, overrides={"frequency": 4.7}
    )
    restored = RunResult.from_record(result.to_record())
    assert restored.spec_hash == result.spec_hash
    assert restored.name == result.name
    assert restored.overrides == result.overrides
    assert restored.metrics == result.metrics
    # The embedded spec payload revalidates into an equal spec.
    assert restored.spec == spec


def test_failed_result_shape():
    result = RunResult.failed(
        "ValueError: boom", spec_hash="abc", overrides={"f": 1.0}
    )
    assert not result.ok
    assert result.error == "ValueError: boom"
    assert result.metrics["completed"] is None
    assert sorted(result.metrics) == sorted(result_columns())
    restored = RunResult.from_record(result.to_record())
    assert restored.error == "ValueError: boom"


def test_capture_traces_round_trip():
    spec = small_spec()
    result = RunResult.from_system_run(
        spec.run(), spec, capture_traces=("vcc",)
    )
    trace = result.trace("vcc")
    assert 0 < len(trace) <= MAX_TRACE_SAMPLES
    assert trace.values.max() > 3.0
    restored = RunResult.from_record(result.to_record())
    assert restored.trace("vcc").values.tolist() == trace.values.tolist()
    with pytest.raises(SpecError, match="no trace"):
        result.trace("state")


def test_unknown_trace_request_fails_eagerly():
    spec = small_spec()
    with pytest.raises(SpecError, match="recorded no trace"):
        RunResult.from_system_run(spec.run(), spec, capture_traces=("nope",))


def test_from_record_validates_schema_and_keys():
    with pytest.raises(SpecError, match="missing"):
        RunResult.from_record({"spec_hash": "x", "name": "y"})
    with pytest.raises(SpecError, match="schema"):
        RunResult.from_record(
            {"schema": 99, "spec_hash": "x", "name": "y", "metrics": {}}
        )


def test_needs_a_spec():
    spec = small_spec()
    run = spec.run()
    with pytest.raises(TypeError):
        RunResult.from_system_run(run)
    with pytest.raises(SpecError, match="ScenarioSpec or mapping"):
        RunResult.from_system_run(run, None)
