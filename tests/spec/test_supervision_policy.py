"""The one supervision policy: a validated (deadline, retries) pair.

Every caller — ``repro sweep``/``explore``/``chaos`` flags, service
requests and service defaults — builds a :class:`SupervisionPolicy`,
so one rule rejects what no executor can honour."""

import math

import pytest

from repro.errors import SpecError
from repro.spec import SweepRunner
from repro.spec.presets import fig7_spec
from repro.spec.runner import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    BACKOFF_JITTER,
    SupervisionPolicy,
    backoff_delay,
    evaluate,
)


@pytest.mark.parametrize("deadline_s", [
    math.inf, -math.inf, math.nan, -1, 0, 0.0, True, "soon",
])
def test_bad_deadlines_raise(deadline_s):
    with pytest.raises(SpecError, match="deadline_s"):
        SupervisionPolicy(deadline_s=deadline_s)


@pytest.mark.parametrize("max_retries", [-1, 1.5, True, "many", None])
def test_bad_retry_budgets_raise(max_retries):
    with pytest.raises(SpecError, match="max_retries"):
        SupervisionPolicy(max_retries=max_retries)


def test_valid_policy_normalises_the_deadline():
    policy = SupervisionPolicy(deadline_s=5, max_retries=2)
    assert policy.deadline_s == 5.0 and isinstance(policy.deadline_s, float)
    assert policy.max_retries == 2
    assert policy.supervised
    assert not SupervisionPolicy().supervised


def test_backoff_doubles_up_to_the_cap():
    for attempt in range(1, 12):
        delay = backoff_delay(attempt)
        floor = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2 ** (attempt - 1))
        assert floor <= delay <= floor * (1.0 + BACKOFF_JITTER)


def test_evaluate_raises_when_an_executor_drops_records():
    """A short record list is an executor bug, not a retryable row."""
    base = fig7_spec(fft_size=64, duration=0.25)
    runner = SweepRunner(base, {"frequency": [4.7, 9.4]})
    points = [(spec, o, o) for spec, o in zip(runner.specs, runner.overrides)]

    def short(payloads, base_spec, policy=None):
        return []

    with pytest.raises(RuntimeError, match="0 record"):
        evaluate(base, points, executor=short)
