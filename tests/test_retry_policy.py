"""Edge cases of the shared retry primitive (``repro.cloud.retry``)."""

import numpy as np
import pytest

from repro.cloud import retry
from repro.cloud.retry import IN_PLACE_ATTEMPTS, RetryPolicy, call_with_retries
from repro.errors import ServiceError, ThrottlingError
from repro.obs import EventType, Telemetry


class TestDelayBeforeAttempt:
    def test_attempt_one_never_waits(self):
        policy = RetryPolicy(max_attempts=5, interval=30.0, backoff_rate=2.0)
        assert policy.delay_before_attempt(1) == 0.0

    def test_attempt_zero_and_negative_never_wait(self):
        policy = RetryPolicy(interval=30.0)
        assert policy.delay_before_attempt(0) == 0.0
        assert policy.delay_before_attempt(-3) == 0.0

    def test_second_attempt_waits_one_interval(self):
        policy = RetryPolicy(interval=30.0, backoff_rate=2.0)
        assert policy.delay_before_attempt(2) == 30.0

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(interval=10.0, backoff_rate=3.0)
        assert policy.delay_before_attempt(3) == 30.0
        assert policy.delay_before_attempt(4) == 90.0

    def test_no_jitter_draws_nothing_without_rng(self):
        policy = RetryPolicy(interval=10.0, jitter=0.5)
        # jitter configured but no rng passed: deterministic base delay
        assert policy.delay_before_attempt(2) == 10.0

    def test_jitter_zero_ignores_rng(self):
        rng = np.random.default_rng(0)
        policy = RetryPolicy(interval=10.0, jitter=0.0)
        before = rng.bit_generator.state
        assert policy.delay_before_attempt(2, rng=rng) == 10.0
        assert rng.bit_generator.state == before  # no draw consumed

    def test_jitter_bounds(self):
        policy = RetryPolicy(interval=10.0, jitter=0.5)
        rng = np.random.default_rng(7)
        for attempt in range(2, 8):
            base = policy.interval * policy.backoff_rate ** (attempt - 2)
            delay = policy.delay_before_attempt(attempt, rng=rng)
            assert base <= delay <= base * 1.5


def _retries(telemetry):
    return [
        (event.attrs["attempt"], event.attrs["error"])
        for event in telemetry.bus.events(EventType.RESILIENCE_RETRY)
    ]


def _dead_letters(telemetry):
    return [
        (event.attrs["scope"], event.attrs["detail"])
        for event in telemetry.bus.events(EventType.RESILIENCE_DEAD_LETTER)
    ]


class TestCallWithRetries:
    """The in-place call: ``IN_PLACE_ATTEMPTS`` back-to-back attempts."""

    def test_success_first_try_calls_nothing_else(self):
        telemetry = Telemetry()
        result = call_with_retries(lambda: "ok", telemetry, "probe", drop=True)
        assert result == "ok"
        assert telemetry.bus.events() == []

    def test_retries_until_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ThrottlingError("throttled")
            return calls["n"]

        telemetry = Telemetry()
        result = call_with_retries(flaky, telemetry, "probe", workload_id="w0")
        assert result == 3
        assert _retries(telemetry) == [
            (1, "ThrottlingError: throttled"),
            (2, "ThrottlingError: throttled"),
        ]
        assert {event.workload_id for event in telemetry.bus.events()} == {"w0"}
        assert _dead_letters(telemetry) == []

    def test_max_attempts_exhaustion_raises_last_error(self):
        errors = [ThrottlingError(f"boom {i}") for i in range(IN_PLACE_ATTEMPTS)]
        seen = []

        def always_fails():
            seen.append(errors[len(seen)])
            raise seen[-1]

        telemetry = Telemetry()
        with pytest.raises(ThrottlingError) as excinfo:
            call_with_retries(always_fails, telemetry, "probe")
        # the surfaced error is the *last* attempt's, not the first's
        assert excinfo.value is errors[-1]
        assert seen == errors
        assert _retries(telemetry) == [
            (i + 1, f"ThrottlingError: boom {i}") for i in range(IN_PLACE_ATTEMPTS - 1)
        ]
        assert _dead_letters(telemetry) == []

    def test_on_exhausted_result_replaces_raise(self):
        # With ``drop`` an exhausted call is dead-lettered with the last
        # error's text and returns None instead of raising.
        def always_fails():
            raise ThrottlingError("nope")

        telemetry = Telemetry()
        assert call_with_retries(always_fails, telemetry, "probe", drop=True) is None
        assert len(_retries(telemetry)) == IN_PLACE_ATTEMPTS - 1
        assert _dead_letters(telemetry) == [("probe", "nope")]

    def test_max_attempts_one_never_retries(self, monkeypatch):
        monkeypatch.setattr(retry, "IN_PLACE_ATTEMPTS", 1)
        telemetry = Telemetry()
        with pytest.raises(ThrottlingError):
            call_with_retries(
                lambda: (_ for _ in ()).throw(ThrottlingError("once")), telemetry, "probe"
            )
        assert _retries(telemetry) == []

    def test_non_retryable_error_propagates_immediately(self):
        calls = {"n": 0}

        def fails_differently():
            calls["n"] += 1
            raise ServiceError("not retryable")

        telemetry = Telemetry()
        with pytest.raises(ServiceError):
            call_with_retries(fails_differently, telemetry, "probe", drop=True)
        assert calls["n"] == 1
        assert telemetry.bus.events() == []
