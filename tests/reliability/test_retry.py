"""Tests for the retry policy engine."""

import pytest

from repro.reliability import (
    Retrier,
    RetryExhaustedError,
    RetryPolicy,
    RPCError,
    StepClock,
)


class Flaky:
    """Callable failing the first ``failures`` times, then succeeding."""

    def __init__(self, failures, exc=RPCError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc("boom")
        return "ok"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(budget=-1)


class TestRetrier:
    def test_succeeds_after_transient_failures(self):
        retrier = Retrier(RetryPolicy(max_attempts=4))
        flaky = Flaky(2)
        assert retrier.call(flaky) == "ok"
        assert flaky.calls == 3
        assert retrier.stats.retries == 2
        assert retrier.stats.failures == 0

    def test_exhaustion_raises_with_cause(self):
        retrier = Retrier(RetryPolicy(max_attempts=3))
        with pytest.raises(RetryExhaustedError) as info:
            retrier.call(Flaky(10))
        assert isinstance(info.value.__cause__, RPCError)
        assert retrier.stats.failures == 1

    def test_exhaustion_message_counts_this_calls_retries(self):
        retrier = Retrier(RetryPolicy(max_attempts=3, jitter=0.0))
        for _ in range(3):
            with pytest.raises(RetryExhaustedError, match="after 2 retries:"):
                retrier.call(Flaky(10))
        assert retrier.stats.retries == 6  # the lifetime total still adds up

    def test_non_retryable_propagates_immediately(self):
        retrier = Retrier(RetryPolicy(max_attempts=5))
        flaky = Flaky(3, exc=KeyError)
        with pytest.raises(KeyError):
            retrier.call(flaky)
        assert flaky.calls == 1
        assert retrier.stats.retries == 0

    def test_backoff_grows_and_is_capped(self):
        policy = RetryPolicy(
            base_delay=0.1, max_delay=0.4, multiplier=2.0, jitter=0.0
        )
        retrier = Retrier(policy)
        delays = [retrier.delay(a) for a in range(4)]
        assert delays == [0.1, 0.2, 0.4, 0.4]

    def test_jitter_is_seeded_and_deterministic(self):
        a = Retrier(RetryPolicy(jitter=0.5, seed=7))
        b = Retrier(RetryPolicy(jitter=0.5, seed=7))
        assert [a.delay(i) for i in range(5)] == [b.delay(i) for i in range(5)]
        c = Retrier(RetryPolicy(jitter=0.5, seed=8))
        assert [a.delay(i) for i in range(5)] != [c.delay(i) for i in range(5)]

    def test_budget_bounds_total_retries(self):
        retrier = Retrier(RetryPolicy(max_attempts=5, budget=3))
        with pytest.raises(RetryExhaustedError):
            retrier.call(Flaky(100))  # uses budget 3, then gives up
        assert retrier.stats.retries == 3
        with pytest.raises(RetryExhaustedError):
            retrier.call(Flaky(100))  # budget empty: no retry at all
        assert retrier.stats.retries == 3
        assert retrier.stats.budget_denials >= 1

    def test_virtual_clock_advances_with_backoff(self):
        clock = StepClock()
        retrier = Retrier(RetryPolicy(max_attempts=3, jitter=0.0), clock=clock)
        retrier.call(Flaky(2))
        assert clock.now() == pytest.approx(retrier.stats.virtual_sleep)
        assert clock.now() > 0


class TestStepClock:
    def test_monotonic(self):
        clock = StepClock()
        clock.advance(1.5)
        assert clock.now() == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)
