"""Tests for the retry policy engine."""

import numpy as np
import pytest

from repro.reliability import (
    Retrier,
    RetryExhaustedError,
    RetryPolicy,
    RPCError,
    StepClock,
)
from repro.reliability.retry import MAX_ATTEMPTS


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


class TestRetrier:
    def test_succeeds_after_transient_failures(self):
        retrier = Retrier(RetryPolicy())
        flaky = Flaky(3)
        assert retrier.call(flaky) == "ok"
        assert flaky.calls == MAX_ATTEMPTS == 4
        assert retrier.stats.retries == 3
        assert retrier.stats.failures == 0

    def test_exhaustion_raises_with_cause(self):
        retrier = Retrier(RetryPolicy())
        flaky = Flaky(10)
        with pytest.raises(RetryExhaustedError) as info:
            retrier.call(flaky)
        assert isinstance(info.value.__cause__, RPCError)
        assert flaky.calls == 4
        assert retrier.stats.failures == 1

    def test_exhaustion_message_counts_this_calls_retries(self):
        retrier = Retrier(RetryPolicy())
        for _ in range(3):
            with pytest.raises(RetryExhaustedError, match="after 3 retries:"):
                retrier.call(Flaky(10))
        assert retrier.stats.retries == 9  # the lifetime total still adds up

    def test_non_retryable_propagates_immediately(self):
        retrier = Retrier(RetryPolicy())
        flaky = Flaky(3, exc=KeyError)
        with pytest.raises(KeyError):
            retrier.call(flaky)
        assert flaky.calls == 1
        assert retrier.stats.retries == 0

    def test_backoff_grows_and_is_capped(self):
        retrier = Retrier(RetryPolicy(seed=3))
        draws = np.random.default_rng(3).random(9)
        raw = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0, 2.0]
        delays = [retrier.delay(a) for a in range(9)]
        assert delays == [r * (1.0 - 0.5 * float(u)) for r, u in zip(raw, draws)]
        assert all(r / 2 <= d <= r for r, d in zip(raw, delays))

    def test_jitter_is_seeded_and_deterministic(self):
        a = Retrier(RetryPolicy(seed=7))
        b = Retrier(RetryPolicy(seed=7))
        assert [a.delay(i) for i in range(5)] == [b.delay(i) for i in range(5)]
        c = Retrier(RetryPolicy(seed=8))
        assert [a.delay(i) for i in range(5)] != [c.delay(i) for i in range(5)]

    def test_virtual_clock_advances_with_backoff(self):
        clock = StepClock()
        retrier = Retrier(RetryPolicy(), clock=clock)
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
