"""Tests for the degraded-mode serving facade."""

import numpy as np
import pytest

from repro.core import CachedPKGMServer
from repro.reliability import (
    CircuitBreaker,
    Deadline,
    FlakyServingBackend,
    ResilientPKGMServer,
    RetryPolicy,
    StepClock,
)


@pytest.fixture
def resilient(server):
    return ResilientPKGMServer(server)


class TestHappyPath:
    def test_identical_to_backend(self, resilient, server):
        item = server.known_items()[0]
        assert np.allclose(
            resilient.serve(item).sequence(), server.serve(item).sequence()
        )
        assert resilient.stats.served_live == 1
        assert resilient.stats.degraded_rate == 0.0

    def test_surface_passthrough(self, resilient, server):
        assert resilient.k == server.k
        assert resilient.dim == server.dim
        assert resilient.num_entities == server.num_entities
        assert resilient.num_relations == server.num_relations

    def test_batch_helpers(self, resilient, server):
        ids = server.known_items()[:3]
        assert resilient.serve_sequence_batch(ids).shape == (
            3,
            2 * server.k,
            server.dim,
        )
        assert resilient.serve_condensed_batch(ids).shape == (3, 2 * server.dim)


class TestUnknownIds:
    def test_unknown_id_returns_flagged_zero_fallback(self, resilient, server):
        vectors = resilient.serve(10**9)
        assert vectors.degraded
        assert vectors.triple_vectors.shape == (server.k, server.dim)
        assert np.allclose(vectors.sequence(), 0.0)
        assert np.all(vectors.key_relations == -1)
        assert resilient.stats.fallback_unknown == 1

    def test_out_of_range_index_never_raises(self, server):
        resilient = ResilientPKGMServer(server)
        # Entity table has num_entities rows; this id indexes past it.
        vectors = resilient.serve(server.num_entities + 5)
        assert vectors.degraded

    def test_never_raises_over_many_bad_ids(self, resilient):
        for bad in (-1, 10**6, 10**9):
            vectors = resilient.serve(bad)
            assert vectors.degraded
            assert np.isfinite(vectors.sequence()).all()


class TestBackendFailures:
    def make(self, server, fail_next=0, **kw):
        flaky = FlakyServingBackend(server, seed=0)
        flaky.fail_next = fail_next
        resilient = ResilientPKGMServer(
            flaky,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            breaker=CircuitBreaker(failure_threshold=2, recovery_time=5.0),
            **kw,
        )
        return flaky, resilient

    def test_transient_error_is_retried_transparently(self, server):
        flaky, resilient = self.make(server, fail_next=1)
        item = server.known_items()[0]
        vectors = resilient.serve(item)
        assert not vectors.degraded
        assert resilient.stats.served_live == 1
        assert resilient.retry_stats().retries == 1

    def test_persistent_failure_falls_back_flagged(self, server):
        flaky, resilient = self.make(server, fail_next=100)
        vectors = resilient.serve(server.known_items()[0])
        assert vectors.degraded
        assert resilient.stats.fallback_error == 1

    def test_breaker_opens_and_serves_stale_from_cache(self, server):
        flaky, resilient = self.make(server, fail_next=0)
        item, other = server.known_items()[0], server.known_items()[1]
        fresh = resilient.serve(item)  # populates the LRU
        flaky.fail_next = 10**6
        # Cache misses reach the dying backend and trip the breaker
        # (failure_threshold=2).
        for _ in range(2):
            resilient.serve(other)
        assert resilient.breaker.state == CircuitBreaker.OPEN
        # With the breaker open the backend is not touched at all; the
        # cached item is served stale instead of failing.
        calls_before = flaky.calls
        stale = resilient.serve(item)
        assert flaky.calls == calls_before
        assert resilient.stats.breaker_short_circuits > 0
        assert resilient.stats.served_stale == 1
        assert not stale.degraded  # stale != degraded: real model output
        assert np.allclose(stale.sequence(), fresh.sequence())

    def test_breaker_open_unknown_item_degrades(self, server):
        flaky, resilient = self.make(server, fail_next=10**6)
        for _ in range(5):
            vectors = resilient.serve(server.known_items()[1])
            assert vectors.degraded  # nothing cached: fallback payload

    def test_half_open_probe_recovers_service(self, server):
        flaky, resilient = self.make(server)
        item = server.known_items()[0]
        flaky.fail_next = 10**6
        for _ in range(3):
            resilient.serve(item)  # uncached: failures trip the breaker
        assert resilient.breaker.state == CircuitBreaker.OPEN
        flaky.fail_next = 0  # backend healed
        # Each serve advances the virtual clock 1s; recovery_time=5, so
        # within a few requests a half-open probe runs, succeeds, and
        # closes the breaker again.
        recovered = None
        for _ in range(8):
            recovered = resilient.serve(item)
        assert resilient.breaker.state == CircuitBreaker.CLOSED
        assert not recovered.degraded
        assert resilient.stats.served_live >= 1

    def test_existing_cached_server_is_reused(self, server):
        cached = CachedPKGMServer(server, capacity=8)
        resilient = ResilientPKGMServer(cached)
        item = server.known_items()[0]
        resilient.serve(item)
        assert cached.stats().misses == 1

    def test_relation_existence_score_degrades_to_nan(self, server):
        flaky, resilient = self.make(server, fail_next=10**6)
        score = resilient.relation_existence_score(server.known_items()[0], 0)
        assert np.isnan(score)
        healthy = ResilientPKGMServer(server)
        value = healthy.relation_existence_score(server.known_items()[0], 0)
        assert np.isfinite(value)


class TestDeadlines:
    def test_expired_deadline_yields_flagged_fallback(self, server):
        clock = StepClock()
        resilient = ResilientPKGMServer(server, clock=clock)
        deadline = Deadline(clock, 0.5)  # < the 1.0 per-request tick
        result = resilient.serve(server.known_items()[0], deadline=deadline)
        assert result.degraded
        assert resilient.stats.deadline_exceeded == 1
        assert resilient.stats.degraded_rate > 0.0
        assert "deadline-exceeded 1" in resilient.stats.as_row()

    def test_counter_increments_exactly_once_per_request(self, server):
        clock = StepClock()
        resilient = ResilientPKGMServer(server, clock=clock)
        for _ in range(3):
            resilient.serve(server.known_items()[0], deadline=Deadline(clock, 0.5))
        assert resilient.stats.deadline_exceeded == 3
        assert resilient.stats.requests == 3

    def test_generous_deadline_serves_live(self, server):
        clock = StepClock()
        resilient = ResilientPKGMServer(server, clock=clock)
        deadline = Deadline(clock, 10.0)
        result = resilient.serve(server.known_items()[0], deadline=deadline)
        assert not result.degraded
        assert resilient.stats.deadline_exceeded == 0
        assert resilient.stats.served_live == 1

    def test_deadline_miss_does_not_trip_breaker(self, server):
        clock = StepClock()
        resilient = ResilientPKGMServer(
            server, breaker=CircuitBreaker(failure_threshold=1, clock=clock),
            clock=clock,
        )
        resilient.serve(server.known_items()[0], deadline=Deadline(clock, 0.5))
        assert resilient.breaker.state == CircuitBreaker.CLOSED
