"""Tests for the serving-side LRU cache."""

import numpy as np
import pytest

from repro.core import CachedPKGMServer
from repro.ops import fallback_payload


@pytest.fixture
def cached(server):
    return CachedPKGMServer(server, capacity=4)


class TestCachedServing:
    def test_results_identical_to_uncached(self, cached, server, catalog):
        entity = catalog.items[0].entity_id
        direct = server.serve(entity)
        via_cache = cached.serve(entity)
        assert np.allclose(direct.sequence(), via_cache.sequence())

    def test_hit_miss_accounting(self, cached, catalog):
        entity = catalog.items[0].entity_id
        cached.serve(entity)
        cached.serve(entity)
        cached.serve(catalog.items[1].entity_id)
        stats = cached.stats()
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction(self, cached, catalog):
        ids = [item.entity_id for item in catalog.items[:5]]
        for entity in ids:  # capacity 4: first entry evicted
            cached.serve(entity)
        assert cached.stats().evictions == 1
        assert cached.stats().size == 4
        # Oldest (ids[0]) was evicted: serving it again is a miss.
        before = cached.stats().misses
        cached.serve(ids[0])
        assert cached.stats().misses == before + 1

    def test_recency_updated_on_hit(self, cached, catalog):
        ids = [item.entity_id for item in catalog.items[:5]]
        for entity in ids[:4]:
            cached.serve(entity)
        cached.serve(ids[0])  # refresh recency of the oldest
        cached.serve(ids[4])  # evicts ids[1], not ids[0]
        before = cached.stats().hits
        cached.serve(ids[0])
        assert cached.stats().hits == before + 1

    def test_batch_helpers_share_cache(self, cached, catalog):
        ids = [item.entity_id for item in catalog.items[:3]]
        seq = cached.serve_sequence_batch(ids)
        condensed = cached.serve_condensed_batch(ids)
        assert seq.shape[0] == 3
        assert condensed.shape[0] == 3
        stats = cached.stats()
        assert stats.misses == 3  # second batch fully cached
        assert stats.hits == 3

    def test_refresh_invalidates(self, cached, server, catalog):
        entity = catalog.items[0].entity_id
        cached.serve(entity)
        cached.refresh(server)
        assert cached.stats().size == 0
        before = cached.stats().misses
        cached.serve(entity)
        assert cached.stats().misses == before + 1

    def test_refresh_resets_stats(self, cached, server, catalog):
        cached.serve(catalog.items[0].entity_id)
        cached.serve(catalog.items[0].entity_id)
        cached.refresh(server)
        stats = cached.stats()
        assert stats.hits == 0 and stats.misses == 0 and stats.evictions == 0

    def test_refresh_can_keep_stats(self, cached, server, catalog):
        cached.serve(catalog.items[0].entity_id)
        cached.refresh(server, reset_stats=False)
        assert cached.stats().misses == 1
        assert cached.stats().size == 0

    def test_reset_stats_keeps_entries(self, cached, catalog):
        entity = catalog.items[0].entity_id
        cached.serve(entity)
        cached.reset_stats()
        assert cached.stats().misses == 0
        cached.serve(entity)  # still cached: a hit, not a miss
        assert cached.stats().hits == 1
        assert cached.stats().misses == 0

    def test_surface_properties(self, cached, server):
        assert cached.k == server.k
        assert cached.dim == server.dim
        assert cached.num_entities == server.num_entities
        assert cached.num_relations == server.num_relations
        assert cached.known_items() == server.known_items()

    def test_relation_existence_passthrough(self, cached, server, catalog):
        entity = catalog.items[0].entity_id
        assert cached.relation_existence_score(entity, 0) == pytest.approx(
            server.relation_existence_score(entity, 0)
        )

    def test_raw_services_pass_through(self, cached, server, catalog):
        heads = np.array([catalog.items[0].entity_id])
        relations = np.array([0])
        assert np.allclose(
            cached.triple_service(heads, relations),
            server.triple_service(heads, relations),
        )
        assert np.allclose(
            cached.relation_service(heads, relations),
            server.relation_service(heads, relations),
        )

    def test_capacity_validation(self, server):
        with pytest.raises(ValueError):
            CachedPKGMServer(server, capacity=0)

    def test_stats_row(self, cached):
        assert "hit-rate" in cached.stats().as_row()


class TestLegacyAccountingSurface:
    """The pre-registry attribute surface must survive the migration."""

    def test_hits_misses_evictions_attributes(self, cached, catalog):
        ids = [item.entity_id for item in catalog.items[:5]]
        for entity in ids:
            cached.serve(entity)
        cached.serve(ids[4])
        assert cached.hits == 1
        assert cached.misses == 5
        assert cached.evictions == 1
        stats = cached.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 5, 1)

    def test_attributes_track_registry(self, server, catalog):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cached = CachedPKGMServer(server, capacity=4, registry=registry)
        cached.serve(catalog.items[0].entity_id)
        assert registry.snapshot()["cache.misses"] == cached.misses == 1

    def test_default_registry_is_private(self, server):
        a = CachedPKGMServer(server, capacity=4)
        b = CachedPKGMServer(server, capacity=4)
        a.serve(0)
        assert a.metrics is not b.metrics
        assert b.misses == 0

    def test_refresh_keeps_lifetime_refresh_count(self, cached, server, catalog):
        cached.serve(catalog.items[0].entity_id)
        cached.refresh(server)
        cached.refresh(server)
        assert cached.metrics.snapshot()["cache.refreshes"] == 2


class FlipFlopBackend:
    """Backend that serves flagged fallbacks until switched live."""

    def __init__(self, server):
        self._server = server
        self.live = False

    @property
    def k(self):
        return self._server.k

    @property
    def dim(self):
        return self._server.dim

    def serve(self, entity_id):
        if not self.live:
            return fallback_payload(entity_id, self.k, self.dim)
        return self._server.serve(entity_id)


class TestDegradedPayloadsNotCached:
    def test_degraded_result_is_not_stored(self, server, catalog):
        backend = FlipFlopBackend(server)
        cached = CachedPKGMServer(backend, capacity=4)
        entity = catalog.items[0].entity_id
        first = cached.serve(entity)
        assert first.degraded
        assert cached.stats().size == 0  # outage artifact never sticks

    def test_next_request_retries_live(self, server, catalog):
        backend = FlipFlopBackend(server)
        cached = CachedPKGMServer(backend, capacity=4)
        entity = catalog.items[0].entity_id
        cached.serve(entity)  # degraded, uncached
        backend.live = True
        second = cached.serve(entity)  # backend healed: a live miss
        assert not second.degraded
        assert cached.stats().misses == 2
        assert cached.stats().size == 1
        third = cached.serve(entity)  # the live payload is cached
        assert not third.degraded
        assert cached.stats().hits == 1

    def test_live_payloads_still_cached(self, server, catalog):
        cached = CachedPKGMServer(server, capacity=4)
        entity = catalog.items[0].entity_id
        cached.serve(entity)
        cached.serve(entity)
        assert cached.stats().hits == 1
        assert cached.stats().size == 1
