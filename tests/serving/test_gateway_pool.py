"""The PR 3 gateway wrapping the worker pool — unchanged plumbing.

``Supervisor`` exposes ``serve`` / ``nearest_tails`` plus ``k``/``dim``
and raises :class:`PoolError` (an ``RPCError``), so ``PKGMGateway``
treats a pool exactly like any other replica backend.
"""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.reliability import PKGMGateway, StepClock, TimedBackend
from repro.serving import PoolConfig, Supervisor


class InstantLatency:
    def sample(self):
        return 0.001


@pytest.fixture()
def pool(store_dir):
    supervisor = Supervisor(
        store_dir,
        PoolConfig(num_workers=2, max_batch=4, cache_pages=8),
        registry=MetricsRegistry(),
    )
    supervisor.start()
    yield supervisor
    supervisor.shutdown()


@pytest.fixture()
def gateway(pool):
    clock = StepClock()
    backend = TimedBackend(pool, latency=InstantLatency(), name="pool")
    return PKGMGateway([backend], clock=clock)


class TestGatewayOverPool:
    def test_serve_roundtrip_matches_reference(
        self, gateway, reference, item_ids
    ):
        entity = item_ids[0]
        assert gateway.submit(entity) is None
        gateway.clock.advance(0.01)
        responses = gateway.step()
        assert len(responses) == 1
        assert responses[0].ok
        np.testing.assert_array_equal(
            responses[0].vectors.triple_vectors,
            reference.serve(entity).triple_vectors,
        )

    def test_retrieval_roundtrip(self, gateway, reference, item_ids):
        entity = item_ids[1]
        expected_d, expected_i = reference.nearest_tails(entity, 0, k=4)
        assert gateway.submit_retrieval(entity, 0, k=4) is None
        gateway.clock.advance(0.01)
        responses = gateway.step()
        assert len(responses) == 1 and responses[0].ok
        np.testing.assert_array_equal(responses[0].vectors.distances, expected_d)
        np.testing.assert_array_equal(
            responses[0].vectors.neighbor_ids, expected_i
        )

    def test_unknown_id_degrades_instead_of_raising(self, gateway):
        assert gateway.submit(10_000) is None
        gateway.clock.advance(0.01)
        responses = gateway.step()
        assert len(responses) == 1
        assert not responses[0].ok
        assert responses[0].reason == "unknown-id"

    def test_expired_budget_never_reaches_the_pool(self, gateway, item_ids):
        backend = gateway.replicas[0]
        before = backend.calls
        response = gateway.submit_retrieval(item_ids[0], 0, k=4, budget=0.0)
        assert response is not None
        assert response.reason == "deadline"
        assert backend.calls == before
        assert gateway.stats.deadline_rejected == 1

    def test_quarantined_row_degrades_instead_of_raising(
        self, tmp_path, reference, item_ids
    ):
        store_dir = tmp_path / "damaged"
        reference.save_store(store_dir, num_shards=2, page_bytes=512).close()
        shard = store_dir / "entity_table-0000.bin"
        blob = bytearray(shard.read_bytes())
        blob[3] ^= 0x40  # entity page 0 (rows 0-7) fails its CRC
        shard.write_bytes(bytes(blob))
        pool = Supervisor(
            store_dir, PoolConfig(num_workers=1), registry=MetricsRegistry()
        )
        pool.start()
        try:
            gateway = PKGMGateway([TimedBackend(pool, latency=InstantLatency())])
            assert gateway.submit(item_ids[0]) is None
            assert gateway.submit(item_ids[-1]) is None
            gateway.clock.advance(0.01)
            responses = sorted(gateway.step(), key=lambda r: r.entity_id)
        finally:
            pool.shutdown()
        assert [r.reason for r in responses] == ["quarantined", None]
        assert not responses[0].ok and responses[1].ok
        assert gateway.stats.backend_errors == 1

    def test_gateway_inherits_pool_geometry(self, gateway, pool):
        assert gateway.k == pool.k
        assert gateway.dim == pool.dim
