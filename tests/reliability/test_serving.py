"""The serving contract on the one path that answers degraded.

Every request through :class:`~repro.reliability.PKGMGateway` gets
exactly one answer and never an exception: the backend's own answer,
or a flagged all-zeros payload with a reason — ``unknown-id`` for an id
the server cannot answer, ``rpc-error`` for a failing backend,
``deadline`` for a call slower than its budget.
"""

import numpy as np
import pytest

from repro.reliability import GatewayConfig, RPCError

from .test_gateway import make_gateway

CONFIG = GatewayConfig(deadline_budget=0.25, hedge_after=None)


def serve(gateway, entity_id):
    """One request to completion; its one response."""
    assert gateway.submit(entity_id) is None  # admitted, never shed
    gateway.clock.advance(1.0)
    (response,) = gateway.step()
    return response


@pytest.fixture
def gateway(server):
    return make_gateway(server, [[0.01]], CONFIG)


class DownBackend:
    """A backend whose every call fails with a transient RPC error."""

    def __init__(self, server):
        self.server = server
        self.calls = 0

    @property
    def k(self):
        return self.server.k

    @property
    def dim(self):
        return self.server.dim

    def serve(self, entity_id):
        self.calls += 1
        raise RPCError("backend down")


class TestHappyPath:
    def test_identical_to_backend(self, gateway, server):
        item = server.known_items()[0]
        response = serve(gateway, item)
        assert response.ok and response.reason is None
        assert np.array_equal(
            response.vectors.sequence(), server.serve(item).sequence()
        )
        assert gateway.stats.completed_ok == 1

    def test_surface_passthrough(self, gateway, server):
        assert gateway.k == server.k
        assert gateway.dim == server.dim


class TestUnknownIds:
    def test_unknown_id_returns_flagged_zero_fallback(self, gateway, server):
        response = serve(gateway, 10**9)
        assert response.reason == "unknown-id"
        vectors = response.vectors
        assert vectors.degraded
        assert vectors.entity_id == 10**9
        assert vectors.triple_vectors.shape == (server.k, server.dim)
        assert np.all(vectors.sequence() == 0.0)
        assert np.all(vectors.key_relations == -1)
        assert gateway.stats.backend_errors == 1

    def test_out_of_range_index_never_raises(self, gateway, server):
        # The entity table has num_entities rows; this id indexes past it.
        response = serve(gateway, server.num_entities + 5)
        assert response.reason == "unknown-id"
        assert response.vectors.degraded

    def test_never_raises_over_many_bad_ids(self, gateway):
        for bad in (-1, 10**6, 10**9):
            response = serve(gateway, bad)
            assert response.vectors.degraded
            assert np.isfinite(response.vectors.sequence()).all()


class TestBackendFailures:
    def test_persistent_failure_falls_back_flagged(self, server):
        down = DownBackend(server)
        gateway = make_gateway(down, [[0.01]], CONFIG)
        for _ in range(3):
            response = serve(gateway, server.known_items()[0])
            assert response.reason == "rpc-error"
            assert response.vectors.degraded
        assert down.calls == 3  # one call per request: the gateway never retries
        assert gateway.stats.backend_errors == 3


class TestDeadlines:
    def test_expired_deadline_yields_flagged_fallback(self, server):
        gateway = make_gateway(server, [[10.0]], CONFIG)
        response = serve(gateway, server.known_items()[0])
        assert response.reason == "deadline"
        assert response.vectors.degraded
        assert np.all(response.vectors.sequence() == 0.0)
        assert gateway.stats.deadline_backend_misses == 1

    def test_counter_increments_exactly_once_per_request(self, server):
        gateway = make_gateway(server, [[10.0]], CONFIG)
        for _ in range(3):
            serve(gateway, server.known_items()[0])
        assert gateway.stats.deadline_backend_misses == 3
        assert gateway.stats.completed_degraded == 3

    def test_generous_deadline_serves_live(self, server):
        gateway = make_gateway(server, [[0.2]], CONFIG)  # inside the 0.25 budget
        response = serve(gateway, server.known_items()[0])
        assert response.ok
        assert gateway.stats.deadline_backend_misses == 0
        assert gateway.stats.completed_ok == 1
