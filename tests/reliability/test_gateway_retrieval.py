"""Gateway retrieval path: admission, deadlines, degraded payloads."""

import numpy as np

from repro.reliability import AdmissionConfig, GatewayConfig, RetrievalPayload

from .test_gateway import make_gateway


class TestRetrievalOkPath:
    def test_answers_match_the_server(self, server):
        gateway = make_gateway(server, [[0.01]])
        assert gateway.submit_retrieval(0, relation=0, k=3) is None
        responses = gateway.drain()
        assert len(responses) == 1
        response = responses[0]
        assert response.ok and response.reason is None
        payload = response.vectors
        assert isinstance(payload, RetrievalPayload)
        assert payload.entity_id == 0 and payload.relation == 0
        expected_d, expected_i = server.nearest_tails(0, 0, k=3)
        assert np.array_equal(payload.neighbor_ids, expected_i)
        assert np.array_equal(payload.distances, expected_d)
        assert gateway.stats.retrievals == 1
        assert gateway.stats.completed_ok == 1

    def test_mixed_traffic_counts_separately(self, server):
        gateway = make_gateway(server, [[0.01] * 4])
        gateway.submit(0)
        gateway.submit_retrieval(1, relation=1, k=2)
        gateway.submit(2)
        responses = gateway.drain()
        assert len(responses) == 3
        assert all(r.ok for r in responses)
        assert gateway.stats.arrived == 3
        assert gateway.stats.retrievals == 1
        retrievals = [
            r for r in responses if isinstance(r.vectors, RetrievalPayload)
        ]
        assert len(retrievals) == 1

    def test_retrieval_is_never_hedged(self, server):
        # Two replicas, a slow primary, hedging armed: a serve request
        # would hedge here, but retrieval must not (a cold replica would
        # have to build its own tail index first).
        gateway = make_gateway(
            server,
            [[0.2], [0.01]],
            GatewayConfig(deadline_budget=1.0, hedge_after=0.05),
        )
        gateway.submit_retrieval(0, relation=0, k=2)
        responses = gateway.drain()
        assert responses[0].ok
        assert not responses[0].hedged
        assert gateway.stats.hedges_sent == 0


class TestRetrievalDegradedPaths:
    def test_deadline_miss_degrades_never_raises(self, server):
        gateway = make_gateway(
            server,
            [[10.0]],
            GatewayConfig(deadline_budget=0.25, hedge_after=None),
        )
        assert gateway.submit_retrieval(0, relation=0, k=4) is None
        responses = gateway.drain()
        response = responses[0]
        assert not response.ok
        assert response.reason == "deadline"
        payload = response.vectors
        assert payload.degraded
        assert payload.k == 4
        assert np.isinf(payload.distances).all()
        assert (payload.neighbor_ids == -1).all()
        assert gateway.stats.deadline_backend_misses == 1

    def test_unknown_entity_degrades(self, server):
        gateway = make_gateway(server, [[0.01]])
        gateway.submit_retrieval(10_000, relation=0, k=2)
        responses = gateway.drain()
        response = responses[0]
        assert not response.ok
        assert response.reason == "unknown-id"
        assert response.vectors.degraded
        assert gateway.stats.backend_errors == 1

    def test_shed_retrieval_gets_degraded_payload(self, server):
        config = GatewayConfig(
            hedge_after=None,
            admission=AdmissionConfig(initial_limit=1, queue_capacity=1),
        )
        gateway = make_gateway(server, [[0.01] * 8], config)
        gateway.submit_retrieval(0, relation=0, k=2)  # takes the slot
        gateway.submit_retrieval(1, relation=0, k=2)  # queues
        shed = gateway.submit_retrieval(2, relation=0, k=2)  # overflows
        assert shed is not None
        assert shed.reason == "queue-full"
        assert isinstance(shed.vectors, RetrievalPayload)
        assert shed.vectors.degraded
        assert gateway.stats.retrievals == 3
        drained = gateway.drain()
        assert all(r.ok for r in drained)

    def test_quiesced_gateway_sheds_retrievals(self, server):
        gateway = make_gateway(server, [[0.01]])
        gateway.drain()
        response = gateway.submit_retrieval(0, relation=0, k=2)
        assert response is not None
        assert response.reason == "draining"
        assert response.vectors.degraded
