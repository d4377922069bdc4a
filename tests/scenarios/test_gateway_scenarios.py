"""Gateway tests for the scenario endpoints (satellite: degraded modes).

The serving invariants, re-proven for ``submit_explanation`` and
``submit_recommendation``: expired budgets and engine failures are
answered with *typed* degraded payloads — never exceptions.
"""

import numpy as np
import pytest

from repro.reliability import (
    GatewayConfig,
    PKGMGateway,
    StepClock,
    TimedBackend,
)
from repro.reliability.retry import RPCError
from repro.scenarios import (
    Explainer,
    ExplanationPayload,
    RecommendationPayload,
    ScenarioService,
    ServiceRecommender,
)


class ScriptedLatency:
    def __init__(self, values):
        self._values = [float(v) for v in values]
        self._index = 0

    def sample(self):
        value = self._values[self._index % len(self._values)]
        self._index += 1
        return value


@pytest.fixture()
def scenario_parts(catalog, rules, server):
    clock = StepClock()
    service = ScenarioService(
        Explainer(catalog.store, rules=rules, server=server),
        ServiceRecommender(server),
    )
    return clock, service


def make_gateway(server, service, clock, latency=0.01):
    replicas = [
        TimedBackend(server, latency=ScriptedLatency([latency]), name=f"r{i}")
        for i in range(2)
    ]
    return PKGMGateway(
        replicas,
        GatewayConfig(deadline_budget=0.25, hedge_after=None),
        clock=clock,
        scenarios=service,
    )


class TestDegradedModes:
    def test_expired_budget_explanation_rejected_pre_dispatch(
        self, server, scenario_parts, catalog
    ):
        clock, service = scenario_parts
        gateway = make_gateway(server, service, clock)
        item = catalog.items[0].entity_id
        response = gateway.submit_explanation(item, 0, budget=0.0)
        assert response is not None  # answered immediately, no queueing
        assert not response.ok
        assert response.reason == "deadline"
        payload = response.vectors
        assert isinstance(payload, ExplanationPayload)
        assert payload.degraded
        assert payload.predictions == ()
        assert gateway.stats.deadline_rejected == 1
        assert gateway.stats.explanations == 1

    def test_expired_budget_recommendation_rejected_pre_dispatch(
        self, server, scenario_parts, catalog
    ):
        clock, service = scenario_parts
        gateway = make_gateway(server, service, clock)
        item = catalog.items[0].entity_id
        response = gateway.submit_recommendation(item, k=5, budget=0.0)
        assert response is not None
        assert response.reason == "deadline"
        payload = response.vectors
        assert isinstance(payload, RecommendationPayload)
        assert payload.degraded
        assert np.all(np.isinf(payload.distances))
        assert np.all(payload.neighbor_ids == -1)
        assert gateway.stats.deadline_rejected == 1
        assert gateway.stats.recommendations == 1

    def test_engine_rpc_error_degrades_both_kinds_uncached(
        self, server, scenario_parts, catalog, monkeypatch
    ):
        clock, service = scenario_parts

        def down(*args, **kwargs):
            raise RPCError("engine down")

        # Both engines fail; the service passes the error through.
        monkeypatch.setattr(service.explainer, "explain", down)
        monkeypatch.setattr(service.recommender, "recommend", down)
        gateway = make_gateway(server, service, clock)
        item = catalog.items[0].entity_id
        gateway.submit_explanation(item, 0)
        gateway.submit_recommendation(item, k=5)
        responses = gateway.drain()
        assert len(responses) == 2
        by_kind = {type(r.vectors): r for r in responses}
        for response in responses:
            assert not response.ok
            assert response.reason == "rpc-error"
            assert response.vectors.degraded
        assert set(by_kind) == {ExplanationPayload, RecommendationPayload}
        assert gateway.stats.backend_errors == 2
        assert gateway.stats.completed_degraded == 2

    def test_slow_backend_deadline_degrades(
        self, server, scenario_parts, catalog
    ):
        clock, service = scenario_parts
        gateway = make_gateway(server, service, clock, latency=10.0)
        item = catalog.items[0].entity_id
        gateway.submit_explanation(item, 0)
        responses = gateway.drain()
        assert len(responses) == 1
        assert responses[0].reason == "deadline"
        assert responses[0].vectors.degraded
        assert gateway.stats.deadline_backend_misses == 1

    def test_unknown_entity_degrades_as_unknown_id(
        self, server, scenario_parts, catalog
    ):
        clock, service = scenario_parts
        gateway = make_gateway(server, service, clock)
        missing = len(catalog.entities) + 1000
        gateway.submit_explanation(missing, 0)
        gateway.submit_recommendation(missing, k=5)
        responses = gateway.drain()
        assert [r.reason for r in responses] == ["unknown-id", "unknown-id"]
        assert all(r.vectors.degraded for r in responses)


class TestOkPath:
    def test_ok_answers_are_the_engines_and_counted(
        self, server, scenario_parts, catalog
    ):
        clock, service = scenario_parts
        gateway = make_gateway(server, service, clock)
        item = catalog.items[0].entity_id
        gateway.submit_explanation(item, 0)
        gateway.submit_recommendation(item, k=5)
        responses = gateway.drain()
        assert all(r.ok for r in responses)
        assert gateway.stats.completed_ok == 2
        assert gateway.stats.explanations == 1
        assert gateway.stats.recommendations == 1
        by_kind = {type(r.vectors): r.vectors for r in responses}
        explanation = by_kind[ExplanationPayload]
        assert (
            explanation.canonical_dict()
            == service.explainer.explain(item, 0).canonical_dict()
        )
        assert explanation.entailed_by(catalog.store)
        recommendation = by_kind[RecommendationPayload]
        direct = service.recommender.recommend(item, k=5)
        assert np.array_equal(recommendation.neighbor_ids, direct.neighbor_ids)
        assert np.array_equal(recommendation.distances, direct.distances)

    def test_gateway_without_scenarios_rejects_submission(self, server):
        gateway = PKGMGateway(
            [TimedBackend(server, latency=ScriptedLatency([0.01]))],
            GatewayConfig(deadline_budget=0.25, hedge_after=None),
            clock=StepClock(),
        )
        with pytest.raises(ValueError, match="scenario backend"):
            gateway.submit_explanation(0, 0)
        with pytest.raises(ValueError, match="scenario backend"):
            gateway.submit_recommendation(0)
