"""Tests for the scenario serving facade: the zero-shot recommender,
the breaker+cache discipline, and the worker-side engine bundle."""

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.reliability.retry import CircuitBreaker, RPCError, StepClock
from repro.scenarios import (
    ScenarioService,
    ServiceRecommender,
    WorkerScenarios,
    degraded_explanation,
    degraded_recommendation,
)


class TestServiceRecommender:
    @pytest.fixture(scope="class")
    def recommender(self, server):
        return ServiceRecommender(server)

    def test_never_recommends_the_anchor(self, recommender):
        anchor = int(recommender.items[0])
        payload = recommender.recommend(anchor, k=5)
        assert anchor not in payload.neighbor_ids.tolist()
        assert payload.entity_id == anchor
        assert payload.k == 5
        assert not payload.degraded

    def test_distances_ascending(self, recommender):
        payload = recommender.recommend(int(recommender.items[0]), k=8)
        finite = payload.distances[np.isfinite(payload.distances)]
        assert np.all(np.diff(finite) >= 0)

    def test_deterministic(self, recommender, server):
        anchor = int(recommender.items[3])
        first = recommender.recommend(anchor, k=5)
        second = ServiceRecommender(server).recommend(anchor, k=5)
        assert np.array_equal(first.neighbor_ids, second.neighbor_ids)
        assert np.array_equal(first.distances, second.distances)

    def test_unknown_id_raises(self, recommender):
        with pytest.raises(KeyError):
            recommender.recommend(10**6, k=5)

    def test_k_beyond_pool_pads(self, recommender):
        n = len(recommender.items)
        payload = recommender.recommend(int(recommender.items[0]), k=n + 5)
        assert len(payload.neighbor_ids) == n + 5
        assert payload.neighbor_ids[-1] == -1
        assert np.isinf(payload.distances[-1])


class FlakyExplainer:
    """Stub: raises the scripted error, else returns the scripted payload."""

    def __init__(self, payload=None, error=None):
        self.payload = payload
        self.error = error
        self.calls = 0

    def explain(self, entity_id, relation, kind="completion"):
        self.calls += 1
        if self.error is not None:
            raise self.error
        return self.payload


class StaticRecommender:
    def __init__(self, payload):
        self.payload = payload
        self.calls = 0

    def recommend(self, entity_id, k=10):
        self.calls += 1
        return self.payload


def make_service(explainer, recommender=None, registry=None, breaker=None):
    clock = StepClock()
    return ScenarioService(
        explainer,
        recommender if recommender is not None else StaticRecommender(None),
        clock=clock,
        registry=registry,
        breaker=breaker,
    )


class TestScenarioService:
    def test_ok_payload_cached(self):
        from repro.scenarios.explain import ExplanationPayload

        payload = ExplanationPayload(entity_id=1, relation=0)
        explainer = FlakyExplainer(payload=payload)
        service = make_service(explainer)
        assert service.explain(1, 0) is payload
        assert service.explain(1, 0) is payload
        assert explainer.calls == 1  # second answer came from the cache
        assert service.cached(("explain", 1, 0, "completion")) is payload

    def test_degraded_payload_never_cached(self):
        degraded = degraded_explanation(1, 0)
        explainer = FlakyExplainer(payload=degraded)
        registry = MetricsRegistry()
        service = make_service(explainer, registry=registry)
        assert service.explain(1, 0).degraded
        assert service.explain(1, 0).degraded
        assert explainer.calls == 2  # both calls hit the engine
        assert len(service) == 0
        snapshot = registry.snapshot()
        assert snapshot["scenarios.cache.degraded_skips"] == 2

    def test_degraded_recommendation_never_cached(self):
        recommender = StaticRecommender(degraded_recommendation(1, 5))
        service = make_service(FlakyExplainer(), recommender=recommender)
        assert service.recommend(1, k=5).degraded
        assert len(service) == 0
        assert recommender.calls == 1

    def test_domain_errors_pass_through_without_tripping(self):
        explainer = FlakyExplainer(error=KeyError(99))
        breaker = CircuitBreaker(failure_threshold=2, clock=StepClock())
        service = make_service(explainer, breaker=breaker)
        for _ in range(5):
            with pytest.raises(KeyError):
                service.explain(99, 0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_breaker_opens_on_rpc_errors_then_fails_fast(self):
        explainer = FlakyExplainer(error=RPCError("backend down"))
        breaker = CircuitBreaker(failure_threshold=2, clock=StepClock())
        service = make_service(explainer, breaker=breaker)
        for _ in range(2):
            with pytest.raises(RPCError):
                service.explain(1, 0)
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(RPCError, match="breaker open"):
            service.explain(1, 0)
        assert explainer.calls == 2  # the short-circuit never hit the engine

    def test_cache_hits_served_while_breaker_open(self):
        from repro.scenarios.explain import ExplanationPayload

        payload = ExplanationPayload(entity_id=1, relation=0)
        explainer = FlakyExplainer(payload=payload)
        breaker = CircuitBreaker(failure_threshold=1, clock=StepClock())
        service = make_service(explainer, breaker=breaker)
        assert service.explain(1, 0) is payload  # primed
        explainer.error = RPCError("backend down")
        with pytest.raises(RPCError):
            service.explain(2, 0)
        assert breaker.state == CircuitBreaker.OPEN
        # Stale-on-open: the cached query still answers.
        assert service.explain(1, 0) is payload
        with pytest.raises(RPCError):
            service.explain(3, 0)


class TestWorkerScenarios:
    def test_recommend_without_sidecar(self, server, tmp_path):
        scenarios = WorkerScenarios(server, str(tmp_path))
        anchor = int(sorted(server.known_items())[0])
        payload = scenarios.recommend(anchor, 5)
        assert len(payload.distances) == len(payload.neighbor_ids) == 5
        with pytest.raises(RuntimeError, match="sidecar"):
            scenarios.explain(anchor, 0)

    def test_explain_with_sidecar(self, server, catalog, rules, tmp_path):
        from repro.scenarios import Explainer, save_sidecar

        save_sidecar(str(tmp_path), catalog.store, rules)
        scenarios = WorkerScenarios(server, str(tmp_path))
        direct = Explainer(catalog.store, rules=rules, server=server)
        item = catalog.items[0].entity_id
        relation = direct.completer.head_relations()[0]
        assert (
            scenarios.explain(item, relation).canonical_dict()
            == direct.explain(item, relation).canonical_dict()
        )
