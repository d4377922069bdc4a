"""Tests for the scenario serving backend: the zero-shot recommender,
the gateway's engine pair, and the worker-side engine bundle."""

import numpy as np
import pytest

from repro.reliability.retry import RPCError
from repro.scenarios import (
    ScenarioService,
    ServiceRecommender,
    WorkerScenarios,
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


class TestScenarioService:
    def test_engine_errors_propagate_uncached(self):
        for error in (KeyError(99), RPCError("backend down")):
            explainer = FlakyExplainer(error=error)
            service = ScenarioService(explainer, StaticRecommender(None))
            for _ in range(3):
                with pytest.raises(type(error)):
                    service.explain(99, 0)
            assert explainer.calls == 3  # every call reached the engine


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
