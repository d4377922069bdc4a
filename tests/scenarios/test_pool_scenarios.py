"""Tests for the scenario op kinds on the pool wire protocol and the
forked worker pool (explain/recommend end to end)."""

from pathlib import Path

import numpy as np
import pytest

from repro.serving import PoolConfig, Supervisor, payload_checksum, run_batch
from repro.serving.protocol import KINDS, STATUS_ERROR, STATUS_OK, STATUS_UNKNOWN
from repro.scenarios import (
    Explainer,
    ServiceRecommender,
    WorkerScenarios,
    save_sidecar,
)
from tests.serving.conftest import ask


class TestProtocol:
    def test_scenario_kinds_registered(self):
        assert "explain" in KINDS
        assert "recommend" in KINDS

    def test_explain_checksum_deterministic(self, catalog, rules, server):
        explainer = Explainer(catalog.store, rules=rules, server=server)
        item = catalog.items[0].entity_id
        relation = explainer.completer.head_relations()[0]
        payload = explainer.explain(item, relation).canonical_dict()
        assert payload_checksum("explain", payload) == payload_checksum(
            "explain", dict(reversed(list(payload.items())))
        )
        other = explainer.explain(item, relation, top_k=1).canonical_dict()
        if other != payload:
            assert payload_checksum("explain", other) != payload_checksum(
                "explain", payload
            )

    def test_recommend_checksum_covers_both_arrays(self):
        distances = np.asarray([0.5, 1.5])
        ids = np.asarray([3, 4], dtype=np.int64)
        base = payload_checksum("recommend", (distances, ids))
        assert base == payload_checksum("recommend", (distances.copy(), ids.copy()))
        assert base != payload_checksum(
            "recommend", (distances, np.asarray([3, 5], dtype=np.int64))
        )
        assert base != payload_checksum(
            "recommend", (np.asarray([0.5, 2.5]), ids)
        )


class TestRunBatch:
    def test_scenario_kinds_without_engines_degrade(self, server):
        for kind in ("explain", "recommend"):
            results = run_batch(server, kind, 5, [(1, 0, 0, None)], scenarios=None)
            assert results == [(1, STATUS_ERROR, "worker has no scenario engines")]

    def test_scenario_kinds_with_engines(
        self, server, catalog, rules, tmp_path
    ):
        save_sidecar(str(tmp_path), catalog.store, rules)
        scenarios = WorkerScenarios(server, str(tmp_path))
        item = catalog.items[0].entity_id
        results = run_batch(
            server, "recommend", 5, [(1, item, 0, None)], scenarios=scenarios
        )
        rid, status, payload = results[0]
        assert (rid, status) == (1, STATUS_OK)
        direct = ServiceRecommender(server).recommend(item, k=5)
        assert np.array_equal(payload[0], direct.distances)
        assert np.array_equal(payload[1], direct.neighbor_ids)

        explainer = Explainer(catalog.store, rules=rules, server=server)
        relation = explainer.completer.head_relations()[0]
        results = run_batch(
            server, "explain", 0, [(2, item, relation, None)], scenarios=scenarios
        )
        rid, status, payload = results[0]
        assert (rid, status) == (2, STATUS_OK)
        assert payload == explainer.explain(item, relation).canonical_dict()

    def test_refused_sidecar_is_parsed_once_per_worker(
        self, server, catalog, rules, tmp_path, monkeypatch
    ):
        from repro.scenarios import service

        sidecar = Path(save_sidecar(str(tmp_path), catalog.store, rules))
        sidecar.write_bytes(sidecar.read_bytes()[:-40])
        parses = []
        real = service.load_sidecar
        monkeypatch.setattr(
            service,
            "load_sidecar",
            lambda *args, **kwargs: parses.append(1) or real(*args, **kwargs),
        )
        scenarios = WorkerScenarios(server, str(tmp_path))
        item = catalog.items[0].entity_id
        results = run_batch(
            server,
            "explain",
            0,
            [(1, item, 0, None), (2, item, 0, None)],
            scenarios=scenarios,
        )
        assert [status for _, status, _ in results] == [STATUS_ERROR] * 2
        # Same refusal text whichever request a worker sees first.
        assert results[0][2] == results[1][2]
        assert "manifest" in results[0][2]
        assert len(parses) == 1

    def test_unknown_ids_degrade_per_item(self, server, catalog, tmp_path):
        scenarios = WorkerScenarios(server, str(tmp_path))
        item = catalog.items[0].entity_id
        results = run_batch(
            server,
            "recommend",
            5,
            [(1, item, 0, None), (2, 10**6, 0, None)],
            scenarios=scenarios,
        )
        by_id = {rid: status for rid, status, _ in results}
        assert by_id == {1: STATUS_OK, 2: STATUS_UNKNOWN}


@pytest.fixture(scope="module")
def scenario_store(tmp_path_factory, server, catalog, rules):
    path = tmp_path_factory.mktemp("scenarios") / "store"
    server.save_store(path, num_shards=2, page_bytes=4096).close()
    save_sidecar(str(path), catalog.store, rules)
    return path


@pytest.fixture(scope="module")
def bare_store(tmp_path_factory, server):
    """Same embeddings, no sidecar: recommend works, explain errors."""
    path = tmp_path_factory.mktemp("scenarios-bare") / "store"
    server.save_store(path, num_shards=2, page_bytes=4096).close()
    return path


class TestForkedPool:
    def test_pool_matches_direct_engines(
        self, scenario_store, server, catalog, rules
    ):
        explainer = Explainer(catalog.store, rules=rules, server=server)
        recommender = ServiceRecommender(server)
        item = catalog.items[0].entity_id
        relation = explainer.completer.head_relations()[0]
        pool = Supervisor(scenario_store, PoolConfig(num_workers=2, max_batch=4))
        pool.start()
        try:
            payload = ask(pool, "explain", item, relation).payload
            assert payload == explainer.explain(item, relation).canonical_dict()
            distances, neighbor_ids = ask(pool, "recommend", item, k=5).payload
            direct = recommender.recommend(item, k=5)
            assert np.array_equal(distances, direct.distances)
            assert np.array_equal(neighbor_ids, direct.neighbor_ids)
            assert ask(pool, "explain", 10**6, relation).outcome == STATUS_UNKNOWN
        finally:
            pool.shutdown()

    def test_torn_sidecar_degrades_explain_and_kills_no_worker(
        self, tmp_path, server, catalog, rules
    ):
        """Regression: a half-written ``scenarios.json`` used to raise
        ``JSONDecodeError`` inside the worker (not in the op's error
        set), killing it; the replay then killed its sibling, and a
        dozen explains spent every restart — the whole pool gone."""
        path = tmp_path / "store"
        server.save_store(path, num_shards=2, page_bytes=4096).close()
        sidecar = Path(save_sidecar(str(path), catalog.store, rules))
        blob = sidecar.read_bytes()
        sidecar.write_bytes(blob[: len(blob) // 2])
        item = catalog.items[0].entity_id
        pool = Supervisor(path, PoolConfig(num_workers=2))
        pool.start()
        try:
            for _ in range(12):
                assert ask(pool, "explain", item, 0).outcome == STATUS_ERROR
            assert pool.metrics.counter("pool.worker_deaths").value == 0
            assert all(handle.routable for handle in pool.workers)
            _, triple_vectors, _ = ask(pool, "serve", item).payload
            assert np.array_equal(triple_vectors, server.serve(item).triple_vectors)
        finally:
            pool.shutdown()

    def test_missing_sidecar_fails_explain_not_recommend(
        self, bare_store, server, catalog
    ):
        item = catalog.items[0].entity_id
        pool = Supervisor(bare_store, PoolConfig(num_workers=1, max_batch=4))
        pool.start()
        try:
            assert ask(pool, "explain", item, 0).outcome == STATUS_ERROR
            distances, neighbor_ids = ask(pool, "recommend", item, k=5).payload
            assert len(distances) == len(neighbor_ids) == 5
        finally:
            pool.shutdown()
