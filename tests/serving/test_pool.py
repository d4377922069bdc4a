"""Supervisor tests: real forked workers, real crashes, exactly-once."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serving import PoolConfig, PoolError, Supervisor, run_batch
from repro.serving.protocol import STATUS_OK, STATUS_UNKNOWN
from repro.store import EmbeddingStore


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


class TestBitIdentity:
    def test_serve_matches_in_ram_reference(self, pool, reference, item_ids):
        for entity in item_ids[:6]:
            expected = reference.serve(entity)
            got = pool.serve(entity)
            np.testing.assert_array_equal(
                got.key_relations, expected.key_relations
            )
            np.testing.assert_array_equal(
                got.triple_vectors, expected.triple_vectors
            )
            np.testing.assert_array_equal(
                got.relation_vectors, expected.relation_vectors
            )

    def test_retrieval_matches_in_ram_reference(self, pool, reference, item_ids):
        entity = item_ids[0]
        expected_d, expected_i = reference.nearest_tails(entity, 0, k=5)
        got_d, got_i = pool.nearest_tails(entity, 0, k=5)
        np.testing.assert_array_equal(got_d, expected_d)
        np.testing.assert_array_equal(got_i, expected_i)

    def test_existence_matches_in_ram_reference(self, pool, reference, item_ids):
        entity = item_ids[1]
        expected = float(
            reference.relation_existence_scores(
                np.array([entity]), np.array([1])
            )[0]
        )
        assert pool.relation_existence_score(entity, 1) == expected

    def test_unknown_entity_raises_keyerror(self, pool):
        with pytest.raises(KeyError):
            pool.serve(10_000)


class TestForkedWorkersInheritTheirModules:
    def test_importing_the_supervisor_imports_the_scenario_engines(self):
        # A fresh interpreter: a worker forked from it finds every module
        # it runs already imported, so a start or restart compiles none.
        src = Path(__file__).resolve().parents[2] / "src"
        probe = (
            "import sys, repro.serving.supervisor; "
            "print('repro.scenarios.service' in sys.modules)"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "True"


class TestLifecycle:
    def test_start_brings_all_workers_up(self, pool):
        assert pool.alive_workers() == 2
        assert pool.metrics.gauge("pool.workers_up").value == 2
        assert all(pid is not None for pid in pool.worker_pids())

    def test_heartbeats_answered(self, pool):
        assert pool.ping_all(timeout=10.0) == 2
        assert pool.metrics.counter("pool.heartbeats").value == 2
        assert pool.metrics.counter("pool.heartbeat_losses").value == 0

    def test_shutdown_is_clean_and_repeatable(self, store_dir):
        supervisor = Supervisor(store_dir, PoolConfig(num_workers=2))
        supervisor.start()
        supervisor.shutdown()
        supervisor.shutdown()
        assert pool_down(supervisor)

    def test_rejects_non_server_store(self, tmp_path):
        plain = EmbeddingStore.build(
            tmp_path / "plain",
            {"entity_table": np.zeros((4, 2))},
            num_shards=1,
            page_bytes=128,
            metadata={"kind": "test"},
        )
        plain.close()
        with pytest.raises(PoolError):
            Supervisor(tmp_path / "plain")


def pool_down(supervisor):
    return all(
        handle.process is None or not handle.process.is_alive()
        for handle in supervisor.workers
    )


class TestCrashRecovery:
    def test_kill_discovered_replayed_and_restarted(self, pool, item_ids):
        request_ids = [
            pool.submit("serve", entity) for entity in item_ids[:3]
        ]
        pool.kill_worker(0)
        responses = pool.drain()
        assert sorted(r.request_id for r in responses) == sorted(request_ids)
        outcomes = {r.request_id: r.outcome for r in responses}
        assert all(outcome == STATUS_OK for outcome in outcomes.values())
        assert pool.metrics.counter("pool.worker_deaths").value >= 1
        assert pool.metrics.counter("pool.worker_restarts").value >= 1
        assert pool.metrics.counter("pool.duplicates_dropped").value == 0

    def test_sync_call_survives_a_kill(self, pool, reference, item_ids):
        # Pick an entity whose shard belongs to worker 0, then kill 0
        # *before* the call: routing still thinks it is up, the send
        # lands in a dead socket, and the EOF path fails the batch over.
        entity = next(e for e in item_ids if e % 2 == 0)
        pool.kill_worker(0)
        expected = reference.serve(entity)
        got = pool.serve(entity)
        np.testing.assert_array_equal(got.triple_vectors, expected.triple_vectors)
        assert pool.metrics.counter("pool.worker_deaths").value == 1

    def test_exactly_once_under_repeated_kills(self, pool, item_ids):
        submitted = []
        for round_index in range(3):
            for entity in item_ids[:4]:
                submitted.append(pool.submit("exist", entity, relation=1))
            pool.kill_worker(round_index % 2)
            pool.drain()
        terminal = pool.terminal()
        assert sorted(terminal) == sorted(submitted)
        keys = [terminal[rid].idempotency_key for rid in terminal]
        assert len(set(keys)) == len(keys)
        assert pool.metrics.counter("pool.duplicates_dropped").value == 0

    def test_expired_budget_fails_fast_before_dispatch(self, pool, item_ids):
        request_id = pool.submit("serve", item_ids[0], budget=0.0)
        response = pool.terminal()[request_id]
        assert response.outcome == "deadline"
        assert response.worker == -1
        assert pool.metrics.counter("pool.failfast_deadline").value == 1
        assert pool.metrics.counter("pool.batches_sent").value == 0


class TestIdleScrub:
    def test_idle_ticks_scrub_the_store(self, store_dir):
        supervisor = Supervisor(
            store_dir,
            PoolConfig(num_workers=1, scrub_pages_per_tick=4),
            registry=MetricsRegistry(),
        )
        supervisor.start()
        try:
            for _ in range(3):
                supervisor.tick()
            assert supervisor.metrics.counter("pool.idle_scrub_ticks").value == 3
            assert supervisor.metrics.counter("store.scrub.pages").value == 12
        finally:
            supervisor.shutdown()


class TestRunBatch:
    def test_run_batch_mixes_ok_and_unknown(self, reference, item_ids):
        items = [(0, item_ids[0], -1, None), (1, 10_000, -1, None)]
        results = run_batch(reference, "serve", 10, items)
        statuses = {request_id: status for request_id, status, _ in results}
        assert statuses == {0: STATUS_OK, 1: STATUS_UNKNOWN}

    def test_run_batch_exist_uses_fused_kernel(self, reference, item_ids):
        items = [(i, entity, 1, None) for i, entity in enumerate(item_ids[:4])]
        results = run_batch(reference, "exist", 10, items)
        expected = reference.relation_existence_scores(
            np.array(item_ids[:4]), np.ones(4, dtype=np.int64)
        )
        for (request_id, status, payload), want in zip(results, expected):
            assert status == STATUS_OK
            assert payload == float(want)
