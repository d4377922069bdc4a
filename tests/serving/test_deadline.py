"""Worker-side deadline cancellation and budget propagation."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.reliability.retry import StepClock
from repro.serving import PoolConfig, Supervisor, run_batch
from repro.serving.protocol import STATUS_DEADLINE, STATUS_OK
from tests.serving.conftest import ask


@pytest.fixture()
def pool(store_dir):
    supervisor = Supervisor(
        store_dir,
        PoolConfig(num_workers=2, max_batch=4, cache_pages=8),
        clock=StepClock(),
        registry=MetricsRegistry(),
    )
    supervisor.start()
    yield supervisor
    supervisor.shutdown()


class TestRunBatch:
    def test_expired_budget_cancelled_before_kernel(self, reference, item_ids):
        entity = item_ids[0]
        results = run_batch(
            reference, "serve", 10, [(0, entity, -1, 0.0)]
        )
        assert results == [(0, STATUS_DEADLINE, None)]

    def test_live_budget_served(self, reference, item_ids):
        entity = item_ids[0]
        results = run_batch(
            reference, "serve", 10, [(0, entity, -1, 5.0)]
        )
        assert results[0][1] == STATUS_OK

    def test_none_budget_is_unbounded(self, reference, item_ids):
        entity = item_ids[0]
        results = run_batch(reference, "serve", 10, [(0, entity, -1, None)])
        assert results[0][1] == STATUS_OK

    def test_mixed_batch_cancels_only_expired(self, reference, item_ids):
        items = [
            (0, item_ids[0], 1, 0.0),
            (1, item_ids[1], 1, None),
            (2, item_ids[2], 1, 3.0),
        ]
        results = dict(
            (rid, status) for rid, status, _ in
            run_batch(reference, "exist", 10, items)
        )
        assert results == {
            0: STATUS_DEADLINE,
            1: STATUS_OK,
            2: STATUS_OK,
        }


class TestPoolDeadlines:
    def test_expired_deadline_fails_fast(self, pool, item_ids):
        response = ask(pool, "serve", item_ids[0], budget=0.0)
        assert (response.outcome, response.worker) == (STATUS_DEADLINE, -1)
        assert (
            pool.metrics.counter("pool.failfast_deadline").value >= 1
        )

    def test_live_deadline_answers(self, pool, reference, item_ids):
        response = ask(pool, "serve", item_ids[0], budget=60.0)
        assert response.ok
        _, triple_vectors, _ = response.payload
        assert triple_vectors.shape == (reference.k, reference.dim)

    def test_batch_frames_carry_budget(self, pool, item_ids, monkeypatch):
        captured = []
        original = pool._send_batch

        def spy(handle, batch, items):
            captured.append(list(items))
            return original(handle, batch, items)

        monkeypatch.setattr(pool, "_send_batch", spy)
        ask(pool, "serve", item_ids[0], budget=42.0)
        assert captured
        item = captured[0][0]
        assert len(item) == 4
        assert item[3] is not None and item[3] <= 42.0

    @pytest.mark.parametrize("kind", ["serve", "retrieve", "exist"])
    def test_gateway_budget_reaches_the_wire_for_every_pool_kind(
        self, pool, item_ids, monkeypatch, kind
    ):
        """The budget a gateway submits with is what the worker checks."""
        captured = []
        original = pool._send_batch

        def spy(handle, batch, items):
            captured.extend(item[3] for item in items)
            return original(handle, batch, items)

        monkeypatch.setattr(pool, "_send_batch", spy)
        response = ask(pool, kind, item_ids[0], 0, 5, budget=0.5)
        assert response.ok and response.payload is not None
        assert len(captured) == 1
        assert 0.0 < captured[0] <= 0.5
