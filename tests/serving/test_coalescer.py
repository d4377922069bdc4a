"""Coalescer tests: max-batch, max-delay, forced flush — all virtual-time."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.reliability import StepClock
from repro.serving import Batch, Coalescer, CoalescerConfig, PoolRequest


def request(request_id, shard=0, kind="serve", k=10, entity=1):
    return PoolRequest(
        request_id=request_id,
        kind=kind,
        entity_id=entity,
        relation=-1,
        k=k,
        deadline_at=100.0,
        shard=shard,
    )


class TestPolicy:
    def test_flush_on_full(self):
        coalescer = Coalescer(StepClock(), CoalescerConfig(max_batch=3))
        assert coalescer.offer(request(0)) == []
        assert coalescer.offer(request(1)) == []
        batches = coalescer.offer(request(2))
        assert len(batches) == 1
        assert [r.request_id for r in batches[0].requests] == [0, 1, 2]
        assert coalescer.pending() == 0

    def test_flush_on_delay(self):
        clock = StepClock()
        coalescer = Coalescer(
            clock, CoalescerConfig(max_batch=16, max_delay=0.5)
        )
        coalescer.offer(request(0))
        clock.advance(0.4)
        assert coalescer.due() == []
        clock.advance(0.2)
        batches = coalescer.due()
        assert len(batches) == 1
        assert batches[0].requests[0].request_id == 0

    def test_delay_measured_from_oldest(self):
        clock = StepClock()
        coalescer = Coalescer(
            clock, CoalescerConfig(max_batch=16, max_delay=0.5)
        )
        coalescer.offer(request(0))
        clock.advance(0.4)
        coalescer.offer(request(1))  # same group; does not reset the timer
        clock.advance(0.15)
        batches = coalescer.due()
        assert len(batches) == 1
        assert len(batches[0].requests) == 2

    def test_groups_are_keyed_by_shard_kind_k(self):
        coalescer = Coalescer(StepClock(), CoalescerConfig(max_batch=2))
        coalescer.offer(request(0, shard=0, kind="serve"))
        coalescer.offer(request(1, shard=1, kind="serve"))
        coalescer.offer(request(2, shard=0, kind="retrieve", k=5))
        assert coalescer.pending() == 3  # three distinct groups, none full
        batches = coalescer.flush_all()
        keys = [(b.shard, b.kind, b.k) for b in batches]
        assert keys == sorted(keys)
        assert len(batches) == 3

    def test_flush_all_forced_and_deterministic_order(self):
        coalescer = Coalescer(StepClock(), CoalescerConfig(max_batch=8))
        for request_id, shard in [(0, 2), (1, 0), (2, 1)]:
            coalescer.offer(request(request_id, shard=shard))
        assert [b.shard for b in coalescer.flush_all()] == [0, 1, 2]
        assert coalescer.flush_all() == []


class TestMetrics:
    def test_counters_and_reasons(self):
        clock = StepClock()
        registry = MetricsRegistry()
        coalescer = Coalescer(
            clock,
            CoalescerConfig(max_batch=2, max_delay=0.1),
            registry=registry,
        )
        coalescer.offer(request(0))
        coalescer.offer(request(1))  # full
        coalescer.offer(request(2))
        clock.advance(0.2)
        coalescer.due()  # delay
        coalescer.offer(request(3))
        coalescer.flush_all()  # forced
        assert registry.counter("coalesce.requests").value == 4
        assert registry.counter("coalesce.batches").value == 3
        for reason in ("full", "delay", "forced"):
            counter = registry.counter(
                "coalesce.flushes", labels={"reason": reason}
            )
            assert counter.value == 1


class TestValidation:
    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CoalescerConfig(max_batch=0)
        with pytest.raises(ValueError):
            CoalescerConfig(max_delay=-1.0)

    def test_batch_is_frozen(self):
        batch = Batch(shard=0, kind="serve", k=10, requests=())
        with pytest.raises(AttributeError):
            batch.shard = 1
