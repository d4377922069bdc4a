"""Tests for admission control: rate limit, AIMD, queue."""

import pytest

from repro.reliability import (
    AdmissionAction,
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    AIMDLimiter,
    BoundedPriorityQueue,
    StepClock,
    TokenBucket,
)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = StepClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()  # burst exhausted
        clock.advance(0.1)  # 1 token refilled
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = StepClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(3.0)

    def test_disabled_always_admits(self):
        bucket = TokenBucket(rate=None, burst=1.0)
        for _ in range(100):
            assert bucket.try_take()
        assert bucket.available() == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAIMDLimiter:
    def test_additive_increase_one_slot_per_window(self):
        limiter = AIMDLimiter(initial=4, max_limit=64)
        # Roughly one full window of successes buys one slot (the
        # denominator grows as the limit does, so it takes a draw more
        # than `limit` exactly).
        for _ in range(5):
            limiter.on_success()
        assert limiter.limit == 5
        assert limiter.raises == 1

    def test_multiplicative_decrease(self):
        limiter = AIMDLimiter(initial=16)
        limiter.on_overload()
        assert limiter.limit == 8
        limiter.on_overload()
        assert limiter.limit == 4
        assert limiter.backoffs == 2

    def test_bounds_respected(self):
        limiter = AIMDLimiter(initial=8, max_limit=9)
        limits = []
        for _ in range(6):
            limiter.on_overload()
            limits.append(limiter.limit)
        assert limits == [4, 2, 1, 1, 1, 1]  # halved down to MIN_LIMIT
        assert limiter.backoffs == 6
        for _ in range(100):
            limiter.on_success()
        assert limiter.limit == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            AIMDLimiter(initial=0)
        with pytest.raises(ValueError):
            AIMDLimiter(initial=9, max_limit=8)


class TestBoundedPriorityQueue:
    def test_fifo_within_priority(self):
        queue = BoundedPriorityQueue(capacity=4)
        for item in ("a", "b", "c"):
            assert queue.push(item, priority=1) is None
        assert [queue.pop() for _ in range(3)] == ["a", "b", "c"]
        assert queue.pop() is None

    def test_priority_order(self):
        queue = BoundedPriorityQueue(capacity=4)
        queue.push("low", priority=0)
        queue.push("high", priority=2)
        queue.push("mid", priority=1)
        assert [queue.pop() for _ in range(3)] == ["high", "mid", "low"]

    def test_overflow_sheds_arrival_when_not_outranking(self):
        queue = BoundedPriorityQueue(capacity=2)
        queue.push("a", priority=1)
        queue.push("b", priority=1)
        # Equal priority does not evict queued work: tail-drop arrival.
        assert queue.push("c", priority=1) == "c"
        assert len(queue) == 2

    def test_overflow_evicts_youngest_lowest_priority(self):
        queue = BoundedPriorityQueue(capacity=3)
        queue.push("old-low", priority=0)
        queue.push("young-low", priority=0)
        queue.push("high", priority=2)
        evicted = queue.push("arrival", priority=1)
        assert evicted == "young-low"
        assert len(queue) == 3
        assert [queue.pop() for _ in range(3)] == ["high", "arrival", "old-low"]

    def test_lazy_deletion_consistent_after_eviction(self):
        queue = BoundedPriorityQueue(capacity=2)
        queue.push("a", priority=0)
        queue.push("b", priority=0)
        assert queue.push("c", priority=5) == "b"  # evicts youngest low
        assert queue.pop() == "c"
        assert queue.pop() == "a"
        assert queue.pop() is None
        assert len(queue) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedPriorityQueue(capacity=0)


class TestAdmissionController:
    def test_starts_until_limit_then_queues(self):
        controller = AdmissionController(
            AdmissionConfig(initial_limit=2, queue_capacity=4)
        )
        assert controller.offer("r1").action is AdmissionAction.START
        assert controller.offer("r2").action is AdmissionAction.START
        assert controller.offer("r3").action is AdmissionAction.QUEUE
        assert controller.inflight == 2
        assert len(controller.queue) == 1

    def test_rate_shed_before_queueing(self):
        clock = StepClock()
        controller = AdmissionController(
            AdmissionConfig(rate=1.0, burst=1.0), clock=clock
        )
        assert controller.offer("r1").action is AdmissionAction.START
        decision = controller.offer("r2")
        assert decision.action is AdmissionAction.SHED_RATE
        assert controller.stats.shed_rate_limited == 1

    def test_queue_full_sheds_arrival(self):
        controller = AdmissionController(
            AdmissionConfig(initial_limit=1, queue_capacity=1)
        )
        controller.offer("r1", priority=0)
        controller.offer("r2", priority=0)
        decision = controller.offer("r3", priority=0)
        assert decision.action is AdmissionAction.SHED_QUEUE_FULL
        assert controller.stats.shed_queue_full == 1

    def test_high_priority_evicts_queued_victim(self):
        controller = AdmissionController(
            AdmissionConfig(initial_limit=1, queue_capacity=1)
        )
        controller.offer("running", priority=0)
        controller.offer("victim", priority=0)
        decision = controller.offer("vip", priority=3)
        assert decision.action is AdmissionAction.QUEUE
        assert decision.evicted == "victim"
        assert controller.stats.evicted == 1

    def test_release_feeds_limiter_and_next_ready(self):
        controller = AdmissionController(
            AdmissionConfig(initial_limit=1, queue_capacity=4)
        )
        controller.offer("r1")
        controller.offer("r2")
        assert controller.next_ready() is None  # no free slot yet
        controller.release(overloaded=False)
        assert controller.next_ready() == "r2"
        assert controller.stats.started == 2
        controller.release(overloaded=True)
        assert controller.limiter.backoffs == 1
        assert controller.stats.completed_ok == 1
        assert controller.stats.completed_overload == 1

    def test_release_without_start_raises(self):
        controller = AdmissionController()
        with pytest.raises(RuntimeError):
            controller.release()

    def test_stats_row_and_shed_rate(self):
        stats = AdmissionStats(arrived=10, shed_rate_limited=2, evicted=1)
        assert stats.shed == 3
        assert stats.shed_rate == pytest.approx(0.3)
        assert "admission:" in stats.as_row()
        assert AdmissionStats().shed_rate == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(queue_capacity=0)
