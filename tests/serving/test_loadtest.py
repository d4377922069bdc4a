"""Pool loadtest tests: every request accounted, deterministic fallback,
and the one seeded drive's step order against a recording fake pool."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.reliability.retry import StepClock
from repro.serving import (
    PoolConfig,
    PoolResponse,
    ServeLoadConfig,
    ServeLoadReport,
    Supervisor,
    run_serve_loadtest,
)
from repro.serving.coalescer import Coalescer, CoalescerConfig
from repro.serving.loadtest import ARRIVAL_TICK, drive
from repro.serving.protocol import PoolRequest


def run_once(store_dir, item_ids):
    pool = Supervisor(
        store_dir,
        PoolConfig(num_workers=2, max_batch=4, cache_pages=8),
        registry=MetricsRegistry(),
    )
    pool.start()
    try:
        return run_serve_loadtest(
            pool,
            item_ids,
            ServeLoadConfig(requests=60, window=8),
            timer=None,  # virtual stamps: fully deterministic
        )
    finally:
        pool.shutdown()


class TestLoadtest:
    def test_every_request_is_answered(self, store_dir, item_ids):
        report = run_once(store_dir, item_ids)
        assert report.requests == 60
        assert report.ok + report.degraded == 60
        assert report.degraded == 0  # the loadtest asks for no unknown id
        assert report.batches > 0
        assert report.mean_batch >= 1.0

    def test_unknown_ids_count_as_degraded(self, store_dir, item_ids):
        """Serve requests draw from ``item_ids``: ids past the store's
        entities answer degraded."""
        unknown = [10**6 + i for i in range(len(item_ids))]
        report = run_once(store_dir, list(item_ids) + unknown)
        assert report.ok + report.degraded == 60
        assert report.degraded > 0

    def test_outcome_accounting_is_deterministic(self, store_dir, item_ids):
        """Same seed, same outcome counts — latency percentiles are
        measurements (they depend on real arrival order) and are
        deliberately left out of the comparison."""
        first = run_once(store_dir, item_ids)
        second = run_once(store_dir, item_ids)
        assert (first.requests, first.ok, first.degraded) == (
            second.requests,
            second.ok,
            second.degraded,
        )

    def test_report_rows_render(self):
        report = ServeLoadReport(
            requests=10,
            ok=10,
            degraded=0,
            elapsed=0.5,
            qps=20.0,
            p50=0.001,
            p99=0.002,
            batches=5,
            mean_batch=2.0,
        )
        rows = report.as_rows()
        assert any("10 requests" in row for row in rows)
        assert any("qps" in row for row in rows)


class RecordingClock(StepClock):
    def __init__(self, calls):
        super().__init__()
        self.calls = calls

    def advance(self, seconds):
        self.calls.append(("advance", seconds))
        super().advance(seconds)


def answer(request_id):
    return PoolResponse(
        request_id=request_id,
        kind="serve",
        entity_id=request_id,
        relation=-1,
        outcome="ok",
        payload=b"vector bytes",
        checksum=0,
        worker=0,
    )


class FakePool:
    """Records every call the drive makes.  ``pump`` answers pending
    requests whose id is a multiple of three, newest first, and
    ``wait_any`` the oldest, so responses arrive out of id order."""

    def __init__(self):
        self.calls = []
        self.clock = RecordingClock(self.calls)
        self.pending = []
        self.emitted = []
        self.next_id = 0

    def _answer(self, request_id):
        self.pending.remove(request_id)
        self.emitted.append(answer(request_id))

    def kill_worker(self, index):
        self.calls.append(("kill", index))

    def submit(self, kind, entity_id, relation=-1, k=10):
        self.calls.append(("submit", len(self.pending)))
        request_id, self.next_id = self.next_id, self.next_id + 1
        self.pending.append(request_id)
        return request_id

    def pump(self):
        self.calls.append(("pump",))
        for request_id in sorted(self.pending, reverse=True):
            if request_id % 3 == 0:
                self._answer(request_id)

    def responses(self):
        emitted, self.emitted = self.emitted, []
        return emitted

    def outstanding(self):
        return len(self.pending)

    def wait_any(self):
        self.calls.append(("wait_any",))
        self._answer(self.pending[0])

    def drain(self):
        self.calls.append(("drain", len(self.pending)))
        while self.pending:
            self._answer(self.pending[0])
        return self.responses()


class TestDrive:
    REQUESTS = [("serve", entity, -1, 10) for entity in range(20)]

    def run(self, window=3, kills=None):
        pool = FakePool()
        responses, latencies, elapsed = drive(
            pool, self.REQUESTS, window=window, kills=kills
        )
        return pool.calls, responses, latencies, elapsed

    def test_each_request_is_submit_then_advance_then_pump(self):
        calls, *_ = self.run()
        steps = [i for i, call in enumerate(calls) if call[0] == "submit"]
        assert len(steps) == len(self.REQUESTS)
        for i in steps:
            assert calls[i + 1] == ("advance", ARRIVAL_TICK)
            assert calls[i + 2] == ("pump",)

    def test_a_kill_lands_just_before_its_request(self):
        calls, *_ = self.run(kills={0: 1, 7: 0, 19: 2})
        submits = [i for i, call in enumerate(calls) if call[0] == "submit"]
        kills = [i for i, call in enumerate(calls) if call[0] == "kill"]
        assert [calls[i] for i in kills] == [("kill", 1), ("kill", 0), ("kill", 2)]
        assert [i + 1 for i in kills] == [submits[0], submits[7], submits[19]]

    def test_the_window_bounds_what_is_outstanding_after_each_wait_loop(self):
        calls, *_ = self.run(window=3)
        assert ("wait_any",) in calls  # the window was reached
        # The wait loop of request i ends where request i + 1 (or the
        # final drain) begins; each records what was outstanding then.
        after_loops = [call[1] for call in calls if call[0] in ("submit", "drain")]
        assert max(after_loops) <= 3

    def test_unwindowed_the_drive_never_waits(self):
        calls, responses, _, _ = self.run(window=None)
        assert ("wait_any",) not in calls
        assert len(responses) == len(self.REQUESTS)

    def test_every_response_once_in_request_id_order_with_one_latency(self):
        calls, responses, latencies, elapsed = self.run()
        assert [r.request_id for r in responses] == list(range(len(self.REQUESTS)))
        assert len(latencies) == len(responses)
        # Virtual stamps: a request the pump answers waited one tick.
        assert latencies[3] == pytest.approx(ARRIVAL_TICK)
        assert all(latency >= 0 for latency in latencies)
        assert elapsed == pytest.approx(len(self.REQUESTS) * ARRIVAL_TICK)

    def test_responses_come_back_without_their_payloads(self):
        _, responses, _, _ = self.run()
        assert all(r.payload is None for r in responses)

    def test_a_repeat_hand_out_is_returned_not_raised(self):
        """A pool that hands request 0 out twice fails the caller's
        exactly-once check; the drive itself does not raise."""

        class RepeatingPool(FakePool):
            def drain(self):
                return super().drain() + [answer(0)]

        responses, latencies, _ = drive(RepeatingPool(), self.REQUESTS, window=3)
        ids = [r.request_id for r in responses]
        assert ids == [0] + list(range(len(self.REQUESTS)))
        assert len(latencies) == len(responses)


class CoalescingPool(FakePool):
    """Submits into a real :class:`Coalescer` on the pool clock and
    answers each flushed batch at once, recording its size."""

    def __init__(self, max_delay):
        super().__init__()
        self.coalescer = Coalescer(
            self.clock, CoalescerConfig(max_batch=64, max_delay=max_delay)
        )
        self.sizes = []

    def _flush(self, batches):
        for batch in batches:
            self.sizes.append(len(batch.requests))
            for request in batch.requests:
                self._answer(request.request_id)

    def submit(self, kind, entity_id, relation=-1, k=10):
        request_id = super().submit(kind, entity_id, relation, k)
        request = PoolRequest(
            request_id, kind, entity_id, relation, k,
            deadline_at=1e9, shard=0,
        )
        self._flush(self.coalescer.offer(request))
        return request_id

    def pump(self):
        self._flush(self.coalescer.due())

    def drain(self):
        self._flush(self.coalescer.flush_all())
        return self.responses()


@pytest.mark.parametrize("arrivals", [2, 4])
def test_a_half_tick_past_n_ticks_flushes_n_arrivals_after_the_opener(arrivals):
    """The delay rule the drive's callers set ``max_delay`` by, over
    enough ticks to meet the summed-tick rounding a whole-tick delay
    would trip on."""
    pool = CoalescingPool(max_delay=(arrivals + 0.5) * ARRIVAL_TICK)
    count = 600
    responses, _, _ = drive(pool, [("serve", 0, -1, 10)] * count)
    assert len(responses) == count
    assert pool.sizes == [arrivals + 1] * (count // (arrivals + 1))
