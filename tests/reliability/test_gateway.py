"""Tests for the overload-safe gateway: deadlines, hedging, drain/swap."""

import pytest

from repro.core import PKGMServer
from repro.reliability import (
    AdmissionConfig,
    GatewayConfig,
    LatencyModel,
    PKGMGateway,
    StepClock,
    TimedBackend,
)
from repro.reliability.gateway import DRAINING, QUIESCED, SERVING


class ScriptedLatency:
    """Latency 'model' that replays a fixed list of draws (cycling)."""

    def __init__(self, values):
        self._values = [float(v) for v in values]
        self._index = 0

    def sample(self):
        value = self._values[self._index % len(self._values)]
        self._index += 1
        return value


class PlainRecorder:
    """A backend that records each ``serve`` call."""

    def __init__(self, server, clock):
        self.server = server
        self.clock = clock
        self.calls = []

    @property
    def k(self):
        return self.server.k

    @property
    def dim(self):
        return self.server.dim

    def serve(self, entity_id):
        self.calls.append(entity_id)
        return self.server.serve(entity_id)


def make_gateway(server, latencies, config=None, clock=None):
    """Gateway over scripted-latency replicas (one list per replica)."""
    clock = clock if clock is not None else StepClock()
    replicas = [
        TimedBackend(server, latency=ScriptedLatency(values), name=f"r{i}")
        for i, values in enumerate(latencies)
    ]
    return PKGMGateway(replicas, config=config, clock=clock)


class TestDeadlinePaths:
    def test_slow_backend_degrades_never_raises(self, server):
        gateway = make_gateway(
            server,
            [[10.0]],
            GatewayConfig(deadline_budget=0.25, hedge_after=None),
        )
        assert gateway.submit(0) is None
        responses = gateway.drain()
        assert len(responses) == 1
        response = responses[0]
        assert not response.ok
        assert response.vectors.degraded
        assert response.reason == "deadline"
        assert response.completed_at == pytest.approx(0.25)
        assert gateway.stats.deadline_backend_misses == 1
        assert gateway.stats.completed_degraded == 1
        assert gateway.stats.completed_ok == 0

    def test_queue_wait_past_deadline_degrades(self, server):
        config = GatewayConfig(
            deadline_budget=0.25,
            hedge_after=None,
            admission=AdmissionConfig(initial_limit=1, queue_capacity=4),
        )
        gateway = make_gateway(server, [[10.0, 10.0]], config)
        assert gateway.submit(0) is None  # occupies the only slot
        assert gateway.submit(1) is None  # queued behind it
        responses = gateway.drain()
        assert len(responses) == 2
        assert all(r.reason == "deadline" for r in responses)
        assert gateway.stats.deadline_backend_misses == 1
        assert gateway.stats.deadline_queue_misses == 1

    def test_deadline_feeds_aimd_overload_signal(self, server):
        gateway = make_gateway(
            server,
            [[10.0]],
            GatewayConfig(deadline_budget=0.25, hedge_after=None),
        )
        before = gateway.admission.limiter.limit
        gateway.submit(0)
        gateway.drain()
        assert gateway.admission.limiter.backoffs == 1
        assert gateway.admission.limiter.limit <= before

    def test_no_deadline_for_a_backend_without_the_parameter(self, server):
        plain = PlainRecorder(server, clock=StepClock())
        backend = TimedBackend(plain, latency=ScriptedLatency([0.1]))
        vectors, _, reason = backend.call_timed("serve", 0, budget=0.5)
        assert reason is None and not vectors.degraded
        assert plain.calls == [0]  # served with the id alone


class TestHedging:
    def hedged_gateway(self, server, primary, secondary):
        return make_gateway(
            server,
            [primary, secondary],
            GatewayConfig(deadline_budget=0.25, hedge_after=0.05),
        )

    def test_hedge_wins_over_straggler(self, server):
        gateway = self.hedged_gateway(server, [0.2], [0.01])
        gateway.submit(0)
        responses = gateway.drain()
        assert len(responses) == 1
        response = responses[0]
        assert response.ok
        assert response.hedged and response.hedge_won
        assert response.latency == pytest.approx(0.06)  # fire_at + hedge
        assert gateway.stats.hedges_sent == 1
        assert gateway.stats.hedge_wins == 1
        assert gateway.stats.hedge_cancelled == 1

    def test_primary_wins_hedge_cancelled(self, server):
        gateway = self.hedged_gateway(server, [0.06], [0.2])
        gateway.submit(0)
        responses = gateway.drain()
        response = responses[0]
        assert response.ok
        assert response.hedged and not response.hedge_won
        assert response.latency == pytest.approx(0.06)
        assert gateway.stats.hedges_sent == 1
        assert gateway.stats.hedge_wins == 0
        assert gateway.stats.hedge_cancelled == 1

    def test_fast_primary_never_hedges(self, server):
        gateway = self.hedged_gateway(server, [0.01], [0.01])
        gateway.submit(0)
        gateway.drain()
        assert gateway.stats.hedges_sent == 0
        assert gateway.stats.hedge_cancelled == 0

    def test_unknown_id_not_hedged(self, server):
        gateway = self.hedged_gateway(server, [0.01], [0.01])
        gateway.submit(9999)
        responses = gateway.drain()
        assert responses[0].reason == "unknown-id"
        assert gateway.stats.hedges_sent == 0
        assert gateway.stats.backend_errors == 1

    def test_quarantined_row_degrades_not_hedged(self, server, tmp_path):
        server.save_store(tmp_path / "st", page_bytes=64).close()
        shard = tmp_path / "st" / "entity_table-0000.bin"
        blob = bytearray(shard.read_bytes())
        blob[3] ^= 0x40  # entity page 0 (rows 0 and 1) fails its CRC
        shard.write_bytes(bytes(blob))
        damaged = PKGMServer.from_store(tmp_path / "st")
        try:
            gateway = self.hedged_gateway(damaged, [0.01], [0.01])
            gateway.submit(0)
            gateway.submit(2)
            responses = sorted(gateway.drain(), key=lambda r: r.entity_id)
        finally:
            damaged.store.close()
        assert [r.reason for r in responses] == ["quarantined", None]
        assert responses[0].vectors.degraded and responses[1].ok
        assert gateway.stats.backend_errors == 1
        assert gateway.stats.hedges_sent == 0

    def test_both_slow_reports_deadline_once(self, server):
        gateway = self.hedged_gateway(server, [10.0], [10.0])
        gateway.submit(0)
        responses = gateway.drain()
        assert responses[0].reason == "deadline"
        assert gateway.stats.deadline_backend_misses == 1
        assert gateway.stats.hedges_sent == 1
        assert gateway.stats.hedge_cancelled == 1


class TestSheddingResponses:
    def test_rate_limited_answered_immediately(self, server):
        gateway = make_gateway(
            server,
            [[0.01]],
            GatewayConfig(admission=AdmissionConfig(rate=1.0, burst=1.0)),
        )
        assert gateway.submit(0) is None
        shed = gateway.submit(1)
        assert shed is not None
        assert shed.reason == "rate-limited"
        assert shed.vectors.degraded
        assert gateway.stats.shed_rate_limited == 1

    def test_queue_full_and_eviction(self, server):
        config = GatewayConfig(
            hedge_after=None,
            admission=AdmissionConfig(initial_limit=1, queue_capacity=1),
        )
        gateway = make_gateway(server, [[10.0] * 8], config)
        assert gateway.submit(0, priority=0) is None  # running
        assert gateway.submit(1, priority=0) is None  # queued
        full = gateway.submit(2, priority=0)
        assert full is not None and full.reason == "queue-full"
        assert gateway.submit(1, priority=3) is None  # evicts the waiter
        evicted = [r for r in gateway.drain() if r.reason == "evicted"]
        assert len(evicted) == 1
        assert gateway.stats.shed_evicted == 1
        assert gateway.stats.shed_queue_full == 1


class TestDrainSwap:
    def test_drain_answers_all_inflight_and_queued(self, server):
        config = GatewayConfig(
            hedge_after=None,
            admission=AdmissionConfig(initial_limit=2, queue_capacity=8),
        )
        gateway = make_gateway(server, [[0.01, 0.02, 0.015, 0.01, 0.02, 0.01]], config)
        for entity in (0, 1, 2, 0, 1, 2):
            assert gateway.submit(entity) is None
        assert gateway.inflight_count() == 2
        assert gateway.queued_count() == 4
        responses = gateway.drain()
        assert len(responses) == 6
        assert all(r.ok for r in responses)
        assert gateway.state == QUIESCED
        assert gateway.inflight_count() == 0
        assert gateway.queued_count() == 0

    def test_submit_while_not_serving_is_shed(self, server):
        gateway = make_gateway(server, [[0.01]])
        gateway.drain()
        shed = gateway.submit(0)
        assert shed is not None and shed.reason == "draining"
        assert gateway.stats.shed_draining == 1

    def test_swap_requires_quiesce(self, server):
        gateway = make_gateway(server, [[0.01]])
        with pytest.raises(RuntimeError):
            gateway.swap(server)
        gateway.drain()
        gateway.swap(server)
        assert gateway.state == SERVING
        assert gateway.stats.swaps == 1

    def test_swap_installs_the_server_on_every_replica(self, server):
        gateway = PKGMGateway([server] * 2)
        gateway.submit(0)
        gateway.drain()
        fresh = PlainRecorder(server, clock=gateway.clock)
        gateway.swap(fresh)
        assert all(r.server is fresh for r in gateway.replicas)
        assert gateway.submit(0) is None  # serving again
        assert len(gateway.drain()) == 1
        assert fresh.calls == [0]

    def test_drain_is_reentrant_lifecycle(self, server):
        gateway = make_gateway(server, [[0.01]])
        gateway.submit(0)
        gateway.drain()
        gateway.swap(server)
        gateway.submit(1)
        responses = gateway.drain()
        assert len(responses) == 1
        assert gateway.stats.drains == 2


class TestExactlyOnceAndDeterminism:
    def test_every_submission_answered_exactly_once(self, server):
        config = GatewayConfig(
            deadline_budget=0.05,
            hedge_after=0.01,
            admission=AdmissionConfig(
                rate=50.0, burst=4.0, initial_limit=2, queue_capacity=2
            ),
        )
        clock = StepClock()
        gateway = make_gateway(
            server, [[0.002, 0.04, 0.09], [0.003, 0.08]], config, clock=clock
        )
        responses = []
        total = 60
        for index in range(total):
            clock.advance(0.004)
            responses.extend(gateway.step())
            entity = 9999 if index % 17 == 0 else index % 3
            shed = gateway.submit(entity, priority=index % 3)
            if shed is not None:
                responses.append(shed)
        responses.extend(gateway.drain())
        assert len(responses) == total
        assert len({r.request_id for r in responses}) == total
        stats = gateway.stats
        assert stats.completed_ok + stats.completed_degraded + stats.shed == total

    def test_identical_seeds_identical_stats(self, server):
        def run():
            clock = StepClock()
            gateway = PKGMGateway(
                [server] * 2,
                GatewayConfig(admission=AdmissionConfig(rate=80.0, burst=8.0)),
                clock=clock,
                seed=7,
            )
            rows = []
            for index in range(40):
                clock.advance(0.005)
                gateway.step()
                gateway.submit(index % 3, priority=index % 2)
            gateway.drain()
            rows.append(gateway.stats.as_row())
            rows.append(gateway.admission.stats.as_row())
            return rows

        assert run() == run()


class TestLatencyModel:
    def test_seeded_and_deterministic(self):
        first = [LatencyModel(seed=3).sample() for _ in range(50)]
        second = [LatencyModel(seed=3).sample() for _ in range(50)]
        assert first == second
        assert all(s >= 0.004 for s in first)


class TestGatewayConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(deadline_budget=0.0)
        with pytest.raises(ValueError):
            GatewayConfig(hedge_after=0.0)

    def test_needs_replicas(self):
        with pytest.raises(ValueError):
            PKGMGateway([])
