"""Gateway hardening: pre-dispatch deadline rejection and genuinely
concurrent drain/swap clients."""

import threading

from repro.obs.metrics import MetricsRegistry
from repro.reliability import (
    GatewayConfig,
    PKGMGateway,
    StepClock,
    TimedBackend,
)
from repro.reliability.gateway import QUIESCED, SERVING

from .test_gateway import ScriptedLatency, make_gateway


class TestDeadlineRejection:
    def test_expired_budget_rejected_before_any_replica_call(self, server):
        gateway = make_gateway(server, [[0.01], [0.01]])
        response = gateway.submit_retrieval(0, 0, k=2, budget=0.0)
        assert response is not None
        assert response.reason == "deadline"
        assert not response.ok
        assert all(replica.calls == 0 for replica in gateway.replicas)
        assert gateway.stats.deadline_rejected == 1
        assert gateway.inflight_count() == 0 and gateway.queued_count() == 0

    def test_negative_budget_equally_rejected(self, server):
        gateway = make_gateway(server, [[0.01]])
        response = gateway.submit_retrieval(0, 0, k=2, budget=-5.0)
        assert response.reason == "deadline"
        assert gateway.stats.deadline_rejected == 1

    def test_positive_budget_still_dispatches(self, server):
        gateway = make_gateway(server, [[0.01]])
        assert gateway.submit_retrieval(0, 0, k=2, budget=1.0) is None
        gateway.clock.advance(0.1)
        responses = gateway.step()
        assert len(responses) == 1 and responses[0].ok
        assert gateway.stats.deadline_rejected == 0

    def test_rejection_lands_in_the_registry(self, server):
        registry = MetricsRegistry()
        gateway = PKGMGateway(
            [TimedBackend(server, latency=ScriptedLatency([0.01]))],
            clock=StepClock(),
            registry=registry,
        )
        gateway.submit_retrieval(0, 0, k=2, budget=0.0)
        counter = registry.counter("gateway.deadline_rejected")
        assert counter.value == 1


class TestConcurrentDrainSwap:
    def test_threaded_submissions_each_get_exactly_one_outcome(self, server):
        """Real threads submit while the main thread drains and swaps.

        The gateway's lock must give every submission exactly one
        outcome — an immediate shed response or exactly one entry in a
        step/drain batch — with no duplicates and no losses, whatever
        the interleaving.
        """
        gateway = make_gateway(
            server,
            [[0.001] * 4] * 2,
            config=GatewayConfig(deadline_budget=10.0),
        )
        threads = 4
        per_thread = 25
        barrier = threading.Barrier(threads + 1)
        shed_ids = []
        shed_lock = threading.Lock()

        def client(seed):
            barrier.wait()
            for index in range(per_thread):
                response = gateway.submit((seed + index) % 3)
                if response is not None:
                    with shed_lock:
                        shed_ids.append(response.request_id)

        workers = [
            threading.Thread(target=client, args=(seed,))
            for seed in range(threads)
        ]
        for worker in workers:
            worker.start()
        barrier.wait()
        drained = gateway.drain()  # races the submitting threads
        for worker in workers:
            worker.join()
        assert gateway.state == QUIESCED
        gateway.swap(server)
        assert gateway.state == SERVING
        remaining = gateway.drain()
        answered = [r.request_id for r in drained + remaining] + shed_ids
        assert sorted(answered) == list(range(threads * per_thread))

    def test_post_swap_submissions_serve_again(self, server):
        gateway = make_gateway(server, [[0.001] * 2])
        gateway.drain()
        gateway.swap(server)
        assert gateway.submit(0) is None
        gateway.clock.advance(0.01)
        responses = gateway.step()
        assert len(responses) == 1 and responses[0].ok
