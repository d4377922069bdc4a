"""The gateway in front of the worker pool: one front door.

``PKGMGateway([pool])`` submits every request admission starts to the
pool, so requests admitted together are coalesced together, and it
answers what the pool answers: the same bytes as ``drive(pool)`` for
the same requests, the pool's failures as flagged degraded answers.
"""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.ops import OPS
from repro.reliability import PKGMGateway, StepClock
from repro.serving import PoolConfig, Supervisor
from repro.serving.loadtest import drive, mixed_requests
from tests.serving.conftest import ask


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


@pytest.fixture()
def gateway(pool):
    return PKGMGateway([pool])


def _blocked(*args, **kwargs):
    raise AssertionError("step() blocked on the pool")


class TestGatewayOverPool:
    def test_serve_roundtrip_matches_reference(
        self, gateway, reference, item_ids
    ):
        entity = item_ids[0]
        assert gateway.submit(entity) is None
        responses = gateway.drain()
        assert len(responses) == 1
        assert responses[0].ok
        np.testing.assert_array_equal(
            responses[0].vectors.triple_vectors,
            reference.serve(entity).triple_vectors,
        )

    def test_retrieval_roundtrip(self, gateway, reference, item_ids):
        entity = item_ids[1]
        expected_d, expected_i = reference.nearest_tails(entity, 0, k=4)
        assert gateway.submit_retrieval(entity, 0, k=4) is None
        responses = gateway.drain()
        assert len(responses) == 1 and responses[0].ok
        np.testing.assert_array_equal(responses[0].vectors.distances, expected_d)
        np.testing.assert_array_equal(
            responses[0].vectors.neighbor_ids, expected_i
        )

    def test_unknown_id_degrades_instead_of_raising(self, gateway):
        assert gateway.submit(10_000) is None
        responses = gateway.drain()
        assert len(responses) == 1
        assert not responses[0].ok
        assert responses[0].reason == "unknown-id"

    def test_expired_budget_never_reaches_the_pool(self, gateway, pool, item_ids):
        response = gateway.submit_retrieval(item_ids[0], 0, k=4, budget=0.0)
        assert response is not None
        assert response.reason == "deadline"
        assert pool.metrics.counter("pool.requests").value == 0
        assert gateway.stats.deadline_rejected == 1

    def test_quarantined_row_degrades_instead_of_raising(
        self, tmp_path, reference, item_ids
    ):
        store_dir = tmp_path / "damaged"
        reference.save_store(store_dir, num_shards=2, page_bytes=512).close()
        shard = store_dir / "entity_table-0000.bin"
        blob = bytearray(shard.read_bytes())
        blob[3] ^= 0x40  # entity page 0 (rows 0-7) fails its CRC
        shard.write_bytes(bytes(blob))
        pool = Supervisor(
            store_dir, PoolConfig(num_workers=1), registry=MetricsRegistry()
        )
        pool.start()
        try:
            damaged = ask(pool, "serve", item_ids[0])
            gateway = PKGMGateway([pool])
            assert gateway.submit(item_ids[0]) is None
            assert gateway.submit(item_ids[-1]) is None
            responses = sorted(gateway.drain(), key=lambda r: r.entity_id)
        finally:
            pool.shutdown()
        assert damaged.outcome == "quarantined"
        assert damaged.payload == ("entity_table", item_ids[0], 0, 0)
        assert [r.reason for r in responses] == ["quarantined", None]
        assert not responses[0].ok and responses[1].ok
        assert gateway.stats.backend_errors == 1

    def test_gateway_inherits_pool_geometry(self, gateway, pool):
        assert gateway.k == pool.k
        assert gateway.dim == pool.dim
        assert gateway.clock is pool.clock

    def test_step_never_blocks_and_returns_only_harvested_answers(
        self, gateway, pool, reference, item_ids, monkeypatch
    ):
        handed = []
        responses = pool.responses
        wait_any = pool.wait_any

        def spy():
            answers = responses()
            handed.extend(answers)
            return answers

        monkeypatch.setattr(pool, "responses", spy)
        monkeypatch.setattr(pool, "wait_any", _blocked)
        monkeypatch.setattr(pool, "drain", _blocked)
        entities = item_ids[:6]
        for entity in entities:
            assert gateway.submit(entity) is None
        # No group is full and none is due: nothing was sent.
        assert gateway.step() == [] and handed == []
        gateway.clock.advance(0.01)
        stepped = gateway.step()  # flushes the due groups, reads what is in
        wait_any()  # the test blocks until the pool has an answer
        stepped += gateway.step()
        assert stepped and len(stepped) == len(handed)
        for answer in stepped:
            assert answer.ok
            np.testing.assert_array_equal(
                answer.vectors.triple_vectors,
                reference.serve(answer.entity_id).triple_vectors,
            )
        monkeypatch.undo()
        rest = gateway.drain()
        ids = sorted(r.request_id for r in stepped + rest)
        assert ids == list(range(len(entities)))

    def test_a_pool_with_no_live_worker_answers_rpc_error_once_each(
        self, gateway, pool, item_ids
    ):
        pool.shutdown()
        for entity in item_ids[:5]:
            assert gateway.submit(entity) is None
        responses = gateway.drain()
        assert sorted(r.request_id for r in responses) == list(range(5))
        assert {r.reason for r in responses} == {"rpc-error"}
        assert gateway.stats.backend_errors == 5
        assert pool.metrics.counter("pool.failfast_no_route").value == 5
        assert pool.outstanding() == 0
        assert gateway.drain() == [] and gateway.step() == []

    def test_admitted_requests_reach_the_coalescer_together(
        self, store_dir, reference, item_ids
    ):
        pool = Supervisor(
            store_dir,
            PoolConfig(num_workers=2, max_batch=8, cache_pages=8),
            registry=MetricsRegistry(),
        )
        pool.start()
        try:
            gateway = PKGMGateway([pool])
            entities = [item_ids[i % len(item_ids)] for i in range(64)]
            for entity in entities:
                assert gateway.submit(entity) is None
            responses = gateway.drain()
        finally:
            pool.shutdown()
        assert len(responses) == 64 and all(r.ok for r in responses)
        for answer in responses:
            expected = reference.serve(answer.entity_id)
            assert answer.entity_id == entities[answer.request_id]
            for name in ("key_relations", "triple_vectors", "relation_vectors"):
                assert (
                    getattr(answer.vectors, name).tobytes()
                    == getattr(expected, name).tobytes()
                )
        # Admission starts 8 at a time over two shards: at most two
        # batches a wave, where one batch per request was the old cost.
        batches = pool.metrics.counter("coalesce.batches").value
        assert batches <= 16
        assert pool.metrics.counter("pool.batches_sent").value == batches


class TestRefusals:
    def test_a_pool_is_the_only_replica(self, pool, reference):
        with pytest.raises(ValueError, match="only replica"):
            PKGMGateway([pool, reference])

    def test_a_pool_runs_on_its_own_clock(self, pool):
        with pytest.raises(ValueError, match="clock"):
            PKGMGateway([pool], clock=StepClock())
        assert PKGMGateway([pool], clock=pool.clock).clock is pool.clock

    def test_a_pool_takes_no_scenario_backend(self, pool):
        with pytest.raises(ValueError, match="scenarios"):
            PKGMGateway([pool], scenarios=object())

    def test_a_pool_fronted_gateway_cannot_swap(self, gateway, reference):
        gateway.drain()
        with pytest.raises(ValueError, match="swap"):
            gateway.swap(reference)

    @pytest.mark.parametrize("kind", ["explain", "recommend"])
    def test_kinds_without_unpack_have_no_endpoint(self, gateway, item_ids, kind):
        with pytest.raises(ValueError, match="no endpoint"):
            gateway._submit(kind, item_ids[0], relation=0, k=3)


@pytest.mark.parametrize("seed", [0, 7])
def test_the_gateway_answers_what_the_pool_drive_answers(pool, item_ids, seed):
    """The fourth serving path of the differential: for one seeded
    request stream, ``PKGMGateway([pool])`` and ``drive(pool)`` give
    each request the same outcome and the same payload CRC."""

    def stream():
        return list(
            mixed_requests(
                pool, item_ids, 48, seed, k=4,
                serve_prob=0.5, exist_prob=0.0, unknown_prob=0.15,
            )
        )

    requests = stream()
    assert {kind for kind, *_ in requests} == {"serve", "retrieve"}
    driven, _, _ = drive(pool, requests)
    gateway = PKGMGateway([pool])
    answered = []
    for kind, entity, relation, k in stream():
        if kind == "serve":
            assert gateway.submit(entity) is None
        else:
            assert gateway.submit_retrieval(entity, relation, k=k) is None
        gateway.clock.advance(0.001)
        answered += gateway.step()
    answered += gateway.drain()
    answers = {r.request_id: r for r in answered}
    assert len(answers) == len(answered) == len(driven) == len(requests)
    unknown = 0
    for index, ((kind, *_), expected) in enumerate(zip(requests, driven)):
        answer = answers[index]
        if expected.outcome == "ok":
            assert answer.reason is None
            spec = OPS[kind]
            assert spec.checksum(spec.wire(answer.vectors)) == expected.checksum
        else:
            assert expected.outcome == answer.reason == "unknown-id"
            unknown += 1
    assert unknown > 0
