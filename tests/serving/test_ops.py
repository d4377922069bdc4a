"""The request-kind table: every entry, through every consumer.

Each test is parametrised over :data:`repro.ops.OPS`, so a new entry
is exercised the day it is added — and has to bring its own row in
``DIRECT`` / ``DEGRADED_SHAPE`` below, the test suite's independent
statement of what the kind answers.  The last test adds a sixth kind
by table entry alone and drives it through a forked pool and the
gateway, in process and over the pool.
"""

import struct
import zlib
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import PRESETS
from repro.kg.rules import RuleMiner
from repro.ops import OPS, OpSpec, ScalarLayout
from repro.pipeline import untrained_server
from repro.reliability import PKGMGateway
from repro.scenarios import (
    Explainer,
    ScenarioService,
    ServiceRecommender,
    WorkerScenarios,
    save_sidecar,
)
from repro.serving import PoolConfig, Supervisor, payload_checksum, run_batch
from repro.serving.protocol import (
    KINDS,
    STATUS_DEADLINE,
    STATUS_OK,
    STATUS_UNKNOWN,
)

K = 5
UNKNOWN_ENTITY = 10**6


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Smoke catalog, untrained server, its store + sidecar, engines."""
    catalog, server = untrained_server(PRESETS["smoke"]())
    rules = RuleMiner(min_support=2, min_confidence=0.6).mine(catalog.store)
    store_dir = tmp_path_factory.mktemp("ops") / "store"
    server.save_store(store_dir, num_shards=2, page_bytes=4096).close()
    save_sidecar(str(store_dir), catalog.store, rules)
    explainer = Explainer(catalog.store, rules=rules, server=server)
    return SimpleNamespace(
        server=server,
        store_dir=store_dir,
        explainer=explainer,
        recommender=ServiceRecommender(server),
        engines=WorkerScenarios(server, str(store_dir)),
        item=catalog.items[0].entity_id,
        relation=explainer.completer.head_relations()[0],
    )


def _serve_direct(w, entity, relation):
    vectors = w.server.serve(entity)
    return (vectors.key_relations, vectors.triple_vectors, vectors.relation_vectors)


def _recommend_direct(w, entity, relation):
    payload = w.recommender.recommend(entity, k=K)
    return (payload.distances, payload.neighbor_ids)


#: kind → the wire payload of a direct in-process call.
DIRECT = {
    "serve": _serve_direct,
    "exist": lambda w, e, r: w.server.relation_existence_score(e, r),
    "retrieve": lambda w, e, r: w.server.nearest_tails(e, r, K),
    "explain": lambda w, e, r: w.explainer.explain(e, r).canonical_dict(),
    "recommend": _recommend_direct,
}


def _padded(payload):
    return (
        payload.distances.shape == payload.neighbor_ids.shape == (K,)
        and np.all(np.isinf(payload.distances))
        and np.all(payload.neighbor_ids == -1)
    )


#: kind → does the gateway's degraded payload have its documented shape.
DEGRADED_SHAPE = {
    "serve": lambda w, p: (
        p.triple_vectors.shape == p.relation_vectors.shape == (w.server.k, w.server.dim)
        and not p.triple_vectors.any()
        and np.all(p.key_relations == -1)
    ),
    "retrieve": lambda w, p: _padded(p),
    "explain": lambda w, p: p.predictions == () and p.citations == (),
    "recommend": lambda w, p: _padded(p),
}


class _Untouchable:
    """A backend that fails the test the moment anything is asked of it."""

    def __getattr__(self, name):
        raise AssertionError(f"handler touched the backend ({name})")


def test_protocol_kinds_are_the_table():
    assert KINDS == tuple(OPS)
    with pytest.raises(ValueError, match="unknown request kind"):
        payload_checksum("no-such-kind", None)


@pytest.mark.parametrize("kind", sorted(OPS))
class TestEveryEntry:
    def test_known_id_matches_direct_call(self, world, kind):
        ((rid, status, payload),) = run_batch(
            world.server,
            kind,
            K,
            [(7, world.item, world.relation, None)],
            scenarios=world.engines,
        )
        assert (rid, status) == (7, STATUS_OK)
        assert payload_checksum(kind, payload) == payload_checksum(
            kind, DIRECT[kind](world, world.item, world.relation)
        )

    def test_out_of_range_id_degrades_that_item_only(self, world, kind):
        items = [
            (1, world.item, world.relation, None),
            (2, UNKNOWN_ENTITY, world.relation, None),
        ]
        results = run_batch(world.server, kind, K, items, scenarios=world.engines)
        statuses = {rid: status for rid, status, _ in results}
        assert statuses == {1: STATUS_OK, 2: STATUS_UNKNOWN}

    def test_spent_budget_cancelled_before_the_handler(self, world, kind):
        backend = _Untouchable()
        results = run_batch(
            backend, kind, K, [(3, world.item, world.relation, 0.0)], scenarios=backend
        )
        assert results == [(3, STATUS_DEADLINE, None)]

    def test_gateway_degraded_payload_is_typed(self, world, kind):
        gateway = PKGMGateway(
            [world.server],
            scenarios=ScenarioService(world.explainer, world.recommender),
        )
        if OPS[kind].degraded is None:  # no gateway endpoint for this kind
            with pytest.raises(ValueError, match="no endpoint"):
                gateway._submit(kind, world.item, relation=world.relation, k=K)
            return
        response = gateway._submit(
            kind, world.item, relation=world.relation, k=K, budget=0.0
        )
        assert response.reason == "deadline" and not response.ok
        assert response.vectors.degraded is True
        assert response.vectors.entity_id == world.item
        assert DEGRADED_SHAPE[kind](world, response.vectors)
        assert gateway.stats.deadline_rejected == 1


@dataclass(frozen=True)
class Echo:
    """The toy kind's typed answer: the entity id, nothing else."""

    entity_id: int
    degraded: bool = False


def test_a_sixth_kind_is_one_table_entry(world, monkeypatch):
    """``echo`` exists nowhere but in this entry, yet a forked worker
    answers it, the protocol checksums it, and the gateway serves and
    degrades it, in process and over the pool — no edit to gateway,
    supervisor, worker or protocol."""
    monkeypatch.setitem(
        OPS,
        "echo",
        OpSpec(
            call=lambda backend, entity_id, relation, k: Echo(entity_id),
            wire=lambda answer: answer.entity_id,
            layout=ScalarLayout(">q", int),
            unpack=lambda request, payload: Echo(payload),
            degraded=lambda request, gateway: Echo(request.entity_id, degraded=True),
        ),
    )
    pool = Supervisor(world.store_dir, PoolConfig(num_workers=1, max_batch=4))
    pool.start()
    try:
        request_id = pool.submit("echo", 41)
        (response,) = pool.drain()
        fronted = PKGMGateway([pool])
        spent = fronted._submit("echo", 40, budget=0.0)
        assert fronted._submit("echo", 43) is None
        (pooled,) = fronted.drain()
    finally:
        pool.shutdown()
    assert spent.reason == "deadline" and spent.vectors == Echo(40, degraded=True)
    assert pooled.ok and pooled.vectors == Echo(43)
    assert (response.request_id, response.outcome) == (request_id, STATUS_OK)
    assert response.payload == 41
    assert response.checksum == zlib.crc32(struct.pack(">q", 41))
    assert response.checksum == payload_checksum("echo", 41)

    gateway = PKGMGateway([world.server])
    late = gateway._submit("echo", 41, budget=0.0)
    assert late.reason == "deadline" and late.vectors == Echo(41, degraded=True)
    assert gateway._submit("echo", 42) is None
    (answer,) = gateway.drain()
    assert answer.ok and answer.vectors == Echo(42)
