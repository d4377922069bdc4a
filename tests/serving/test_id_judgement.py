"""One judge of an id: the server, on every serving path.

The same ``(kind, entity, relation)`` must fall in the same outcome
class — answered, or ``unknown-id`` — whether it is asked of the
resident server, of ``from_store``, of the gateway, or of a forked
worker.  A negative id used to be read from the end of the table by
the first two and refused by the worker's own pre-check.
"""

import pytest

from repro.core import PKGMServer
from repro.ops import OPS
from repro.reliability import PKGMGateway, StepClock, TimedBackend
from repro.serving import PoolConfig, Supervisor
from repro.serving.protocol import STATUS_OK, STATUS_UNKNOWN

K = 3
ITEM, NON_ITEM_ENTITY, PAST_THE_END = 3, 30, 60  # conftest: 20 items of 60 entities

#: (kind, entity, relation) → the outcome every path must give.  Only an
#: item has key relations to serve; any entity has a row to score or to
#: retrieve from.
CASES = {
    ("serve", -1, 0): STATUS_UNKNOWN,
    ("serve", PAST_THE_END, 0): STATUS_UNKNOWN,
    ("serve", NON_ITEM_ENTITY, 0): STATUS_UNKNOWN,
    ("serve", ITEM, 0): STATUS_OK,
    **{
        case: outcome
        for kind in ("exist", "retrieve")
        for case, outcome in {
            (kind, -1, 0): STATUS_UNKNOWN,
            (kind, PAST_THE_END, 0): STATUS_UNKNOWN,
            (kind, NON_ITEM_ENTITY, 0): STATUS_OK,
            (kind, ITEM, 0): STATUS_OK,
            (kind, ITEM, -1): STATUS_UNKNOWN,
            (kind, ITEM, 6): STATUS_UNKNOWN,  # conftest: 6 relations
        }.items()
    },
}


class InstantLatency:
    def sample(self):
        return 0.001


def direct(server):
    outcomes = {}
    for kind, entity, relation in CASES:
        try:
            OPS[kind].call(server, entity, relation, K)
        except (KeyError, IndexError):
            outcomes[kind, entity, relation] = STATUS_UNKNOWN
        else:
            outcomes[kind, entity, relation] = STATUS_OK
    return outcomes


def test_resident_server(reference):
    assert reference.num_entities == PAST_THE_END
    assert NON_ITEM_ENTITY not in reference.known_items()
    assert direct(reference) == CASES


def test_store_backed_server(store_dir):
    server = PKGMServer.from_store(store_dir, cache_pages=2)
    try:
        assert direct(server) == CASES
    finally:
        server.store.close()


def test_gateway(reference):
    backend = TimedBackend(reference, latency=InstantLatency())
    gateway = PKGMGateway([backend], clock=StepClock())
    outcomes = {}
    for kind, entity, relation in CASES:
        if OPS[kind].degraded is None:
            # No gateway endpoint: ask the envelope every endpoint shares.
            reason = backend.call_timed(kind, entity, relation, K)[2]
        else:
            assert gateway._submit(kind, entity, relation=relation, k=K) is None
            gateway.clock.advance(0.01)
            (response,) = gateway.step()
            reason = response.reason
        outcomes[kind, entity, relation] = STATUS_OK if reason is None else reason
    assert outcomes == CASES


@pytest.mark.parametrize("max_batch", [1, 8])
def test_forked_pool(store_dir, max_batch):
    """Item by item, and coalesced into the fused kernels."""
    pool = Supervisor(
        store_dir, PoolConfig(num_workers=1, max_batch=max_batch, cache_pages=8)
    )
    pool.start()
    try:
        submitted = {
            pool.submit(kind, entity, relation=relation, k=K): (kind, entity, relation)
            for kind, entity, relation in CASES
        }
        outcomes = {
            submitted[response.request_id]: response.outcome
            for response in pool.drain()
        }
    finally:
        pool.shutdown()
    assert outcomes == CASES
