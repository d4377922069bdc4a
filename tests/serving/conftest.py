"""Fixtures for the serving-tier suite: one store, one reference server.

The pool forks real processes, so the store is built once per module
(via ``tmp_path_factory``) and every test forks its own short-lived
supervisor over it.  The in-RAM ``reference`` server is the oracle:
anything the pool answers must match it bit-for-bit.  :func:`ask` is
one request on the pool's asynchronous surface, start to answer.
"""

import numpy as np
import pytest

from repro.core import KeyRelationSelector, PKGM, PKGMConfig, PKGMServer
from repro.kg import TripleStore


@pytest.fixture(scope="module")
def reference():
    """A small untrained server: 60 entities, 6 relations, 20 items."""
    rng = np.random.default_rng(11)
    triples = []
    items = list(range(20))
    for head in items:
        for relation in rng.choice(6, size=3, replace=False):
            triples.append((head, int(relation), int(rng.integers(20, 60))))
    store = TripleStore(triples)
    categories = {head: head % 3 for head in items}
    selector = KeyRelationSelector(store, categories, k=3)
    model = PKGM(60, 6, PKGMConfig(dim=8), rng=np.random.default_rng(0))
    return PKGMServer(model, selector)


@pytest.fixture(scope="module")
def item_ids(reference):
    return list(reference.known_items())


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, reference):
    path = tmp_path_factory.mktemp("serving") / "store"
    reference.save_store(path, num_shards=2, page_bytes=512).close()
    return path


def ask(pool, kind, entity_id, relation=-1, k=10, budget=None):
    """Submit one request, drain the pool, return its ``PoolResponse``."""
    request_id = pool.submit(kind, entity_id, relation=relation, k=k, budget=budget)
    (response,) = pool.drain()
    assert response.request_id == request_id
    return response
