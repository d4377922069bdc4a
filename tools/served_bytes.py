"""Print one SHA-256 per served call kind, batch size and path.

Two checkouts, two seeds, equal lines = same served bytes.  Builds the
catalog ``bulk_ram`` serves (24 categories, 200 products each, k = 10,
d = 32) with untrained tables drawn from ``--seed``, then answers
``--calls`` rotations of ``serve_sequence_batch`` / ``serve_condensed_batch``
/ ``relation_existence_scores`` at B in {1, 8, 64, 256}, plus ``serve``,
``serve_batch``, ``nearest_tails`` and ``nearest_tails_batch`` (B in
{2, 8, 64} x k in {1, 10, 50}), from three paths: the resident server,
``PKGMServer.from_store(cache_pages=64)`` (``store``) and the same store
opened with ``cache_pages=1`` (``store1``), which evicts on every page;
then the ``store`` path's page faults, hits, bytes read, evictions and
quarantined reads after all of them.
Every path must print the resident digest of each call kind
(``tools/check.sh`` fails otherwise).  To compare with another commit,
point ``PYTHONPATH`` at that checkout's ``src``: equal lines = same bytes
and same store counters.

Usage:  PYTHONPATH=src python tools/served_bytes.py --seed 0 --calls 4
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.core import KeyRelationSelector, PKGM, PKGMConfig, PKGMServer
from repro.data import CatalogConfig, generate_catalog

BATCHES = (1, 8, 64, 256)
#: Single-item calls made per rotation.
SINGLES = 8
#: ``nearest_tails_batch`` shapes: queries per call, neighbours per query.
RETRIEVALS = [(batch, k) for batch in (2, 8, 64) for k in (1, 10, 50)]
#: The store's read-path counters, printed after every call has run.
COUNTERS = (
    "store.page_faults",
    "store.page_hits",
    "store.bytes_read",
    "store.page_evictions",
    "store.quarantined_reads",
)


def build_resident(seed: int) -> PKGMServer:
    catalog = generate_catalog(
        CatalogConfig(num_categories=24, products_per_category=200, seed=2021)
    )
    model = PKGM(
        len(catalog.entities),
        len(catalog.relations),
        PKGMConfig(dim=32),
        rng=np.random.default_rng([seed, 1]),
    )
    categories = {item.entity_id: item.category_id for item in catalog.items}
    return PKGMServer(model, KeyRelationSelector(catalog.store, categories, k=10))


def vectors_bytes(vectors) -> bytes:
    return vectors.key_relations.tobytes() + vectors.sequence().tobytes()


def answers(server: PKGMServer, seed: int, calls: int) -> Iterator[Tuple[str, bytes]]:
    """``(call kind, the bytes it returned)`` for every call, in a fixed order."""
    items = np.asarray(server.known_items(), dtype=np.int64)
    rng = np.random.default_rng([seed, 2])
    for _ in range(calls):
        for batch in BATCHES:
            ids = items[rng.integers(0, len(items), batch)]
            relations = rng.integers(0, server.num_relations, batch)
            yield f"sequence B={batch}", server.serve_sequence_batch(ids).tobytes()
            yield f"condensed B={batch}", server.serve_condensed_batch(ids).tobytes()
            yield (
                f"exist B={batch}",
                server.relation_existence_scores(ids, relations).tobytes(),
            )
        ids = items[rng.integers(0, len(items), SINGLES)]
        relations = rng.integers(0, server.num_relations, SINGLES)
        yield "serve", vectors_bytes(server.serve(int(ids[0])))
        for vectors in server.serve_batch(ids):
            yield "serve_batch", vectors_bytes(vectors)
        for head, relation in zip(ids.tolist(), relations.tolist()):
            distances, neighbours = server.nearest_tails(head, relation, 10)
            yield "nearest_tails", distances.tobytes() + neighbours.tobytes()
    # Its own stream: a retrieval shape added here moves no line above.
    rng = np.random.default_rng([seed, 3])
    for _ in range(calls):
        for batch, k in RETRIEVALS:
            heads = items[rng.integers(0, len(items), batch)]
            relations = rng.integers(0, server.num_relations, batch)
            distances, neighbours = server.nearest_tails_batch(heads, relations, k)
            yield f"tails B={batch} k={k}", distances.tobytes() + neighbours.tobytes()


def digests(server: PKGMServer, seed: int, calls: int) -> Dict[str, str]:
    hashes: dict = {}
    for kind, payload in answers(server, seed, calls):
        hashes.setdefault(kind, hashlib.sha256()).update(payload)
    return {kind: digest.hexdigest() for kind, digest in hashes.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=4)
    args = parser.parse_args(argv)
    resident = build_resident(args.seed)
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "store"
        resident.save_store(directory, num_shards=4, page_bytes=4096).close()
        stored = PKGMServer.from_store(directory, cache_pages=64)
        one_page = PKGMServer.from_store(directory, cache_pages=1)
        try:
            for path, server in (
                ("resident", resident),
                ("store", stored),
                ("store1", one_page),
            ):
                for kind, digest in digests(server, args.seed, args.calls).items():
                    print(f"{path:8s} {kind:16s} {digest}")
            for name in COUNTERS:
                value = stored.store.metrics.counter(name).value
                print(f"{'store':8s} {name:24s} {value}")
        finally:
            stored.store.close()
            one_page.store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
