"""Print SHA-256 digests of what training writes.

The training twin of ``served_bytes.py``: two checkouts, two seeds,
equal lines = same trained bytes.  Trains one ``PKGMTrainer`` (d = 32,
Adam lr 1e-2, one epoch per call) on ``SHARDS`` = 30 seeded, disjoint
500-triple shards of the catalog ``train_epoch`` trains on, one
``train`` call per shard, then prints digests of the entity, relation
and transfer tables, of the row-sparse Adam state of each (both moments
and the per-row step counts) and of the per-shard losses.  Last, one NCF fit with weight
decay on seeded interactions over the same catalog, digested over its
parameters in name order.  ``tools/check.sh`` holds the output at
seeds 0 and 13 to ``tools/golden/trained_seed{0,13}.txt``.  To compare
with another commit, point ``PYTHONPATH`` at that checkout's ``src``.

Usage:  PYTHONPATH=src python tools/trained_bytes.py --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from repro.core import PKGM, PKGMConfig, PKGMTrainer, TrainerConfig
from repro.data import (
    CatalogConfig,
    InteractionConfig,
    generate_catalog,
    generate_interactions,
)
from repro.kg import TripleStore
from repro.tasks import NCFConfig, RecommendationTask

SHARD_TRIPLES = 500
SHARDS = 30


def digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def train_pkgm(catalog, seed: int):
    triples = catalog.store.to_array()
    order = np.random.default_rng([seed, 2]).permutation(len(triples))
    starts = range(0, len(order) - SHARD_TRIPLES + 1, SHARD_TRIPLES)
    stores = [
        TripleStore(map(tuple, triples[order[start : start + SHARD_TRIPLES]]))
        for start in starts
    ]
    model = PKGM(
        len(catalog.entities),
        len(catalog.relations),
        PKGMConfig(dim=32),
        rng=np.random.default_rng([seed, 1]),
    )
    trainer = PKGMTrainer(
        model,
        TrainerConfig(epochs=1, batch_size=SHARD_TRIPLES, learning_rate=1e-2, seed=seed),
    )
    losses = [
        trainer.train(stores[index % len(stores)]).final_loss for index in range(SHARDS)
    ]
    return model, trainer.optimizer, losses


def fit_ncf(catalog, seed: int):
    interactions = generate_interactions(catalog, InteractionConfig(num_users=60, seed=seed))
    task = RecommendationTask(
        interactions,
        [item.entity_id for item in catalog.items],
        config=NCFConfig(epochs=2, seed=seed),
    )
    model, _ = task.train_model("base")
    return model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    catalog = generate_catalog(
        CatalogConfig(num_categories=24, products_per_category=120, seed=2021)
    )
    model, optimizer, losses = train_pkgm(catalog, args.seed)
    tables = {
        "entity_table": model.triple_module.entity_embeddings.weight.data,
        "relation_table": model.triple_module.relation_embeddings.weight.data,
        "transfer": model.relation_module.transfer_matrices.data,
    }
    for name, table in tables.items():
        print(f"pkgm {name:16s} {digest([table])}")
    for name, adam in optimizer.items():
        for key in ("m", "v", "step"):
            print(f"pkgm {name + '.' + key:16s} {digest([getattr(adam, key)])}")
    print(f"pkgm {'losses':16s} {digest([np.asarray(losses)])}")
    print(f"pkgm {'final_loss':16s} {losses[-1]!r}")
    ncf = fit_ncf(catalog, args.seed)
    named = sorted(ncf.state_dict().items())
    print(f"ncf  {'parameters':16s} {digest(array for _, array in named)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
