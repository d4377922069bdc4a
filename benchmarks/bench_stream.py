"""Catalog churn — incremental absorption vs. the batch alternatives.

Two costs dominate a churning catalog if every delta forces a batch
rebuild: re-clustering the retrieval index and re-training the
embedding tables.  ``repro.stream`` replaces both with incremental
paths, and this bench prices them against the batch baselines:

* **index absorption** — a :class:`DeltaIndex` absorbs each round of
  inserts/deletes via per-list appends and tombstones, vs. a full
  k-means rebuild of the IVF index after every round.  Acceptance:
  the incremental path is >= 10x faster over the run, with recall
  parity against an exact scan of the live set.
* **continual training** — stream-born entities are warm-started and
  refined with bounded replay-buffered TransE steps, vs. a full
  retrain over the final triple set.  Acceptance: filtered
  link-prediction quality on the new entities' triples lands within
  the stated tolerance of the full retrain at a fraction of the
  gradient steps.

Wall time is real cost here, so ``time.perf_counter`` is fine —
benchmarks live outside the virtual-clock packages lint rule R007
covers.
"""

import time

import numpy as np

from repro.baselines import KGETrainer, KGETrainerConfig, TransE
from repro.baselines.link_prediction import evaluate_link_prediction
from repro.config import smoke_config
from repro.data import generate_catalog
from repro.index.ivf import IVFFlatIndex
from repro.kg import TripleStore
from repro.stream import (
    CatalogDeltaStream,
    ContinualConfig,
    ContinualTrainer,
    DeltaIndex,
    DeltaStreamConfig,
    StreamState,
)

SEED = 0

# --- index churn shape -------------------------------------------------
N_BASE = 2048
DIM = 16
NLIST = 32
NPROBE = 8
ROUNDS = 8
INSERTS_PER_ROUND = 96
DELETES_PER_ROUND = 48
N_QUERIES = 32
K = 10

# --- continual-training shape ------------------------------------------
BATCHES = 8
EPOCHS = 30
MRR_TOLERANCE = 0.20
HITS10_TOLERANCE = 0.20


def _exact_topk(live, query, k):
    ids = np.fromiter(live.keys(), dtype=np.int64)
    vectors = np.stack([live[i] for i in ids])
    distances = np.square(vectors - query).sum(axis=1)
    return set(ids[np.argsort(distances, kind="stable")[:k]].tolist())


def test_incremental_absorption_beats_rebuild(record_table):
    rng = np.random.default_rng(SEED)
    base_vectors = rng.standard_normal((N_BASE, DIM))
    base_ids = np.arange(N_BASE, dtype=np.int64)
    live = {int(i): base_vectors[i] for i in base_ids}

    def fresh_rounds():
        round_rng = np.random.default_rng([SEED, 1])
        rounds = []
        next_id = N_BASE
        alive = list(range(N_BASE))
        for _ in range(ROUNDS):
            inserts = round_rng.standard_normal((INSERTS_PER_ROUND, DIM))
            insert_ids = np.arange(
                next_id, next_id + INSERTS_PER_ROUND, dtype=np.int64
            )
            next_id += INSERTS_PER_ROUND
            doomed = round_rng.choice(
                len(alive), size=DELETES_PER_ROUND, replace=False
            )
            delete_ids = np.asarray(
                sorted(alive[j] for j in doomed), dtype=np.int64
            )
            alive = sorted(
                (set(alive) | set(insert_ids.tolist()))
                - set(delete_ids.tolist())
            )
            rounds.append((inserts, insert_ids, delete_ids))
        return rounds

    churn = fresh_rounds()

    # Incremental: one DeltaIndex absorbs every round.
    base = IVFFlatIndex(dim=DIM, nlist=NLIST, nprobe=NPROBE, seed=SEED)
    base.build(base_vectors, base_ids)
    delta = DeltaIndex(base)
    started = time.perf_counter()
    for inserts, insert_ids, delete_ids in churn:
        delta.insert(inserts, insert_ids)
        delta.delete(delete_ids)
        delta.maintenance()
    incremental_s = time.perf_counter() - started

    # Baseline: a full k-means rebuild after every round.
    rebuild_s = 0.0
    for inserts, insert_ids, delete_ids in churn:
        for vector, identity in zip(inserts, insert_ids):
            live[int(identity)] = vector
        for identity in delete_ids:
            del live[int(identity)]
        ids = np.fromiter(live.keys(), dtype=np.int64)
        vectors = np.stack([live[i] for i in ids])
        started = time.perf_counter()
        rebuilt = IVFFlatIndex(dim=DIM, nlist=NLIST, nprobe=NPROBE, seed=SEED)
        rebuilt.build(vectors, ids)
        rebuild_s += time.perf_counter() - started

    # Recall parity: the absorbed index vs the last full rebuild, both
    # against an exact scan — absorption must not degrade the IVF
    # approximation the rebuild would give at the same nprobe.
    query_rng = np.random.default_rng([SEED, 2])
    delta_hits = rebuilt_hits = 0
    for _ in range(N_QUERIES):
        query = query_rng.standard_normal(DIM)
        exact = _exact_topk(live, query, K)
        _, found = delta.search(query[None, :], k=K)
        delta_hits += len(exact & {int(i) for i in found[0] if i >= 0})
        _, found = rebuilt.search(query[None, :], k=K)
        rebuilt_hits += len(exact & {int(i) for i in found[0] if i >= 0})
    recall = delta_hits / (N_QUERIES * K)
    rebuilt_recall = rebuilt_hits / (N_QUERIES * K)
    speedup = rebuild_s / max(incremental_s, 1e-9)

    record_table(
        "stream_churn_index",
        [
            "Incremental IVF absorption vs full rebuild — "
            f"(N={N_BASE}, dim={DIM}, nlist={NLIST}, {ROUNDS} rounds x "
            f"+{INSERTS_PER_ROUND}/-{DELETES_PER_ROUND}, seed {SEED})",
            "path | total s | per round ms | recall@10 vs exact",
            f"incremental (appends+tombstones) | {incremental_s:.3f} | "
            f"{1000 * incremental_s / ROUNDS:.1f} | {recall:.3f}",
            f"full rebuild per round | {rebuild_s:.3f} | "
            f"{1000 * rebuild_s / ROUNDS:.1f} | {rebuilt_recall:.3f}",
            f"acceptance: {speedup:.1f}x >= 10x speedup, absorbed recall "
            f"{recall:.3f} >= rebuilt {rebuilt_recall:.3f} - 0.05",
        ],
    )
    assert speedup >= 10.0, f"incremental only {speedup:.1f}x faster"
    assert recall >= rebuilt_recall - 0.05, (recall, rebuilt_recall)


def test_continual_training_tracks_full_retrain(record_table):
    experiment = smoke_config()
    catalog = generate_catalog(experiment.catalog)
    state = StreamState.from_catalog(catalog)
    base_entities = state.base_entity_count
    num_relations = len(catalog.relations)
    base_triples = sorted(state.triples())

    trainer_config = KGETrainerConfig(
        epochs=EPOCHS, batch_size=128, seed=SEED
    )

    # Base model: full training over the pre-churn catalog.
    base_model = TransE(
        base_entities, num_relations, DIM, rng=np.random.default_rng(SEED)
    )
    started = time.perf_counter()
    KGETrainer(base_model, trainer_config).train(TripleStore(base_triples))
    base_s = time.perf_counter() - started

    # Continual path: absorb the churn with warm starts + bounded steps.
    stream = CatalogDeltaStream(state, DeltaStreamConfig(seed=SEED))
    continual = ContinualTrainer(
        base_model.entities.weight.data,
        base_model.relations.weight.data,
        ContinualConfig(seed=SEED, steps_per_batch=16, step_batch_size=64),
    )
    continual.seed_buffer(base_triples)
    started = time.perf_counter()
    for index in range(BATCHES):
        batch = stream.generate(index)
        continual.absorb(batch, state)
    continual_s = time.perf_counter() - started

    final_triples = sorted(state.triples())
    new_triples = [
        (h, r, t) for h, r, t in final_triples if h >= base_entities
    ]
    assert new_triples, "churn produced no stream-born entities"

    # Full retrain: a fresh model over the final triple set.
    retrain_model = TransE(
        continual.num_entities,
        num_relations,
        DIM,
        rng=np.random.default_rng(SEED),
    )
    started = time.perf_counter()
    KGETrainer(retrain_model, trainer_config).train(
        TripleStore(final_triples)
    )
    retrain_s = time.perf_counter() - started

    continual_model = TransE(
        continual.num_entities,
        num_relations,
        DIM,
        rng=np.random.default_rng(SEED),
    )
    continual_model.entities.weight.data[:] = continual.entity_table
    continual_model.relations.weight.data[:] = continual.relation_table

    test_store = TripleStore(new_triples)
    filters = [TripleStore(final_triples)]
    eval_kwargs = dict(
        ks=(1, 3, 10), max_queries=64, rng=np.random.default_rng(SEED)
    )
    full = evaluate_link_prediction(
        retrain_model, test_store, filters, **eval_kwargs
    )
    cont = evaluate_link_prediction(
        continual_model, test_store, filters, **eval_kwargs
    )

    record_table(
        "stream_churn_continual",
        [
            "Continual absorption vs full retrain — new-entity filtered "
            f"link prediction (smoke catalog, dim={DIM}, {BATCHES} delta "
            f"batches, {len(new_triples)} new-entity triples, seed {SEED})",
            "path | train s | MRR | hits@1 | hits@3 | hits@10",
            f"full retrain ({EPOCHS} epochs over final set) | "
            f"{retrain_s:.2f} | {full.mrr:.3f} | {full.hits[1]:.3f} | "
            f"{full.hits[3]:.3f} | {full.hits[10]:.3f}",
            "continual (warm start + "
            f"{continual.steps_taken} bounded steps) | {continual_s:.2f} | "
            f"{cont.mrr:.3f} | {cont.hits[1]:.3f} | {cont.hits[3]:.3f} | "
            f"{cont.hits[10]:.3f}",
            f"(base model: {base_s:.2f}s once, amortized across churn)",
            f"acceptance: continual MRR within {MRR_TOLERANCE:.2f} and "
            f"hits@10 within {HITS10_TOLERANCE:.2f} of full retrain",
        ],
    )
    assert cont.mrr >= full.mrr - MRR_TOLERANCE, (cont.mrr, full.mrr)
    assert cont.hits[10] >= full.hits[10] - HITS10_TOLERANCE, (
        cont.hits[10],
        full.hits[10],
    )
