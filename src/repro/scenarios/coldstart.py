"""Zero-shot recommendation of cold-start items (PAPERS.md, arXiv 2305.07633).

The scenario the paper's serving architecture exists for: a brand-new
item enters the catalog with full KG facts but *zero* interactions.
Collaborative filters have nothing to learn from; PKGM's service
vectors — computed purely from the graph — already place the item in
the same space as every warm item.

Three pieces:

* :func:`generate_coldstart_split` — a seeded split that produces
  cold items *by construction*: a fraction of catalog items is
  designated cold, every interaction touching them is dropped from the
  training set, and each user's evaluation positive is drawn from the
  cold pool by the same persona affinity the generator used (so the
  held-out choice is learnable, not noise).
* :class:`CooccurrenceAligner` + :func:`pretrain_multitask` — the
  multi-task objective: standard TransE pre-training interleaved, once
  per epoch, with an alignment pass pulling the entity embeddings of
  items that co-occur in user histories toward each other.  Cold items
  never appear in the pairs (they have no interactions), but they
  share attribute values with warm items, so the KG structure
  propagates the collaborative signal to them.
* :func:`evaluate_coldstart` — HR@k / NDCG@k of ranking each user's
  held-out cold item among all cold items, scored purely from service
  vectors, against random, popularity, and warm-only NCF baselines.

Everything is seeded; no wall clock (lint R007 applies here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data.interactions import (
    Interaction,
    InteractionConfig,
    InteractionDataset,
    generate_interactions,
)
from ..eval import rank_of_positive, ranking_metrics

__all__ = [
    "ColdStartConfig",
    "ColdStartReport",
    "ColdStartSplit",
    "CooccurrenceAligner",
    "evaluate_coldstart",
    "generate_coldstart_split",
    "pretrain_multitask",
    "run_coldstart",
]

#: The cut-offs every HR@k / NDCG@k column is reported at.
KS = (1, 5, 10)


@dataclass(frozen=True)
class ColdStartConfig:
    """Knobs for the zero-shot scenario.

    One alignment pass runs after every training epoch (the multi-task
    interleave); it weighs the co-occurrence pull at 0.1 of the TransE
    updates.
    """

    cold_fraction: float = 0.2
    seed: int = 0
    alignment_lr: float = 0.05
    min_warm_per_user: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.cold_fraction < 1.0:
            raise ValueError("cold_fraction must be in (0, 1)")
        if self.alignment_lr <= 0:
            raise ValueError("alignment_lr must be positive")
        if self.min_warm_per_user < 1:
            raise ValueError("min_warm_per_user must be >= 1")


@dataclass
class ColdStartSplit:
    """Warm training interactions + the cold evaluation pool.

    ``interactions`` spans the *full* dense item-id space but contains
    no event touching a cold item — that absence is the definition of
    cold start here, and a test asserts it.  ``heldout`` maps each
    user to their evaluation positive, drawn from ``cold_items``.
    """

    interactions: InteractionDataset
    cold_items: List[int]
    warm_items: List[int]
    heldout: Dict[int, int]

    def summary(self) -> str:
        return (
            f"coldstart split: {self.interactions.num_items} items | "
            f"{len(self.cold_items)} cold | "
            f"{len(self.interactions.interactions)} warm interactions | "
            f"{len(self.heldout)} heldout users"
        )


def _persona_cold_affinity(
    persona: Dict[str, object],
    cold_items: Sequence[int],
    item_category: np.ndarray,
    item_values: List[Set[str]],
    strength: float,
) -> np.ndarray:
    """Affinity of one user for each cold item, same form the
    interaction generator used — so the held-out positive reflects the
    user's persona rather than uniform noise."""
    liked_categories = persona["categories"]
    liked_values = persona["values"]
    affinity = np.ones(len(cold_items), dtype=np.float64)
    for i, item in enumerate(cold_items):
        if int(item_category[item]) in liked_categories:
            affinity[i] *= strength
        match = len(item_values[item] & liked_values)
        affinity[i] *= 1.0 + strength * match
    return affinity / affinity.sum()


def generate_coldstart_split(
    catalog,
    interactions: Optional[InteractionConfig] = None,
    config: Optional[ColdStartConfig] = None,
) -> ColdStartSplit:
    """Seeded cold-start split over a generated catalog.

    Cold items are chosen up front; the persona-driven generator then
    produces interactions over all items and every event touching a
    cold item is removed.  Users left with fewer than
    ``min_warm_per_user`` warm events get deterministic persona-driven
    top-ups from the warm pool, so downstream leave-one-out training
    always has material to work with.
    """
    interactions = interactions if interactions is not None else InteractionConfig()
    config = config if config is not None else ColdStartConfig()
    rng = np.random.default_rng(config.seed)
    items = catalog.items
    n_items = len(items)
    n_cold = max(1, int(round(config.cold_fraction * n_items)))
    if n_cold >= n_items:
        raise ValueError("cold_fraction leaves no warm items")
    cold_items = sorted(
        int(i) for i in rng.choice(n_items, size=n_cold, replace=False)
    )
    cold_set = set(cold_items)
    warm_items = [i for i in range(n_items) if i not in cold_set]

    base = generate_interactions(catalog, interactions)
    warm_events = [
        event for event in base.interactions if event.item_id not in cold_set
    ]

    item_category = np.asarray([item.category_id for item in items])
    item_values: List[Set[str]] = [set(item.attributes.values()) for item in items]
    strength = max(interactions.preference_strength, 1.0)

    # Deterministic top-up for users starved by the cold filter.
    per_user: Dict[int, List[Interaction]] = {
        u: [] for u in range(base.num_users)
    }
    for event in warm_events:
        per_user[event.user_id].append(event)
    topped_up: List[Interaction] = list(warm_events)
    for user_id in range(base.num_users):
        history = per_user[user_id]
        missing = config.min_warm_per_user - len(history)
        if missing <= 0:
            continue
        have = {event.item_id for event in history}
        pool = [i for i in warm_items if i not in have]
        weights = _persona_cold_affinity(
            base.user_personas[user_id], pool, item_category, item_values, strength
        )
        extra = rng.choice(len(pool), size=missing, replace=False, p=weights)
        next_ts = max((e.timestamp for e in history), default=-1) + 1
        for offset, index in enumerate(extra):
            topped_up.append(
                Interaction(
                    user_id=user_id,
                    item_id=int(pool[int(index)]),
                    timestamp=next_ts + offset,
                )
            )

    heldout: Dict[int, int] = {}
    for user_id in range(base.num_users):
        weights = _persona_cold_affinity(
            base.user_personas[user_id],
            cold_items,
            item_category,
            item_values,
            strength,
        )
        heldout[user_id] = int(cold_items[int(rng.choice(n_cold, p=weights))])

    warm = InteractionDataset(
        num_users=base.num_users,
        num_items=n_items,
        interactions=topped_up,
        user_personas=base.user_personas,
    )
    return ColdStartSplit(
        interactions=warm,
        cold_items=cold_items,
        warm_items=warm_items,
        heldout=heldout,
    )


class CooccurrenceAligner:
    """The item–item co-occurrence alignment head.

    Counts unordered item pairs co-occurring within a user's history,
    keeps the ``max_pairs`` strongest (count desc, pair asc — fully
    deterministic), and pulls the paired items' *entity* embeddings
    together with weighted SGD on ``w · ||e_a − e_b||²``.  Applied to
    the same table TransE trains, this is the second task of the
    multi-task objective.
    """

    def __init__(
        self,
        interactions: InteractionDataset,
        item_entity_ids: Sequence[int],
        max_pairs: int = 4000,
    ) -> None:
        counts: Dict[Tuple[int, int], int] = {}
        for history in interactions.by_user().values():
            item_ids = sorted({event.item_id for event in history})
            for i, a in enumerate(item_ids):
                for b in item_ids[i + 1 :]:
                    counts[(a, b)] = counts.get((a, b), 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        kept = ranked[: int(max_pairs)]
        self.num_pairs = len(kept)
        entity = np.asarray(item_entity_ids, dtype=np.int64)
        self._a = np.asarray([entity[a] for (a, _), _ in kept], dtype=np.int64)
        self._b = np.asarray([entity[b] for (_, b), _ in kept], dtype=np.int64)
        weights = np.asarray([c for _, c in kept], dtype=np.float64)
        self._w = weights / weights.max() if len(weights) else weights

    def loss(self, entity_table: np.ndarray) -> float:
        """Weighted mean squared distance over the kept pairs."""
        if self.num_pairs == 0:
            return 0.0
        delta = entity_table[self._a] - entity_table[self._b]
        return float(np.mean(self._w * np.sum(delta * delta, axis=1)))

    def step(self, entity_table: np.ndarray, lr: float, weight: float) -> float:
        """One in-place alignment pass; returns the pre-step loss."""
        if self.num_pairs == 0:
            return 0.0
        before = self.loss(entity_table)
        delta = entity_table[self._a] - entity_table[self._b]
        grad = (lr * weight * self._w)[:, None] * delta
        np.subtract.at(entity_table, self._a, grad)
        np.add.at(entity_table, self._b, grad)
        return before


def pretrain_multitask(
    store,
    num_entities: int,
    num_relations: int,
    split: ColdStartSplit,
    item_entity_ids: Sequence[int],
    model_config=None,
    trainer_config=None,
    coldstart: Optional[ColdStartConfig] = None,
    seed: int = 0,
    registry=None,
):
    """TransE pre-training interleaved with co-occurrence alignment.

    Returns ``(model, history, alignment_losses)``.  The alignment
    pass runs in the trainer's per-epoch ``progress`` hook, mutating
    the live entity table between epochs — the two objectives
    alternate on shared parameters, the standard multi-task recipe at
    this scale.
    """
    from ..core import PKGM, PKGMTrainer

    coldstart = coldstart if coldstart is not None else ColdStartConfig()
    model = PKGM(
        num_entities,
        num_relations,
        config=model_config,
        rng=np.random.default_rng(seed),
    )
    aligner = CooccurrenceAligner(split.interactions, item_entity_ids)
    entity_table = model.triple_module.entity_embeddings.weight.data
    alignment_losses: List[float] = []

    def _align(epoch: int, mean_loss: float) -> None:
        alignment_losses.append(
            aligner.step(entity_table, lr=coldstart.alignment_lr, weight=0.1)
        )

    trainer = PKGMTrainer(model, trainer_config, registry=registry)
    history = trainer.train(store, progress=_align)
    return model, history, alignment_losses


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColdStartReport:
    """HR@k / NDCG@k per scoring method over the cold pool, k in :data:`KS`."""

    methods: Dict[str, Dict[str, float]]
    num_users: int
    num_cold: int

    def lines(self) -> List[str]:
        header = "method | " + " | ".join(
            f"HR@{k}" for k in KS
        ) + " | " + " | ".join(f"NDCG@{k}" for k in KS)
        rows = [
            f"cold-start zero-shot: {self.num_users} users x {self.num_cold} cold items",
            header,
        ]
        for method in sorted(self.methods):
            metrics = self.methods[method]
            hr = " | ".join(f"{metrics[f'HR@{k}']:.4f}" for k in KS)
            ndcg = " | ".join(f"{metrics[f'NDCG@{k}']:.4f}" for k in KS)
            rows.append(f"{method} | {hr} | {ndcg}")
        return rows


def evaluate_coldstart(
    server,
    split: ColdStartSplit,
    item_entity_ids: Sequence[int],
    catalog,
    config: Optional[ColdStartConfig] = None,
    ncf_model=None,
) -> ColdStartReport:
    """Rank each user's held-out cold item among all cold items.

    Methods:

    * ``service`` — the scenario under test: user profile = mean
      condensed service vector of the user's warm items; candidates
      scored by negative L2 distance.  Uses only KG-derived vectors.
    * ``popularity`` — warm interaction count of the candidate's
      category (cold items have no own counts by construction).
    * ``random`` — seeded uniform scores.
    * ``warm-ncf`` — optional: a trained NCF scoring via
      :meth:`~repro.tasks.NCF.predict_unseen` without service
      features, so every cold item collapses to the mean item
      embedding — exactly the failure mode the paper's vectors fix.
    """
    config = config if config is not None else ColdStartConfig()
    entity_ids = np.asarray(item_entity_ids, dtype=np.int64)
    cold = np.asarray(split.cold_items, dtype=np.int64)
    condensed = server.serve_condensed_batch([int(e) for e in entity_ids])
    cold_vectors = condensed[cold]

    item_category = np.asarray([item.category_id for item in catalog.items])
    category_counts = np.zeros(int(item_category.max()) + 1, dtype=np.float64)
    for event in split.interactions.interactions:
        category_counts[item_category[event.item_id]] += 1.0
    popularity_scores = category_counts[item_category[cold]]

    rng = np.random.default_rng(config.seed + 1)
    histories = split.interactions.by_user()
    ranks: Dict[str, List[float]] = {
        "service": [],
        "popularity": [],
        "random": [],
    }
    if ncf_model is not None:
        ranks["warm-ncf"] = []

    for user_id in sorted(split.heldout):
        positive = split.heldout[user_id]
        positive_index = int(np.searchsorted(cold, positive))
        warm_history = [event.item_id for event in histories.get(user_id, [])]
        profile = condensed[np.asarray(warm_history, dtype=np.int64)].mean(axis=0)
        distances = np.sqrt(
            np.sum((cold_vectors - profile) ** 2, axis=1)
        )
        ranks["service"].append(
            rank_of_positive(-distances, positive_index=positive_index)
        )
        ranks["popularity"].append(
            rank_of_positive(popularity_scores, positive_index=positive_index)
        )
        ranks["random"].append(
            rank_of_positive(
                rng.random(len(cold)), positive_index=positive_index
            )
        )
        if ncf_model is not None:
            users = np.full(len(cold), user_id, dtype=np.int64)
            scores = ncf_model.predict_unseen(users)
            ranks["warm-ncf"].append(
                rank_of_positive(scores, positive_index=positive_index)
            )

    return ColdStartReport(
        methods={
            method: ranking_metrics(method_ranks, KS)
            for method, method_ranks in ranks.items()
        },
        num_users=len(split.heldout),
        num_cold=len(cold),
    )


def run_coldstart(
    experiment,
    coldstart: Optional[ColdStartConfig] = None,
    registry=None,
) -> Tuple[ColdStartReport, ColdStartSplit]:
    """End-to-end zero-shot run at an :class:`ExperimentConfig` scale.

    Generates the catalog and cold-start split, multi-task pre-trains
    PKGM, trains the warm-only NCF baseline, and evaluates.
    Drives the ``repro scenarios coldstart`` CLI and the committed
    bench numbers.
    """
    from ..core import KeyRelationSelector, PKGMServer
    from ..data import generate_catalog

    coldstart = coldstart if coldstart is not None else ColdStartConfig()
    catalog = generate_catalog(experiment.catalog)
    split = generate_coldstart_split(
        catalog, experiment.interactions, coldstart
    )
    item_entity_ids = [item.entity_id for item in catalog.items]
    model, _, alignment_losses = pretrain_multitask(
        catalog.store,
        len(catalog.entities),
        len(catalog.relations),
        split,
        item_entity_ids,
        model_config=experiment.pkgm,
        trainer_config=experiment.pkgm_trainer,
        coldstart=coldstart,
        seed=experiment.seed,
        registry=registry,
    )
    item_to_category = {item.entity_id: item.category_id for item in catalog.items}
    selector = KeyRelationSelector(
        catalog.store, item_to_category, k=experiment.key_relations
    )
    server = PKGMServer(model, selector)

    from ..tasks import RecommendationTask

    task = RecommendationTask(
        split.interactions,
        item_entity_ids,
        server=server,
        config=experiment.ncf,
    )
    ncf_model, _ = task.train_model("base")

    report = evaluate_coldstart(
        server,
        split,
        item_entity_ids,
        catalog,
        config=coldstart,
        ncf_model=ncf_model,
    )
    if registry is not None:
        for method in sorted(report.methods):
            for metric in sorted(report.methods[method]):
                registry.gauge(
                    "scenarios.coldstart.metric",
                    help="Zero-shot cold-start ranking metrics",
                    labels={"method": method, "metric": metric},
                ).set(report.methods[method][metric])
        if alignment_losses:
            registry.gauge(
                "scenarios.coldstart.alignment_loss",
                help="Final co-occurrence alignment loss",
            ).set(alignment_losses[-1])
    return report, split
