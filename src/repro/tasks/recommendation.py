"""Item recommendation task (paper §III-D, Table VIII).

Implements NCF (He et al. 2017) exactly as the paper uses it — a GMF
pathway (Eq. 13) fused with an MLP pathway (Eq. 14–17) through a
prediction layer (Eq. 18), trained with BCE over sampled negatives
(Eq. 19) — plus ``NCF_PKGM``: the condensed PKGM service vector is
concatenated into the MLP input ``z_1`` (Eq. 20–21).  Evaluation is
leave-one-out with 100 sampled negatives, reporting HR@k and NDCG@k for
k ∈ {1, 3, 5, 10, 30}.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import PKGMServer
from ..data import InteractionDataset
from ..eval import rank_of_positive, ranking_metrics
from ..nn import Adam, Embedding, Linear, MLP, Module, Tensor, concat
from ..nn import functional as F
from ..nn import init
from ..text import validate_variant


@dataclass(frozen=True)
class NCFConfig:
    """NCF hyperparameters (paper §III-D4 defaults, scaled)."""

    gmf_dim: int = 8
    mlp_dim: int = 32
    mlp_layers: Tuple[int, ...] = (32, 16, 8)
    service_dim: int = 0
    learning_rate: float = 1e-3
    weight_decay: float = 1e-3
    batch_size: int = 256
    epochs: int = 20
    negative_ratio: int = 4
    eval_negatives: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gmf_dim < 1 or self.mlp_dim < 1:
            raise ValueError("embedding dims must be >= 1")
        if not self.mlp_layers:
            raise ValueError("mlp_layers must be non-empty")
        if self.negative_ratio < 1:
            raise ValueError("negative_ratio must be >= 1")
        if self.eval_negatives < 1:
            raise ValueError("eval_negatives must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.service_dim < 0:
            raise ValueError("service_dim must be >= 0")


class NCF(Module):
    """Neural Collaborative Filtering with optional PKGM feature input.

    The GMF and MLP pathways own separate user/item embedding tables,
    as in the original paper; the optional ``service`` input joins the
    MLP concatenation (Eq. 21) and never touches the GMF path.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        config: Optional[NCFConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else NCFConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        if num_users < 1 or num_items < 1:
            raise ValueError("need at least one user and one item")
        self.num_users = num_users
        self.num_items = num_items
        c = self.config
        self.gmf_user = Embedding(num_users, c.gmf_dim, rng=rng, init_fn=init.normal)
        self.gmf_item = Embedding(num_items, c.gmf_dim, rng=rng, init_fn=init.normal)
        self.mlp_user = Embedding(num_users, c.mlp_dim, rng=rng, init_fn=init.normal)
        self.mlp_item = Embedding(num_items, c.mlp_dim, rng=rng, init_fn=init.normal)
        mlp_input = 2 * c.mlp_dim + c.service_dim
        self.mlp = MLP([mlp_input, *c.mlp_layers], activation="relu", rng=rng)
        # Eq. 18: h^T [phi_GMF ; phi_MLP] -> logit.
        self.prediction = Linear(c.gmf_dim + c.mlp_layers[-1], 1, bias=False, rng=rng)

    def forward(
        self,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        service: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Interaction logits for aligned (user, item) arrays."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if user_ids.shape != item_ids.shape:
            raise ValueError("user_ids and item_ids must align")
        gmf = self.gmf_user(user_ids) * self.gmf_item(item_ids)  # Eq. 13
        parts = [self.mlp_user(user_ids), self.mlp_item(item_ids)]
        if self.config.service_dim:
            if service is None:
                raise ValueError("model configured with service_dim needs service input")
            service = np.asarray(service, dtype=np.float64)
            if service.shape != (*user_ids.shape, self.config.service_dim):
                raise ValueError(
                    f"service shape {service.shape} != "
                    f"{(*user_ids.shape, self.config.service_dim)}"
                )
            parts.append(Tensor(service))
        elif service is not None:
            raise ValueError("model without service_dim got a service input")
        z1 = concat(parts, axis=-1)  # Eq. 14 / Eq. 21
        phi_mlp = self.mlp(z1)  # Eq. 15-17
        fused = concat([gmf, phi_mlp], axis=-1)
        return self.prediction(fused).reshape(user_ids.shape)  # Eq. 18 logit

    def predict(self, user_ids, item_ids, service=None) -> np.ndarray:
        """Interaction probabilities (eval mode, numpy out)."""
        self.eval()
        logits = self.forward(user_ids, item_ids, service)
        self.train()
        return 1.0 / (1.0 + np.exp(-np.clip(logits.data, -60, 60)))

    def predict_unseen(self, user_ids: np.ndarray) -> np.ndarray:
        """Scores for items with *no trained embedding* (cold start).

        Every unseen item is represented by the mean of the trained
        item-embedding tables — the standard fold-in for an id the
        model never saw — so the item side is identical across
        candidates and the model cannot rank them (the collaborative
        cold-start failure).  This is the warm-only baseline of the
        zero-shot scenario in :mod:`repro.scenarios.coldstart`; a model
        with PKGM service features (``service_dim``) has no service
        input for an unseen item and is refused.
        """
        if self.config.service_dim:
            raise ValueError("model configured with service_dim needs service input")
        self.eval()
        user_ids = np.asarray(user_ids, dtype=np.int64)
        shape = (*user_ids.shape, 1)
        gmf_mean = self.gmf_item.weight.data.mean(axis=0)
        mlp_mean = self.mlp_item.weight.data.mean(axis=0)
        gmf = self.gmf_user(user_ids) * Tensor(
            np.tile(gmf_mean, shape)
        )
        z1 = concat(
            [self.mlp_user(user_ids), Tensor(np.tile(mlp_mean, shape))], axis=-1
        )
        fused = concat([gmf, self.mlp(z1)], axis=-1)
        logits = self.prediction(fused).reshape(user_ids.shape)
        self.train()
        return 1.0 / (1.0 + np.exp(-np.clip(logits.data, -60, 60)))


@dataclass(frozen=True)
class RecommendationResult:
    """One row of Table VIII."""

    variant: str
    metrics: Dict[str, float]

    def as_table_row(self, ks: Sequence[int] = (1, 3, 5, 10, 30)) -> str:
        hr = " | ".join(f"{100 * self.metrics[f'HR@{k}']:.2f}" for k in ks)
        ndcg = " | ".join(f"{self.metrics[f'NDCG@{k}']:.4f}" for k in ks)
        return f"{self.variant} | {hr} | {ndcg}"


class RecommendationTask:
    """Trains NCF variants and evaluates them leave-one-out.

    ``item_entity_ids`` maps the dataset's dense item ids to KG entity
    ids so the PKGM server can be queried; the per-item condensed
    service features are precomputed once (they are fixed during
    training, as in the paper).
    """

    def __init__(
        self,
        interactions: InteractionDataset,
        item_entity_ids: Sequence[int],
        server: Optional[PKGMServer] = None,
        config: Optional[NCFConfig] = None,
    ) -> None:
        if len(item_entity_ids) != interactions.num_items:
            raise ValueError("item_entity_ids must cover every item")
        self.interactions = interactions
        self.item_entity_ids = list(item_entity_ids)
        self.server = server
        self.base_config = config if config is not None else NCFConfig()
        self.train_pairs, self.heldout = interactions.leave_one_out()
        self._observed: Dict[int, Set[int]] = defaultdict(set)
        for interaction in interactions.interactions:
            self._observed[interaction.user_id].add(interaction.item_id)

    # ------------------------------------------------------------------
    def item_features(self, variant: str) -> Optional[np.ndarray]:
        """Per-item condensed PKGM features (num_items, f) or None.

        ``pkgm-all`` uses Eq. 20 (paired concat, width 2d); ``pkgm-t`` /
        ``pkgm-r`` average only their module's vectors (width d).
        """
        variant = validate_variant(variant)
        if variant == "base":
            return None
        if self.server is None:
            raise ValueError(f"variant {variant!r} requires a PKGM server")
        batches = self.server.serve_batch(self.item_entity_ids)
        if variant == "pkgm-t":
            return np.stack([b.triple_vectors.mean(axis=0) for b in batches])
        if variant == "pkgm-r":
            return np.stack([b.relation_vectors.mean(axis=0) for b in batches])
        return np.stack([b.condensed() for b in batches])

    def train_model(self, variant: str) -> Tuple[NCF, Optional[np.ndarray]]:
        """Train one NCF variant; returns ``(model, item features)``.

        Split out of :meth:`run` so the zero-shot scenario
        (:mod:`repro.scenarios.coldstart`) can reuse the trained model
        for cold-item scoring via :meth:`NCF.predict_unseen`.
        """
        variant = validate_variant(variant)
        features = self.item_features(variant)
        service_dim = 0 if features is None else features.shape[1]
        config = dataclasses.replace(self.base_config, service_dim=service_dim)
        rng = np.random.default_rng(config.seed)
        model = NCF(
            self.interactions.num_users,
            self.interactions.num_items,
            config,
            rng=rng,
        )
        optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )

        users = np.asarray([i.user_id for i in self.train_pairs], dtype=np.int64)
        items = np.asarray([i.item_id for i in self.train_pairs], dtype=np.int64)
        for _ in range(config.epochs):
            batch_users, batch_items, batch_labels = self._with_negatives(
                users, items, config.negative_ratio, rng
            )
            order = rng.permutation(len(batch_users))
            for start in range(0, len(order), config.batch_size):
                index = order[start : start + config.batch_size]
                optimizer.zero_grad()
                service = None if features is None else features[batch_items[index]]
                logits = model(batch_users[index], batch_items[index], service)
                loss = F.binary_cross_entropy_with_logits(
                    logits, batch_labels[index]
                )
                loss.backward()
                optimizer.step()

        return model, features

    def run(self, variant: str) -> RecommendationResult:
        """Train one NCF variant and evaluate Table VIII metrics."""
        model, features = self.train_model(variant)
        return self.evaluate(model, variant, features)

    def evaluate(
        self,
        model: NCF,
        variant: str,
        features: Optional[np.ndarray] = None,
        num_negatives: Optional[int] = None,
        ks: Sequence[int] = (1, 3, 5, 10, 30),
    ) -> RecommendationResult:
        """Leave-one-out ranking against ``num_negatives`` unobserved items."""
        if num_negatives is None:
            num_negatives = self.base_config.eval_negatives
        if features is None and validate_variant(variant) != "base":
            features = self.item_features(variant)
        rng = np.random.default_rng(self.base_config.seed + 1)
        ranks = []
        for user_id, holdout in self.heldout.items():
            negatives = self._sample_unobserved(user_id, num_negatives, rng)
            candidates = np.concatenate([[holdout.item_id], negatives])
            users = np.full(len(candidates), user_id, dtype=np.int64)
            service = None if features is None else features[candidates]
            scores = model.predict(users, candidates, service)
            ranks.append(rank_of_positive(scores, positive_index=0))
        return RecommendationResult(
            variant=variant, metrics=ranking_metrics(ranks, ks)
        )

    def run_all_variants(
        self, variants: Sequence[str] = ("base", "pkgm-t", "pkgm-r", "pkgm-all")
    ) -> List[RecommendationResult]:
        """Reproduce the full Table VIII."""
        return [self.run(v) for v in variants]

    # ------------------------------------------------------------------
    def _with_negatives(
        self,
        users: np.ndarray,
        items: np.ndarray,
        ratio: int,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positives + ``ratio`` sampled unobserved negatives per positive."""
        neg_users = np.repeat(users, ratio)
        neg_items = np.empty(len(neg_users), dtype=np.int64)
        cursor = 0
        for user in users:
            observed = self._observed[int(user)]
            for _ in range(ratio):
                while True:
                    candidate = int(rng.integers(self.interactions.num_items))
                    if candidate not in observed:
                        neg_items[cursor] = candidate
                        cursor += 1
                        break
        all_users = np.concatenate([users, neg_users])
        all_items = np.concatenate([items, neg_items])
        labels = np.concatenate(
            [np.ones(len(users)), np.zeros(len(neg_users))]
        )
        return all_users, all_items, labels

    def _sample_unobserved(
        self, user_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        observed = self._observed[user_id]
        available = self.interactions.num_items - len(observed)
        if available < count:
            raise ValueError(
                f"user {user_id} has too few unobserved items "
                f"({available}) to sample {count} negatives"
            )
        negatives: Set[int] = set()
        while len(negatives) < count:
            candidate = int(rng.integers(self.interactions.num_items))
            if candidate not in observed:
                negatives.add(candidate)
        return np.asarray(sorted(negatives), dtype=np.int64)
