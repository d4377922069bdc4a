"""The Pre-trained Knowledge Graph Model (paper §II).

Combines the triple query module and the relation query module under
the joint score ``f(h,r,t) = f_T(h,r,t) + f_R(h,r)`` (Eq. 3), trained
with the margin loss of Eq. 4–5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import Module, Tensor
from ..nn import functional as F
from .modules import RelationQueryModule, TripleQueryModule


@dataclass(frozen=True)
class PKGMConfig:
    """PKGM hyperparameters.

    Paper values: ``dim=64``, margin not reported (we default to 2.0),
    Adam lr ``1e-4``, batch 1000, 1 negative per edge, 2 epochs.  At
    synthetic scale the loops in :mod:`repro.core.trainer` default to
    more epochs since each one is cheap.
    """

    dim: int = 64
    margin: float = 2.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.margin <= 0:
            raise ValueError("margin must be positive")


class PKGM(Module):
    """Joint PKGM model: Eq. 3 scoring over both modules."""

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        config: Optional[PKGMConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else PKGMConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.triple_module = TripleQueryModule(
            num_entities, num_relations, self.config.dim, rng=rng
        )
        self.relation_module = RelationQueryModule(self.triple_module, rng=rng)

    # ------------------------------------------------------------------
    # Pre-training scores
    # ------------------------------------------------------------------
    def score(self, triples: np.ndarray) -> Tensor:
        """``f(h,r,t) = f_T(h,r,t) + f_R(h,r)`` (Eq. 3) for (N, 3) ids."""
        triples = np.asarray(triples, dtype=np.int64)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"expected (N, 3) triples, got {triples.shape}")
        heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        f_triple = self.triple_module.score(heads, relations, tails)
        f_rel = self.relation_module.score(heads, relations)
        return f_triple + f_rel

    def forward(self, triples: np.ndarray) -> Tensor:
        return self.score(triples)

    def margin_loss(self, positives: np.ndarray, negatives: np.ndarray) -> Tensor:
        """Eq. 4: ``sum [f(pos) + margin - f(neg)]_+`` over the batch.

        ``negatives`` may be (N, 3) or (K, N, 3); with K corruptions per
        positive, each is compared against its positive.
        """
        negatives = np.asarray(negatives, dtype=np.int64)
        pos_scores = self.score(positives)
        if negatives.ndim == 2:
            neg_scores = self.score(negatives)
            return F.margin_ranking_loss(
                pos_scores, neg_scores, margin=self.config.margin, reduction="sum"
            )
        total: Optional[Tensor] = None
        for k in range(negatives.shape[0]):
            neg_scores = self.score(negatives[k])
            term = F.margin_ranking_loss(
                pos_scores, neg_scores, margin=self.config.margin, reduction="sum"
            )
            total = term if total is None else total + term
        return total

    # ------------------------------------------------------------------
    # Servicing (Table I, right column) — numpy, no autograd
    # ------------------------------------------------------------------
    def service_triple(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """``S_T(h,r) = h + r`` (Eq. 6)."""
        return self.triple_module.service(heads, relations)

    def service_relation(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """``S_R(h,r) = M_r h - r`` (Eq. 7)."""
        return self.relation_module.service(heads, relations)

    def nearest_entities(
        self,
        query_vectors: np.ndarray,
        k: int = 10,
        candidate_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Entities whose embeddings are L1-closest to each query vector.

        Decodes the output of :meth:`service_triple` back to symbolic
        entity ids; used to evaluate completion-during-service.  Returns
        an (N, k) array of entity ids, nearest first.
        """
        query_vectors = np.atleast_2d(np.asarray(query_vectors))
        table = self.triple_module.entity_embeddings.weight.data
        if candidate_ids is not None:
            candidate_ids = np.asarray(candidate_ids)
            table = table[candidate_ids]
        k = min(k, len(table))
        # (N, E) L1 distances, chunked to bound memory.
        results = []
        for query in query_vectors:
            distances = np.abs(table - query).sum(axis=1)
            top = np.argpartition(distances, k - 1)[:k]
            top = top[np.argsort(distances[top])]
            if candidate_ids is not None:
                top = candidate_ids[top]
            results.append(top)
        return np.stack(results)

    def renormalize_entities(self, max_norm: float = 1.0) -> None:
        """Apply TransE's entity-norm constraint (call once per batch)."""
        self.triple_module.renormalize_entities(max_norm)
