"""PKGM's two query modules (paper §II-A and §II-B, Table I).

* :class:`TripleQueryModule` — TransE: pre-training scores
  ``f_T(h,r,t) = ||h + r - t||_1`` (Eq. 1); servicing returns
  ``S_T(h,r) = h + r`` (Eq. 6), the (possibly inferred) tail embedding.
* :class:`RelationQueryModule` — a transfer matrix ``M_r`` per relation:
  pre-training scores ``f_R(h,r) = ||M_r h - r||_1`` (Eq. 2); servicing
  returns ``S_R(h,r) = M_r h - r`` (Eq. 7), which approaches the zero
  vector (the EXIST embedding) iff ``h`` has — or should have — ``r``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Embedding, Module, Parameter, Tensor
from ..nn import functional as F
from ..nn import init


class TripleQueryModule(Module):
    """TransE-style triple encoder (Eq. 1 / Eq. 6).

    Parameters
    ----------
    num_entities, num_relations:
        Id-space sizes of the product KG.
    dim:
        Embedding dimension (the paper used 64).
    rng:
        Generator for the TransE uniform initialization.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if dim < 1:
            raise ValueError("dim must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self.entity_embeddings = Embedding(
            num_entities, dim, rng=rng, init_fn=init.transe_embedding
        )
        self.relation_embeddings = Embedding(
            num_relations, dim, rng=rng, init_fn=init.transe_embedding
        )

    def score(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        """``f_T(h, r, t) = ||h + r - t||_1`` for a batch of triples."""
        h = self.entity_embeddings(heads)
        r = self.relation_embeddings(relations)
        t = self.entity_embeddings(tails)
        return F.l1_norm(h + r - t, axis=-1)

    def forward(self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray) -> Tensor:
        return self.score(heads, relations, tails)

    def service(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """``S_T(h, r) = h + r`` (Eq. 6) — no gradient, pure lookup math.

        The returned array approximates the tail-entity embedding even
        when no triple ``(h, r, ?)`` exists in the KG — the completion
        capability of §II-D.
        """
        heads = np.asarray(heads)
        relations = np.asarray(relations)
        h = self.entity_embeddings.weight.data[heads]
        r = self.relation_embeddings.weight.data[relations]
        return h + r

    def renormalize_entities(self, max_norm: float = 1.0) -> None:
        """TransE's unit-ball constraint on entity embeddings."""
        self.entity_embeddings.renormalize(max_norm)


class RelationQueryModule(Module):
    """Relation-existence encoder (Eq. 2 / Eq. 7).

    Owns one ``dim x dim`` transfer matrix per relation, initialized
    near the identity (noise std 0.01) so early scores stay well
    conditioned.  Shares the entity and relation embeddings of a
    :class:`TripleQueryModule`.
    """

    def __init__(
        self,
        triple_module: TripleQueryModule,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.triple_module = triple_module
        self.dim = triple_module.dim
        self.num_relations = triple_module.num_relations
        self.transfer_matrices = Parameter(
            init.identity_stack(
                self.num_relations, self.dim, noise_std=0.01, rng=rng
            )
        )

    def transform(self, heads: np.ndarray, relations: np.ndarray) -> Tensor:
        """``M_r h - r`` with autograd, shape (batch, dim)."""
        heads = np.asarray(heads)
        relations = np.asarray(relations)
        h = self.triple_module.entity_embeddings(heads)  # (B, d)
        r = self.triple_module.relation_embeddings(relations)  # (B, d)
        matrices = self.transfer_matrices.take_rows(relations)  # (B, d, d)
        transformed = (matrices @ h.reshape(*heads.shape, self.dim, 1)).reshape(
            *heads.shape, self.dim
        )
        return transformed - r

    def score(self, heads: np.ndarray, relations: np.ndarray) -> Tensor:
        """``f_R(h, r) = ||M_r h - r||_1`` for a batch."""
        return F.l1_norm(self.transform(heads, relations), axis=-1)

    def forward(self, heads: np.ndarray, relations: np.ndarray) -> Tensor:
        return self.score(heads, relations)

    def service(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """``S_R(h, r) = M_r h - r`` (Eq. 7) — numpy only, no gradient.

        Near-zero output encodes EXIST; far-from-zero encodes that ``h``
        should not have relation ``r`` (§II-D case analysis).
        """
        heads = np.asarray(heads)
        relations = np.asarray(relations)
        h = self.triple_module.entity_embeddings.weight.data[heads]
        r = self.triple_module.relation_embeddings.weight.data[relations]
        matrices = self.transfer_matrices.data[relations]
        transformed = np.einsum("...ij,...j->...i", matrices, h)
        return transformed - r
