"""Negative sampling for margin-based KGE training.

The paper's loss (Eq. 4) corrupts a positive triple "by randomly sample
an entity e ∈ E to replace h or t, or randomly sample a relation
r' ∈ R to replace r".  :class:`UniformNegativeSampler` implements
exactly that, unfiltered: a corruption may collide with a known positive.
"""

from __future__ import annotations

import numpy as np


class UniformNegativeSampler:
    """Corrupt h, t, or r uniformly at random (paper §II-C).

    Parameters
    ----------
    num_entities, num_relations:
        Sizes of the id spaces to sample replacements from.
    rng:
        Random generator (deterministic experiments).
    corrupt_relation_prob:
        Probability of corrupting the relation instead of an entity.
        The paper allows relation corruption; we default to a small
        share so entity corruption dominates, as in standard TransE.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        rng: np.random.Generator,
        corrupt_relation_prob: float = 0.1,
    ) -> None:
        if num_entities < 2:
            raise ValueError("need at least 2 entities to corrupt")
        if num_relations < 1:
            raise ValueError("need at least 1 relation")
        if not 0.0 <= corrupt_relation_prob <= 1.0:
            raise ValueError("corrupt_relation_prob must be in [0, 1]")
        if corrupt_relation_prob > 0 and num_relations < 2:
            # Cannot produce a *different* relation; disable relation corruption.
            corrupt_relation_prob = 0.0
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.rng = rng
        self.corrupt_relation_prob = corrupt_relation_prob

    def corrupt_batch(self, triples: np.ndarray) -> np.ndarray:
        """Return one negative per positive; input/output are (N, 3) arrays."""
        triples = np.asarray(triples, dtype=np.int64)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"expected (N, 3) triples, got {triples.shape}")
        out = triples.copy()
        n = len(triples)
        mode = self.rng.random(n)
        corrupt_rel = mode < self.corrupt_relation_prob
        # Among entity corruptions, pick head or tail with equal probability.
        corrupt_head = (~corrupt_rel) & (self.rng.random(n) < 0.5)
        corrupt_tail = ~corrupt_rel & ~corrupt_head

        out[corrupt_rel, 1] = self._different(
            triples[corrupt_rel, 1], self.num_relations
        )
        out[corrupt_head, 0] = self._different(
            triples[corrupt_head, 0], self.num_entities
        )
        out[corrupt_tail, 2] = self._different(
            triples[corrupt_tail, 2], self.num_entities
        )
        return out

    def _different(self, current: np.ndarray, space: int) -> np.ndarray:
        """Sample replacements guaranteed to differ from ``current``."""
        draws = self.rng.integers(0, space - 1, size=current.shape)
        # Shift draws >= current up by one: uniform over space \ {current}.
        return draws + (draws >= current)
