"""Edge sampling — the Graph-learn substitute.

The paper trains PKGM with Alibaba's Graph-learn, "a large-scale
distributed framework for node and edge sampling", using edge sampling
with one negative per edge.  :class:`EdgeSampler` reproduces that data
path single-process: shuffled epochs over the edge (triple) list,
fixed-size minibatches, and ``negatives_per_edge`` corruptions attached
to each batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .negatives import UniformNegativeSampler
from .store import TripleStore


@dataclass
class EdgeBatch:
    """One training minibatch: positives and aligned negatives.

    ``negatives`` has shape (negatives_per_edge, batch, 3); row ``k`` is
    the k-th corruption of each positive.
    """

    positives: np.ndarray
    negatives: np.ndarray

    def __len__(self) -> int:
        return len(self.positives)


class EdgeSampler:
    """Minibatch iterator over KG edges with attached negatives.

    Parameters
    ----------
    store:
        The training triple store.
    batch_size:
        Edges per minibatch (the paper used 1000).
    negative_sampler:
        Corruption strategy; defaults to the paper's uniform sampler
        (1 negative per edge) when constructed via :meth:`with_uniform`.
    negatives_per_edge:
        Number of corruptions per positive (paper: 1).
    rng:
        Generator driving the epoch shuffle.
    drop_last:
        Whether to drop a trailing partial batch.
    """

    def __init__(
        self,
        store: TripleStore,
        batch_size: int,
        negative_sampler,
        negatives_per_edge: int = 1,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if negatives_per_edge < 1:
            raise ValueError("negatives_per_edge must be >= 1")
        if len(store) == 0:
            raise ValueError("cannot sample edges from an empty store")
        self.triples = store.to_array()
        self.batch_size = batch_size
        self.negative_sampler = negative_sampler
        self.negatives_per_edge = negatives_per_edge
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.drop_last = drop_last

    @classmethod
    def with_uniform(
        cls,
        store: TripleStore,
        batch_size: int,
        num_entities: int,
        num_relations: int,
        rng: Optional[np.random.Generator] = None,
        negatives_per_edge: int = 1,
        corrupt_relation_prob: float = 0.1,
    ) -> "EdgeSampler":
        """Build with the paper's uniform corruption sampler."""
        rng = rng if rng is not None else np.random.default_rng(0)
        sampler = UniformNegativeSampler(
            num_entities=num_entities,
            num_relations=num_relations,
            rng=rng,
            corrupt_relation_prob=corrupt_relation_prob,
        )
        return cls(
            store,
            batch_size=batch_size,
            negative_sampler=sampler,
            negatives_per_edge=negatives_per_edge,
            rng=rng,
        )

    def epoch(self) -> Iterator[EdgeBatch]:
        """Yield shuffled minibatches covering every edge once."""
        order = self.rng.permutation(len(self.triples))
        for start in range(0, len(order), self.batch_size):
            index = order[start : start + self.batch_size]
            if self.drop_last and len(index) < self.batch_size:
                return
            positives = self.triples[index]
            negatives = np.stack(
                [
                    self.negative_sampler.corrupt_batch(positives)
                    for _ in range(self.negatives_per_edge)
                ]
            )
            yield EdgeBatch(positives=positives, negatives=negatives)

    def num_batches(self) -> int:
        """Batches per epoch given the drop_last policy."""
        full, rem = divmod(len(self.triples), self.batch_size)
        if rem and not self.drop_last:
            return full + 1
        return full
