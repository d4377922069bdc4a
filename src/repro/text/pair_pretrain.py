"""Self-supervised title-pair pre-training (the NSP substitute).

BERT's usefulness on sentence-pair tasks comes not only from masked LM
but from pair-level pre-training (NSP) at massive scale.  Our
from-scratch mini encoder has no such prior, and learning cross-segment
lexical matching from a few hundred labelled alignment pairs alone does
not generalize.

This module adds the missing prior with a *pretext* task that needs no
human labels: sample an item, generate two independent seller titles
for it (the title generator is stochastic) — that pair is a positive;
titles of two different items form a negative.  The encoder learns
"these two keyword bags describe the same thing", exactly the
capability product alignment fine-tuning then specializes from
same-item to same-product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Adam
from ..nn import functional as F
from .bert import MiniBert
from .heads import PairClassifier
from .tokenizer import WordTokenizer


@dataclass(frozen=True)
class PairPretrainConfig:
    """Pretext-task knobs."""

    num_pairs: int = 2000
    epochs: int = 6
    batch_size: int = 32
    learning_rate: float = 2e-3
    max_length: int = 32
    same_category_negatives: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_pairs < 2:
            raise ValueError("num_pairs must be >= 2")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class PairPretrainer:
    """Pre-trains a :class:`MiniBert` on the same-item title pretext task.

    ``title_fn(item_index) -> List[str]`` must return a *fresh* stochastic
    title each call; ``categories[item_index]`` supplies category ids for
    hard (same-category) negatives.
    """

    def __init__(
        self,
        model: MiniBert,
        tokenizer: WordTokenizer,
        config: Optional[PairPretrainConfig] = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config if config is not None else PairPretrainConfig()
        self.head = PairClassifier(
            model, rng=np.random.default_rng(self.config.seed)
        )
        self.optimizer = Adam(self.head.parameters(), lr=self.config.learning_rate)

    def build_pairs(
        self,
        title_fn,
        num_items: int,
        categories: Optional[Sequence[int]] = None,
    ) -> Tuple[List[Tuple[List[str], List[str]]], np.ndarray]:
        """Sample ``num_pairs`` pretext pairs (balanced labels)."""
        if num_items < 2:
            raise ValueError("need at least two items")
        rng = np.random.default_rng(self.config.seed + 1)
        by_category = None
        if categories is not None and self.config.same_category_negatives:
            by_category = {}
            for index, category in enumerate(categories):
                by_category.setdefault(category, []).append(index)

        pairs: List[Tuple[List[str], List[str]]] = []
        labels = np.zeros(self.config.num_pairs)
        for i in range(self.config.num_pairs):
            anchor = int(rng.integers(num_items))
            if i % 2 == 0:
                partner = anchor
                labels[i] = 1.0
            else:
                partner = self._negative_partner(anchor, num_items, by_category, categories, rng)
            pairs.append((title_fn(anchor), title_fn(partner)))
        return pairs, labels

    @staticmethod
    def _negative_partner(anchor, num_items, by_category, categories, rng) -> int:
        if by_category is not None:
            pool = by_category.get(categories[anchor], [])
            candidates = [i for i in pool if i != anchor]
            if candidates:
                return candidates[int(rng.integers(len(candidates)))]
        partner = int(rng.integers(num_items - 1))
        return partner + (partner >= anchor)

    def train(
        self,
        title_fn,
        num_items: int,
        categories: Optional[Sequence[int]] = None,
    ) -> List[float]:
        """Run the pretext training; returns per-epoch mean losses."""
        pairs, labels = self.build_pairs(title_fn, num_items, categories)
        ids, mask, seg = self.tokenizer.encode_pair_batch(
            pairs, self.config.max_length
        )
        rng = np.random.default_rng(self.config.seed + 2)
        losses: List[float] = []
        n = len(labels)
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            total, count = 0.0, 0
            for start in range(0, n, self.config.batch_size):
                index = order[start : start + self.config.batch_size]
                self.optimizer.zero_grad()
                logits = self.head(
                    ids[index], attention_mask=mask[index], segment_ids=seg[index]
                )
                loss = F.binary_cross_entropy_with_logits(logits, labels[index])
                loss.backward()
                self.optimizer.step()
                total += loss.item()
                count += 1
            losses.append(total / max(count, 1))
        return losses
