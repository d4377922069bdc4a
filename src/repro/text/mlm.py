"""Masked-language-model pre-training for the mini-BERT.

Reproduces the "pre-trained language model" half of the paper's setup:
BERT's 80/10/10 masking recipe over the synthetic title corpus, a tied
output head, and a small Adam loop.  Downstream task models start from
these weights, exactly as the paper fine-tunes Google's checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Adam, Linear, Module, Tensor
from ..nn import functional as F
from .bert import MiniBert
from .tokenizer import WordTokenizer


@dataclass(frozen=True)
class MLMConfig:
    """Masking and optimization knobs."""

    mask_probability: float = 0.15
    replace_with_mask: float = 0.8
    replace_with_random: float = 0.1
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.mask_probability < 1.0:
            raise ValueError("mask_probability must be in (0, 1)")
        if self.replace_with_mask + self.replace_with_random > 1.0:
            raise ValueError("replace probabilities exceed 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


class MLMHead(Module):
    """Vocabulary prediction head over hidden states."""

    def __init__(self, dim: int, vocab_size: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.transform = Linear(dim, dim, rng=rng)
        self.decoder = Linear(dim, vocab_size, rng=rng)

    def forward(self, hidden: Tensor) -> Tensor:
        return self.decoder(self.transform(hidden).gelu())


def mask_tokens(
    token_ids: np.ndarray,
    attention_mask: np.ndarray,
    tokenizer: WordTokenizer,
    config: MLMConfig,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """BERT's 80/10/10 masking.

    Returns (corrupted_ids, labels) where ``labels`` is -1 at positions
    not selected for prediction.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    corrupted = token_ids.copy()
    labels = np.full_like(token_ids, -1)

    eligible = (attention_mask == 1) & ~np.isin(
        token_ids, [tokenizer.pad_id, tokenizer.cls_id, tokenizer.sep_id]
    )
    selected = eligible & (rng.random(token_ids.shape) < config.mask_probability)
    labels[selected] = token_ids[selected]

    action = rng.random(token_ids.shape)
    to_mask = selected & (action < config.replace_with_mask)
    to_random = selected & (
        (action >= config.replace_with_mask)
        & (action < config.replace_with_mask + config.replace_with_random)
    )
    corrupted[to_mask] = tokenizer.mask_id
    n_random = int(to_random.sum())
    if n_random:
        # Sample real words only: ids 0-4 are the special tokens.
        corrupted[to_random] = rng.integers(5, tokenizer.vocab_size, size=n_random)
    return corrupted, labels


class MLMTrainer:
    """Pre-trains a :class:`MiniBert` with masked LM on a title corpus."""

    def __init__(
        self,
        model: MiniBert,
        tokenizer: WordTokenizer,
        config: Optional[MLMConfig] = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config if config is not None else MLMConfig()
        self.head = MLMHead(
            model.config.dim,
            model.config.vocab_size,
            rng=np.random.default_rng(self.config.seed),
        )
        params = list(model.parameters()) + list(self.head.parameters())
        self.optimizer = Adam(params, lr=self.config.learning_rate)

    def train(
        self,
        titles: Sequence[Sequence[str]],
        max_length: Optional[int] = None,
    ) -> List[float]:
        """Run MLM pre-training; returns per-epoch mean losses."""
        if not titles:
            raise ValueError("empty corpus")
        max_length = max_length or self.model.config.max_length
        rng = np.random.default_rng(self.config.seed)
        ids, mask, _ = self.tokenizer.encode_batch(titles, max_length)

        losses: List[float] = []
        n = len(ids)
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            for start in range(0, n, self.config.batch_size):
                index = order[start : start + self.config.batch_size]
                batch_ids, batch_mask = ids[index], mask[index]
                corrupted, labels = mask_tokens(
                    batch_ids, batch_mask, self.tokenizer, self.config, rng
                )
                flat_labels = labels.reshape(-1)
                predict_at = np.where(flat_labels >= 0)[0]
                if len(predict_at) == 0:
                    continue
                self.optimizer.zero_grad()
                hidden = self.model(corrupted, attention_mask=batch_mask)
                logits = self.head(hidden)
                flat = logits.reshape(-1, self.model.config.vocab_size)
                loss = F.cross_entropy(
                    flat[predict_at], flat_labels[predict_at]
                )
                loss.backward()
                self.optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            losses.append(epoch_loss / max(batches, 1))
        return losses
