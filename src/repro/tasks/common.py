"""Shared fine-tuning machinery for the downstream tasks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class FineTuneConfig:
    """Fine-tuning knobs common to the text tasks.

    Paper values: 3 epochs, batch 32, lr 2e-5 on BERT-base.  The mini
    encoder is far smaller, so defaults use a proportionally larger lr
    and more epochs.
    """

    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 1e-3
    max_length: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_length < 3:
            raise ValueError("max_length must be >= 3")


def minibatches(
    n: int, batch_size: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Yield shuffled index minibatches covering range(n) once."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]
