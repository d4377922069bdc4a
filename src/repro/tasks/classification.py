"""Item classification task (paper §III-B, Table IV).

Fine-tunes the mini-BERT classifier on item titles with category
labels, in four variants: ``base``, ``pkgm-t``, ``pkgm-r``,
``pkgm-all``.  Reports accuracy (AC) and Hit@{1,3,10} computed from the
rank of the correct label — exactly Table IV's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import PKGMServer
from ..data import ClassificationDataset, ClassificationExample
from ..eval import accuracy, hits_at_k, label_ranks
from ..nn import Adam
from ..nn import functional as F
from ..text import (
    MiniBert,
    MiniBertConfig,
    TextClassifier,
    WordTokenizer,
    service_payload,
    validate_variant,
)
from .common import FineTuneConfig, minibatches


@dataclass(frozen=True)
class ClassificationResult:
    """One row of Table IV."""

    variant: str
    accuracy: float
    hits: Dict[int, float]

    def as_table_row(self) -> str:
        hit_cols = " | ".join(
            f"{100 * self.hits[k]:.2f}" for k in sorted(self.hits)
        )
        return f"{self.variant} | {hit_cols} | {100 * self.accuracy:.2f}"


class ItemClassificationTask:
    """Runs one classification fine-tune + evaluation per variant.

    Parameters
    ----------
    dataset:
        Titles + labels (from :func:`repro.data.build_classification_dataset`).
    tokenizer:
        Closed-vocabulary tokenizer over the title corpus.
    encoder_config:
        Mini-BERT config; ``service_dim`` must equal the PKGM dimension
        when any PKGM variant will run.
    server:
        Trained :class:`repro.core.PKGMServer` (None restricts to base).
    pretrained_state:
        Optional MLM-pre-trained encoder weights (the "pre-trained
        language model" half of the paper's recipe).
    config:
        Fine-tuning hyperparameters.
    """

    def __init__(
        self,
        dataset: ClassificationDataset,
        tokenizer: WordTokenizer,
        encoder_config: MiniBertConfig,
        server: Optional[PKGMServer] = None,
        pretrained_state: Optional[dict] = None,
        config: Optional[FineTuneConfig] = None,
    ) -> None:
        self.dataset = dataset
        self.tokenizer = tokenizer
        self.encoder_config = encoder_config
        self.server = server
        self.pretrained_state = pretrained_state
        self.config = config if config is not None else FineTuneConfig()

    # ------------------------------------------------------------------
    def run(self, variant: str, eval_split: str = "dev") -> ClassificationResult:
        """Fine-tune one variant and evaluate it."""
        variant = validate_variant(variant)
        if variant != "base" and self.server is None:
            raise ValueError(f"variant {variant!r} requires a PKGM server")
        rng = np.random.default_rng(self.config.seed)

        encoder = MiniBert(self.encoder_config, rng=rng)
        if self.pretrained_state is not None:
            encoder.load_state_dict(self.pretrained_state)
        model = TextClassifier(encoder, self.dataset.num_categories, rng=rng)

        ids, mask, seg, labels, service = self._encode(self.dataset.train, variant)
        optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        n = len(labels)
        for _ in range(self.config.epochs):
            for index in minibatches(n, self.config.batch_size, rng):
                optimizer.zero_grad()
                logits = model(
                    ids[index],
                    attention_mask=mask[index],
                    segment_ids=seg[index],
                    service_vectors=None if service is None else service[index],
                )
                loss = F.cross_entropy(logits, labels[index])
                loss.backward()
                optimizer.step()

        return self.evaluate(model, variant, eval_split)

    def evaluate(
        self, model: TextClassifier, variant: str, eval_split: str = "dev"
    ) -> ClassificationResult:
        """Accuracy + Hit@{1,3,10} on the requested split."""
        examples = self._split(eval_split)
        ids, mask, seg, labels, service = self._encode(examples, variant)
        model.eval()
        all_logits = []
        for start in range(0, len(labels), self.config.batch_size):
            chunk = slice(start, start + self.config.batch_size)
            logits = model(
                ids[chunk],
                attention_mask=mask[chunk],
                segment_ids=seg[chunk],
                service_vectors=None if service is None else service[chunk],
            )
            all_logits.append(logits.data)
        model.train()
        logits = np.concatenate(all_logits, axis=0)
        ranks = label_ranks(logits, labels)
        return ClassificationResult(
            variant=variant,
            accuracy=accuracy(logits.argmax(axis=1), labels),
            hits={k: hits_at_k(ranks, k) for k in (1, 3, 10)},
        )

    def run_all_variants(
        self, variants: Sequence[str] = ("base", "pkgm-t", "pkgm-r", "pkgm-all")
    ) -> List[ClassificationResult]:
        """Reproduce the full Table IV."""
        return [self.run(v) for v in variants]

    # ------------------------------------------------------------------
    def _split(self, name: str) -> List[ClassificationExample]:
        splits = {
            "train": self.dataset.train,
            "test": self.dataset.test,
            "dev": self.dataset.dev,
        }
        if name not in splits:
            raise ValueError(f"unknown split {name!r}")
        return splits[name]

    def _encode(
        self, examples: Sequence[ClassificationExample], variant: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        titles = [e.title for e in examples]
        ids, mask, seg = self.tokenizer.encode_batch(titles, self.config.max_length)
        labels = np.asarray([e.label for e in examples], dtype=np.int64)
        if validate_variant(variant) == "base":
            return ids, mask, seg, labels, None
        entities = [e.entity_id for e in examples]
        service = service_payload(self.server, entities, variant)
        return ids, mask, seg, labels, service
