"""Mini-BERT encoder: the pre-trained language model substitute.

The paper fine-tunes Google's Chinese BERT-base; no checkpoint can be
downloaded here, so we build the same architecture (token + position +
segment embeddings, transformer encoder, [CLS] pooling) at laptop
scale, pre-train it with masked LM (:mod:`repro.text.mlm`), then
fine-tune per task.

PKGM integration follows §II-E / Fig. 2 exactly: the ``2k`` service
vectors are placed *after* the token embeddings as extra sequence
positions (the paper appends them after a [SEP]); a trainable linear
projection adapts the service dimension to the model width while the
service vectors themselves stay fixed during fine-tuning, as in the
paper ("all parameters in BERT are unfix and representations from PKGM
fixed").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Tensor,
    TransformerConfig,
    TransformerEncoder,
    concat,
)
from ..nn import init


@dataclass(frozen=True)
class MiniBertConfig:
    """Mini-BERT hyperparameters.

    BERT-base corresponds to ``dim=768, num_layers=12, num_heads=12,
    ffn_dim=3072, max_length=512``; defaults are scaled for synthetic
    data.
    """

    vocab_size: int = 1000
    max_length: int = 48
    dim: int = 48
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 96
    dropout: float = 0.1
    num_segments: int = 2
    service_dim: Optional[int] = None
    max_service_vectors: int = 40
    tie_qk_init: bool = False

    def __post_init__(self) -> None:
        if self.vocab_size < 6:
            raise ValueError("vocab_size must cover the special tokens")
        if self.max_length < 3:
            raise ValueError("max_length must be >= 3")
        if self.num_segments < 1:
            raise ValueError("num_segments must be >= 1")

    def transformer(self) -> TransformerConfig:
        return TransformerConfig(
            dim=self.dim,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            ffn_dim=self.ffn_dim,
            dropout=self.dropout,
            tie_qk_init=self.tie_qk_init,
        )


class MiniBert(Module):
    """BERT-style bidirectional encoder with optional PKGM injection."""

    def __init__(
        self,
        config: MiniBertConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        self.token_embeddings = Embedding(
            config.vocab_size, config.dim, rng=rng, init_fn=init.normal
        )
        total_positions = config.max_length + config.max_service_vectors
        self.position_embeddings = Embedding(
            total_positions, config.dim, rng=rng, init_fn=init.normal
        )
        self.segment_embeddings = Embedding(
            config.num_segments, config.dim, rng=rng, init_fn=init.normal
        )
        self.embedding_norm = LayerNorm(config.dim)
        self.embedding_dropout = Dropout(config.dropout, rng=rng)
        self.encoder = TransformerEncoder(config.transformer(), rng=rng)
        if config.service_dim is not None:
            self.service_projection = Linear(config.service_dim, config.dim, rng=rng)
        else:
            self.service_projection = None

    def forward(
        self,
        token_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        segment_ids: Optional[np.ndarray] = None,
        service_vectors: Optional[np.ndarray] = None,
        service_segment_ids: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Encode a batch.

        Parameters
        ----------
        token_ids:
            (batch, seq) int ids.
        attention_mask:
            (batch, seq), 1 = real token.  Defaults to all-ones.
        segment_ids:
            (batch, seq) segment ids for sentence pairs.
        service_vectors:
            Optional (batch, m, service_dim) PKGM payload appended after
            the tokens (requires ``config.service_dim``).  Appended
            positions always attend/are attended (mask 1).
        service_segment_ids:
            Optional (batch, m) segment ids for the appended service
            vectors.  For pair tasks this tags each item's service block
            with its sentence's segment, so the model can attribute the
            vectors (defaults to segment 0).

        Returns
        -------
        Tensor of shape (batch, seq [+ m], dim) — final hidden states.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim != 2:
            raise ValueError(f"expected (batch, seq) token ids, got {token_ids.shape}")
        batch, seq = token_ids.shape
        if seq > self.config.max_length:
            raise ValueError(
                f"sequence length {seq} exceeds max_length {self.config.max_length}"
            )
        if attention_mask is None:
            attention_mask = np.ones((batch, seq), dtype=np.int64)
        if segment_ids is None:
            segment_ids = np.zeros((batch, seq), dtype=np.int64)

        embeddings = self.token_embeddings(token_ids)
        embeddings = embeddings + self.segment_embeddings(segment_ids)

        if service_vectors is not None:
            if self.service_projection is None:
                raise ValueError(
                    "model built without service_dim cannot take service_vectors"
                )
            service_vectors = np.asarray(service_vectors, dtype=np.float64)
            if service_vectors.ndim != 3 or service_vectors.shape[0] != batch:
                raise ValueError(
                    f"expected (batch, m, service_dim) service vectors, "
                    f"got {service_vectors.shape}"
                )
            m = service_vectors.shape[1]
            if m > self.config.max_service_vectors:
                raise ValueError(
                    f"{m} service vectors exceed max_service_vectors "
                    f"{self.config.max_service_vectors}"
                )
            projected = self.service_projection(Tensor(service_vectors))
            if service_segment_ids is not None:
                service_segment_ids = np.asarray(service_segment_ids, dtype=np.int64)
                if service_segment_ids.shape != (batch, m):
                    raise ValueError(
                        f"service_segment_ids shape {service_segment_ids.shape} "
                        f"!= ({batch}, {m})"
                    )
                projected = projected + self.segment_embeddings(service_segment_ids)
            embeddings = concat([embeddings, projected], axis=1)
            attention_mask = np.concatenate(
                [attention_mask, np.ones((batch, m), dtype=np.int64)], axis=1
            )
            seq = seq + m

        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        embeddings = embeddings + self.position_embeddings(positions)
        embeddings = self.embedding_dropout(self.embedding_norm(embeddings))
        return self.encoder(embeddings, attention_mask=attention_mask)

    def pooled(self, hidden: Tensor) -> Tensor:
        """The [CLS] representation (first position), shape (batch, dim)."""
        return hidden[:, 0, :]
