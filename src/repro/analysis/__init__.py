"""Embedding-space diagnostics for pre-trained PKGM models."""

from .embeddings import (
    embedding_norm_summary,
    item_embedding_matrix,
    knn_category_purity,
    sibling_separation,
)

__all__ = [
    "embedding_norm_summary",
    "item_embedding_matrix",
    "knn_category_purity",
    "sibling_separation",
]
