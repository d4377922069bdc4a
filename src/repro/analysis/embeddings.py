"""Embedding-space diagnostics for a pre-trained PKGM.

These analyses quantify the two geometric mechanisms the downstream
results rest on:

* *category clustering* — items of one category share attribute values,
  so TransE pulls their embeddings together; measured as k-NN category
  purity;
* *sibling collapse* — listings of the same product share nearly all
  values, so they end up even closer; measured as the same-product vs
  random-pair distance ratio.

Both are reported by ``examples/`` and asserted (loosely) in tests: if
either mechanism failed, classification and alignment gains would be
unexplainable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import PKGM
from ..data import Catalog
from ..index import FlatIndex


@dataclass(frozen=True)
class PurityReport:
    """k-NN category purity of item embeddings."""

    k: int
    purity: float
    chance: float

    def as_row(self) -> str:
        return (
            f"kNN(k={self.k}) category purity = {self.purity:.3f} "
            f"(chance {self.chance:.3f})"
        )


@dataclass(frozen=True)
class SiblingReport:
    """Distance statistics for same-product vs random item pairs."""

    sibling_mean_distance: float
    random_mean_distance: float

    @property
    def ratio(self) -> float:
        return self.random_mean_distance / max(self.sibling_mean_distance, 1e-12)

    def as_row(self) -> str:
        return (
            f"L1 distance: same-product {self.sibling_mean_distance:.3f} vs "
            f"random {self.random_mean_distance:.3f} "
            f"(separation x{self.ratio:.2f})"
        )


def item_embedding_matrix(model: PKGM, catalog: Catalog) -> Tuple[np.ndarray, np.ndarray]:
    """(embeddings, category_ids) for every catalog item, in item order."""
    entity_ids = np.asarray([item.entity_id for item in catalog.items])
    categories = np.asarray([item.category_id for item in catalog.items])
    table = model.triple_module.entity_embeddings.weight.data
    return table[entity_ids], categories


def knn_category_purity(
    model: PKGM,
    catalog: Catalog,
    k: int = 5,
    max_items: Optional[int] = 500,
    rng: Optional[np.random.Generator] = None,
    block_size: int = 256,
) -> PurityReport:
    """Fraction of each item's k nearest items sharing its category.

    Neighbors come from an exact L1 search
    (:class:`repro.index.FlatIndex`), so peak memory is bounded by the
    index's screen chunk (``O(queries * k + 8192 * dim)``; ``block_size``
    passes through to the index and changes no result) instead of the
    full item-by-item distance matrix the old ``cdist`` path
    materialized; results are unchanged.  Neighbors
    at distance ≤ 1e-12 (self-matches and exact duplicates) are
    excluded, so the searched ``k`` grows adaptively until every query
    has ``k`` true neighbors or the table is exhausted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    embeddings, categories = item_embedding_matrix(model, catalog)
    n = len(embeddings)
    if max_items is not None and n > max_items:
        rng = rng if rng is not None else np.random.default_rng(0)
        index = rng.choice(n, size=max_items, replace=False)
        queries, query_cats = embeddings[index], categories[index]
    else:
        queries, query_cats = embeddings, categories

    table = FlatIndex(
        embeddings.shape[1], metric="l1", block_size=block_size
    )
    table.add(embeddings)
    search_k = min(n, k + 1)
    while True:
        distances, neighbor_ids = table.search(queries, search_k)
        real = (neighbor_ids >= 0) & (distances > 1e-12)
        if search_k >= n or bool((real.sum(axis=1) >= k).all()):
            break
        search_k = min(n, search_k * 2)
    purity_total = 0.0
    for i in range(len(queries)):
        neighbors = neighbor_ids[i][real[i]][:k]
        if not len(neighbors):
            continue
        purity_total += np.mean(categories[neighbors] == query_cats[i])
    counts = np.bincount(categories)
    chance = float(np.sum((counts / counts.sum()) ** 2))
    return PurityReport(k=k, purity=purity_total / len(queries), chance=chance)


def sibling_separation(
    model: PKGM,
    catalog: Catalog,
    max_pairs: int = 500,
    rng: Optional[np.random.Generator] = None,
) -> SiblingReport:
    """Same-product vs random-pair mean L1 distance."""
    rng = rng if rng is not None else np.random.default_rng(0)
    table = model.triple_module.entity_embeddings.weight.data

    sibling_pairs: List[Tuple[int, int]] = []
    by_product: Dict[int, List[int]] = {}
    for item in catalog.items:
        by_product.setdefault(item.product_id, []).append(item.entity_id)
    for members in by_product.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                sibling_pairs.append((members[i], members[j]))
    if not sibling_pairs:
        raise ValueError("catalog has no multi-item products")
    if len(sibling_pairs) > max_pairs:
        index = rng.choice(len(sibling_pairs), size=max_pairs, replace=False)
        sibling_pairs = [sibling_pairs[i] for i in index]

    entity_ids = [item.entity_id for item in catalog.items]
    random_pairs = [
        tuple(rng.choice(entity_ids, size=2, replace=False))
        for _ in range(len(sibling_pairs))
    ]

    def mean_distance(pairs):
        a = table[[p[0] for p in pairs]]
        b = table[[p[1] for p in pairs]]
        return float(np.abs(a - b).sum(axis=1).mean())

    return SiblingReport(
        sibling_mean_distance=mean_distance(sibling_pairs),
        random_mean_distance=mean_distance(random_pairs),
    )


def embedding_norm_summary(model: PKGM) -> Dict[str, float]:
    """Norm statistics (the TransE unit-ball constraint audit)."""
    entity_norms = np.linalg.norm(
        model.triple_module.entity_embeddings.weight.data, axis=1
    )
    relation_norms = np.linalg.norm(
        model.triple_module.relation_embeddings.weight.data, axis=1
    )
    return {
        "entity_norm_mean": float(entity_norms.mean()),
        "entity_norm_max": float(entity_norms.max()),
        "relation_norm_mean": float(relation_norms.mean()),
        "relation_norm_max": float(relation_norms.max()),
    }
