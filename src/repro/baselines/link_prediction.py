"""Filtered link-prediction evaluation (MRR / Hits@k / mean rank).

The standard KGE protocol: for every test triple, rank the true tail
against all entities (and the true head likewise), filtering out
candidates that form *other* known positives so the model is not
penalized for ranking a different true answer first.

:func:`evaluate_link_prediction_ann` is the retrieval-layer variant:
tail candidates come from a ``repro.index`` ANN search over the entity
table instead of a full scan, and the result reports recall@k against
the exact top-k plus the distance-computation counts both sides paid —
the at-scale trade the paper's 142.6M-item table forces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from ..index import INDEX_KINDS
from ..kg import TripleStore
from .scorers import KGEModel, TransE


@dataclass(frozen=True)
class LinkPredictionResult:
    """Aggregate ranking metrics over a test set."""

    mrr: float
    mean_rank: float
    hits: Dict[int, float]
    num_queries: int

    def as_row(self, name: str) -> str:
        hits = " ".join(f"H@{k}={v:.3f}" for k, v in sorted(self.hits.items()))
        return f"{name}: MRR={self.mrr:.3f} MR={self.mean_rank:.1f} {hits}"


def evaluate_link_prediction(
    model: KGEModel,
    test: TripleStore,
    filter_stores: Sequence[TripleStore],
    ks: Iterable[int] = (1, 3, 10),
    both_sides: bool = True,
    max_queries: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> LinkPredictionResult:
    """Filtered ranking of test triples.

    Parameters
    ----------
    model:
        A trained scorer (energy convention: lower = better).
    test:
        Triples to rank.
    filter_stores:
        Stores whose triples are excluded from the candidate set
        (typically train + valid + test).
    ks:
        Hits@k cutoffs.
    both_sides:
        Rank both tail replacement and head replacement (the standard
        protocol); if False, tails only.
    max_queries:
        Optional subsample of the test triples (for quick benches).
    """
    triples = test.to_array()
    if len(triples) == 0:
        raise ValueError("empty test set")
    if max_queries is not None and max_queries < len(triples):
        rng = rng if rng is not None else np.random.default_rng(0)
        index = rng.choice(len(triples), size=max_queries, replace=False)
        triples = triples[index]

    ks = sorted(set(int(k) for k in ks))
    ranks = []
    for h, r, t in triples:
        ranks.append(_rank(model, int(h), int(r), int(t), filter_stores, side="tail"))
        if both_sides:
            ranks.append(
                _rank(model, int(h), int(r), int(t), filter_stores, side="head")
            )
    ranks = np.asarray(ranks, dtype=np.float64)
    return LinkPredictionResult(
        mrr=float((1.0 / ranks).mean()),
        mean_rank=float(ranks.mean()),
        hits={k: float((ranks <= k).mean()) for k in ks},
        num_queries=len(ranks),
    )


@dataclass(frozen=True)
class ANNLinkPredictionResult:
    """ANN-vs-exact retrieval quality and cost for tail queries.

    ``recall_at_k`` is the mean fraction of the exact top-k tail
    candidates the ANN search recovered; the two distance-computation
    totals quantify what the approximation saved.
    """

    recall_at_k: float
    k: int
    num_queries: int
    exact_distance_computations: int
    ann_distance_computations: int

    @property
    def saving(self) -> float:
        """Exact-to-ANN distance-computation ratio (higher = cheaper)."""
        if self.ann_distance_computations == 0:
            return float("inf")
        return self.exact_distance_computations / self.ann_distance_computations

    def as_row(self, name: str) -> str:
        return (
            f"{name}: recall@{self.k}={self.recall_at_k:.3f} "
            f"exact_dc={self.exact_distance_computations} "
            f"ann_dc={self.ann_distance_computations} "
            f"saving={self.saving:.1f}x"
        )


def evaluate_link_prediction_ann(
    model: KGEModel,
    test: TripleStore,
    k: int = 10,
    index=None,
    index_kind: str = "ivf",
    index_params: Optional[Dict] = None,
    max_queries: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> ANNLinkPredictionResult:
    """ANN-accelerated tail retrieval, scored against the exact top-k.

    Only translational scorers qualify: TransE's tail energy
    ``||h + r - t||_1`` *is* an L1 distance from the query ``h + r``,
    so an L1 index over the entity table answers tail queries directly.
    For each test triple the exact top-k (full ``score_all_tails``
    scan, ``(energy, id)`` order) is compared with the index's top-k;
    recall@k is their mean overlap.

    ``index`` may be a pre-built L1 index over the entity table (ids =
    entity ids); otherwise one of ``index_kind`` is built here with
    ``index_params`` passed through to its constructor.
    """
    if not isinstance(model, TransE):
        raise TypeError(
            "ANN evaluation requires a TransE-family scorer whose tail "
            f"energy is an L1 distance; got {type(model).__name__}"
        )
    triples = test.to_array()
    if len(triples) == 0:
        raise ValueError("empty test set")
    if max_queries is not None and max_queries < len(triples):
        rng = rng if rng is not None else np.random.default_rng(0)
        index_sample = rng.choice(len(triples), size=max_queries, replace=False)
        triples = triples[index_sample]
    if k < 1:
        raise ValueError("k must be >= 1")

    entities = model.entities.weight.data
    relations = model.relations.weight.data
    if index is None:
        if index_kind not in INDEX_KINDS:
            raise ValueError(
                f"index_kind must be one of {sorted(INDEX_KINDS)}, "
                f"got {index_kind!r}"
            )
        index = INDEX_KINDS[index_kind](
            dim=model.dim, metric="l1", **(index_params or {})
        )
        if hasattr(index, "build"):
            index.build(entities)
        else:
            index.add(entities)

    queries = entities[triples[:, 0]] + relations[triples[:, 1]]
    entity_ids = np.arange(model.num_entities)
    exact_ids = np.empty((len(triples), k), dtype=np.int64)
    for row, (h, r, _) in enumerate(triples):
        energies = model.score_all_tails(int(h), int(r))
        exact_ids[row] = np.lexsort((entity_ids, energies))[:k]
    counter = index.metrics.counter("index.search.distance_computations")
    before = counter.value
    _, ann_ids = index.search(queries, k)
    ann_dc = counter.value - before
    overlap = [
        len(set(exact_ids[row]) & set(ann_ids[row])) / k
        for row in range(len(triples))
    ]
    return ANNLinkPredictionResult(
        recall_at_k=float(np.mean(overlap)),
        k=k,
        num_queries=len(triples),
        exact_distance_computations=len(triples) * model.num_entities,
        ann_distance_computations=int(ann_dc),
    )


def _rank(
    model: KGEModel,
    head: int,
    relation: int,
    tail: int,
    filter_stores: Sequence[TripleStore],
    side: str,
) -> int:
    """Filtered rank of the true entity (1-based, optimistic-tie-free).

    Uses the "average" tie policy: rank = 1 + (# strictly better) +
    (# ties) / 2, which is robust to degenerate scorers.
    """
    if side == "tail":
        energies = model.score_all_tails(head, relation)
        true_id = tail
        known = _known_tails(filter_stores, head, relation)
    elif side == "head":
        energies = model.score_all_heads(relation, tail)
        true_id = head
        known = _known_heads(filter_stores, relation, tail)
    else:
        raise ValueError(f"side must be 'head' or 'tail', got {side!r}")

    true_energy = energies[true_id]
    mask = np.zeros(len(energies), dtype=bool)
    known.discard(true_id)
    if known:
        mask[list(known)] = True
    candidates = np.where(~mask)[0]
    cand_energies = energies[candidates]
    better = int((cand_energies < true_energy).sum())
    ties = int((cand_energies == true_energy).sum()) - 1  # exclude self
    return 1 + better + ties // 2


def _known_tails(stores: Sequence[TripleStore], head: int, relation: int) -> set:
    known: set = set()
    for store in stores:
        known.update(store.tails(head, relation))
    return known


def _known_heads(stores: Sequence[TripleStore], relation: int, tail: int) -> set:
    known: set = set()
    for store in stores:
        for triple in store.triples_with_tail(tail):
            if triple.relation == relation:
                known.add(triple.head)
    return known
