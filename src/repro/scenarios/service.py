"""Serving-side scenario engines behind the gateway and the pool.

Three layers, mirroring how the main serve path is built:

* :class:`ServiceRecommender` — the zero-shot engine itself: ranks
  items by condensed-service-vector distance, so an item needs only a
  KG presence (never an interaction) to be recommendable.
* :class:`ScenarioService` — the backend the gateway calls: the two
  engines behind one object, as the gateway's ``scenarios``.
* :class:`WorkerScenarios` — the lazy per-process bundle a forked pool
  worker builds from its store directory (recommender from the
  embedding store, explainer from the ``scenarios.json`` sidecar).

Failure vocabulary is shared with the rest of the serving stack:
engines raise :class:`KeyError` for unknown ids, and any engine error
propagates unchanged through the service, so
:class:`~repro.reliability.gateway.PKGMGateway` degrades these kinds
exactly like serve/retrieve traffic (``unknown-id`` / ``rpc-error``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..store.errors import StoreManifestError
from .explain import ExplanationPayload, load_sidecar

__all__ = [
    "RecommendationPayload",
    "ScenarioService",
    "ServiceRecommender",
    "WorkerScenarios",
    "degraded_explanation",
    "degraded_recommendation",
]


@dataclass(frozen=True)
class RecommendationPayload:
    """Top-``k`` neighbors of an anchor item in service-vector space.

    ``distances`` ascending, ``neighbor_ids`` aligned; a degraded
    payload carries ``inf`` distances and ``-1`` ids, same shape — the
    retrieval fallback convention.
    """

    entity_id: int
    k: int
    distances: np.ndarray
    neighbor_ids: np.ndarray
    degraded: bool = False


def degraded_recommendation(entity_id: int, k: int) -> RecommendationPayload:
    """The typed fallback payload for a failed recommendation."""
    return RecommendationPayload(
        entity_id=int(entity_id),
        k=int(k),
        distances=np.full(int(k), np.inf),
        neighbor_ids=np.full(int(k), -1, dtype=np.int64),
        degraded=True,
    )


def degraded_explanation(entity_id: int, relation: int) -> ExplanationPayload:
    """The typed fallback payload for a failed (completion) explanation."""
    return ExplanationPayload(
        entity_id=int(entity_id), relation=int(relation), degraded=True
    )


class ServiceRecommender:
    """Item-to-item zero-shot recommendation from service vectors.

    Precomputes the condensed service vector of every known item; a
    query ranks all other items by L2 distance to the anchor's vector.
    Because the vectors come purely from the KG (PKGM's point), a
    cold-start item — in the graph, absent from every interaction —
    ranks exactly like a warm one.  Unknown ids raise ``KeyError``.
    """

    def __init__(self, server, registry=None) -> None:
        self.server = server
        self.items = np.asarray(sorted(server.known_items()), dtype=np.int64)
        self._row_of = {int(e): i for i, e in enumerate(self.items)}
        self._matrix = server.serve_condensed_batch([int(e) for e in self.items])
        self._served_c = None
        if registry is not None:
            self._served_c = registry.counter(
                "scenarios.recommend.served",
                help="Recommendation payloads produced",
            )

    def recommend(self, entity_id: int, k: int = 10) -> RecommendationPayload:
        """Top-``k`` nearest items to ``entity_id`` (anchor excluded)."""
        row = self._row_of.get(int(entity_id))
        if row is None:
            raise KeyError(int(entity_id))
        k = int(k)
        deltas = self._matrix - self._matrix[row]
        distances = np.sqrt(np.sum(deltas * deltas, axis=1))
        distances[row] = np.inf  # never recommend the anchor to itself
        order = np.lexsort((self.items, distances))[:k]
        found = min(k, len(order))
        out_d = np.full(k, np.inf)
        out_i = np.full(k, -1, dtype=np.int64)
        out_d[:found] = distances[order[:found]]
        out_i[:found] = self.items[order[:found]]
        if self._served_c is not None:
            self._served_c.inc()
        return RecommendationPayload(
            entity_id=int(entity_id),
            k=k,
            distances=out_d,
            neighbor_ids=out_i,
        )


class ScenarioService:
    """The scenario engines as one backend for the gateway's two
    scenario kinds.

    Every call reaches its engine: an answer depends only on the
    snapshot and the query, and the gateway's latency is drawn before
    the call, so a result cache would save no time.  Engine errors
    propagate unchanged for the gateway to answer degraded.
    """

    def __init__(self, explainer, recommender) -> None:
        self.explainer = explainer
        self.recommender = recommender

    def explain(self, entity_id: int, relation: int) -> ExplanationPayload:
        return self.explainer.explain(entity_id, relation)

    def recommend(self, entity_id: int, k: int = 10) -> RecommendationPayload:
        return self.recommender.recommend(entity_id, k=k)


class WorkerScenarios:
    """Lazy per-process scenario engines for a forked pool worker.

    Built inside ``worker_main`` after the store is opened; engines are
    constructed on first use so workers serving only core kinds pay
    nothing.  ``explain`` needs the :data:`~repro.scenarios.explain.SIDECAR_NAME`
    sidecar in the store directory — without it (or with a damaged one,
    refused by its seal) the call raises ``RuntimeError``, which the
    worker reports as a ``STATUS_ERROR`` outcome rather than dying.
    Both calls answer the engines' typed payloads; the wire form is the
    :data:`repro.ops.OPS` row's business.
    """

    def __init__(self, server, store_dir: str) -> None:
        self.server = server
        self.store_dir = store_dir
        self._recommender: Optional[ServiceRecommender] = None
        self._explainer = None
        self._sidecar_loaded = False
        self._no_explainer = "store has no scenarios sidecar"

    def recommend(self, entity_id: int, k: int) -> RecommendationPayload:
        if self._recommender is None:
            self._recommender = ServiceRecommender(self.server)
        return self._recommender.recommend(entity_id, k=k)

    def explain(self, entity_id: int, relation: int) -> ExplanationPayload:
        if not self._sidecar_loaded:
            self._sidecar_loaded = True
            try:
                self._explainer = load_sidecar(self.store_dir, server=self.server)
            except StoreManifestError as error:
                # Remembered: parsed once per worker, not once per request.
                self._no_explainer = str(error)
        if self._explainer is None:
            raise RuntimeError(self._no_explainer)
        return self._explainer.explain(entity_id, relation)
