"""Serving-side LRU cache for PKGM service vectors.

Production knowledge services sit behind caches: item service vectors
are immutable between model refreshes, and request traffic is heavily
skewed toward popular items.  :class:`CachedPKGMServer` wraps any
server exposing the :class:`repro.core.PKGMServer` surface with a
bounded LRU and hit-rate accounting, and invalidates wholesale on
model refresh (:meth:`refresh`).

Hit/miss/eviction accounting lives in a
:class:`repro.obs.metrics.MetricsRegistry` (``cache.hits``,
``cache.misses``, ``cache.evictions``, ``cache.refreshes``, plus
``cache.size``/``cache.capacity`` gauges); the legacy surface —
``hits``/``misses``/``evictions`` attributes, :meth:`reset_stats`,
and the :class:`CacheStats` snapshot — is preserved as views over the
registry, so existing callers and dashboards keep working.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional

import numpy as np

from .service import BatchOverServe, PKGMServer, ServiceVectors


class LRUDict:
    """A bounded least-recently-used mapping (OrderedDict idiom).

    The recency discipline shared by the service-vector cache below and
    the :mod:`repro.store` page cache: :meth:`get` refreshes an entry,
    :meth:`put` inserts and returns however many cold entries were
    evicted to stay within ``capacity``, and :meth:`peek` reads without
    touching recency.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """The entry for ``key`` (refreshed), or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The entry for ``key`` without touching the LRU order."""
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> int:
        """Insert (or refresh) an entry; returns the eviction count."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def discard(self, key: Hashable) -> None:
        """Drop one entry if present (repair invalidation)."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()


@dataclass(frozen=True)
class CacheStats:
    """Cache effectiveness counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_row(self) -> str:
        return (
            f"cache {self.size}/{self.capacity} | hits {self.hits} | "
            f"misses {self.misses} | evictions {self.evictions} | "
            f"hit-rate {self.hit_rate:.2%}"
        )


class CachedPKGMServer(BatchOverServe):
    """LRU-cached facade over a :class:`PKGMServer`.

    Only :meth:`serve` results are cached (they dominate production
    traffic); batch helpers reuse the same cache entry per item, so a
    warm cache accelerates them too.

    ``registry`` is an optional shared
    :class:`repro.obs.metrics.MetricsRegistry`; without one the cache
    keeps a private registry so the accounting surface is identical
    either way.
    """

    def __init__(self, server: PKGMServer, capacity: int = 1024, registry=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if registry is None:
            # Local import: repro.obs is a leaf package, but this module
            # is imported by repro.reliability (whose gateway the obs
            # workloads drive) — a top-level import would be a cycle.
            from ..obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.metrics = registry
        self._server = server
        self._capacity = capacity
        self._cache = LRUDict(capacity)
        self._hits_c = registry.counter("cache.hits", help="Cache hits")
        self._misses_c = registry.counter("cache.misses", help="Cache misses")
        self._evictions_c = registry.counter("cache.evictions", help="LRU evictions")
        self._refreshes_c = registry.counter(
            "cache.refreshes", help="Model-refresh invalidations"
        )
        self._size_g = registry.gauge("cache.size", help="Entries currently cached")
        self._capacity_g = registry.gauge("cache.capacity", help="LRU capacity")
        self._capacity_g.set(capacity)

    # ------------------------------------------------------------------
    # PKGMServer surface
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self._server.k

    @property
    def dim(self) -> int:
        return self._server.dim

    @property
    def num_entities(self) -> int:
        return self._server.num_entities

    @property
    def num_relations(self) -> int:
        return self._server.num_relations

    def serve(self, entity_id: int) -> ServiceVectors:
        entity_id = int(entity_id)
        cached = self._cache.get(entity_id)
        if cached is not None:
            self._hits_c.inc()
            return cached
        self._misses_c.inc()
        vectors = self._server.serve(entity_id)
        if not vectors.degraded:
            # A degraded payload is an outage artifact, not model output:
            # caching it would keep serving the fallback long after the
            # backend recovered.  Let the next request retry live.
            evicted = self._cache.put(entity_id, vectors)
            if evicted:
                self._evictions_c.inc(evicted)
            self._size_g.set(len(self._cache))
        return vectors

    def triple_service(self, heads, relations) -> np.ndarray:
        return self._server.triple_service(heads, relations)

    def relation_service(self, heads, relations) -> np.ndarray:
        return self._server.relation_service(heads, relations)

    def relation_existence_score(self, entity_id: int, relation: int) -> float:
        return self._server.relation_existence_score(entity_id, relation)

    def relation_existence_scores(self, entity_ids, relations) -> np.ndarray:
        return self._server.relation_existence_scores(entity_ids, relations)

    def known_items(self) -> List[int]:
        return self._server.known_items()

    def build_tail_index(self, **kwargs):
        return self._server.build_tail_index(**kwargs)

    @property
    def tail_index(self):
        return self._server.tail_index

    def nearest_tails(self, head: int, relation: int, k: int = 10):
        return self._server.nearest_tails(head, relation, k)

    def nearest_tails_batch(self, heads, relations, k: int = 10):
        return self._server.nearest_tails_batch(heads, relations, k)

    # ------------------------------------------------------------------
    # Accounting views (legacy attribute surface over the registry)
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        """Cache hits since the last stats reset."""
        return self._hits_c.value

    @property
    def misses(self) -> int:
        """Cache misses since the last stats reset."""
        return self._misses_c.value

    @property
    def evictions(self) -> int:
        """LRU evictions since the last stats reset."""
        return self._evictions_c.value

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def refresh(self, server: PKGMServer, reset_stats: bool = True) -> None:
        """Swap in a newly trained server and drop every cached entry.

        Counters describe the server generation they accumulated under,
        so they reset with it by default; pass ``reset_stats=False`` to
        keep lifetime totals across refreshes.  ``cache.refreshes`` is a
        lifetime counter and survives either way.
        """
        self._server = server
        self._cache.clear()
        self._size_g.set(0)
        self._refreshes_c.inc()
        if reset_stats:
            self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self._hits_c.reset()
        self._misses_c.reset()
        self._evictions_c.reset()

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits_c.value,
            misses=self._misses_c.value,
            evictions=self._evictions_c.value,
            size=len(self._cache),
            capacity=self._capacity,
        )
