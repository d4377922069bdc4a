"""Delta-aware IVF maintenance: appends, tombstones, re-clustering.

A full IVF rebuild over a billion vectors for every catalog tick is
absurd; this module gives :class:`repro.index.IVFFlatIndex` an
incremental surface:

* **inserts** append to the nearest centroid's list — exactly what
  ``add`` already does, now tracked per-id so later ops can find rows;
* **deletes** tombstone the id: searches still scan the row but drop
  it before ranking, and the bytes stay until a compaction sweep
  rewrites each touched list once;
* **updates** move the row: it is cut out of its list and the new
  vector appended, under the same id, to its nearest cell's list (one
  :meth:`IVFFlatIndex.move`), because a tombstone keyed by id would
  also kill the replacement;
* **maintenance** runs seeded triggers — compaction when the tombstone
  ratio crosses its threshold, a full re-cluster (new seeded k-means)
  when list-size skew shows the centroids have drifted from the data.

Everything is deterministic: triggers fire on exact counters and the
re-cluster seed derives from ``(RECLUSTER_SEED, recluster_count)``, so a
replayed op history reproduces the same index bytes — the property
the stream chaos gate diffs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..index.ivf import IVFFlatIndex
from ..obs.metrics import MetricsRegistry


#: Compaction runs once this share of the rows is tombstoned.
TOMBSTONE_RATIO = 0.25
#: Re-clustering runs once the largest list holds this many times the
#: mean non-empty list, and at least ``MIN_VECTORS_FOR_RECLUSTER`` rows
#: are live.
SKEW_RATIO = 4.0
MIN_VECTORS_FOR_RECLUSTER = 64
#: Re-cluster ``n`` seeds its k-means from ``[RECLUSTER_SEED, n]``.
RECLUSTER_SEED = 0


class DeltaIndex:
    """Incremental insert/delete/update façade over an IVF-Flat index."""

    def __init__(
        self,
        base: IVFFlatIndex,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not base.is_trained:
            raise ValueError("the base index must be trained (or built)")
        self.index = base
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tombstones: Set[int] = set()
        #: ``tombstones`` as the int64 array searches drop.
        self._dropped = np.empty(0, dtype=np.int64)
        self._cell_of = self._map_cells()
        self.recluster_count = 0
        self._inserts_c = self.metrics.counter(
            "stream.index.inserts", help="Vectors absorbed via list appends"
        )
        self._deletes_c = self.metrics.counter(
            "stream.index.deletes", help="Vectors tombstoned"
        )
        self._updates_c = self.metrics.counter(
            "stream.index.updates", help="Vectors replaced in place"
        )
        self._compactions_c = self.metrics.counter(
            "stream.index.compactions", help="Tombstone compaction sweeps"
        )
        self._reclusters_c = self.metrics.counter(
            "stream.index.reclusters", help="Full seeded re-clusterings"
        )
        self._tombstones_g = self.metrics.gauge(
            "stream.index.tombstones", help="Tombstoned ids awaiting compaction"
        )
        self._live_g = self.metrics.gauge(
            "stream.index.live", help="Live (non-tombstoned) vectors"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        return self.index.ntotal - len(self.tombstones)

    @property
    def tombstone_fraction(self) -> float:
        total = self.index.ntotal
        return len(self.tombstones) / total if total else 0.0

    def list_sizes(self) -> np.ndarray:
        return np.asarray(
            [len(ids) for ids in self.index._list_ids], dtype=np.int64
        )

    def skew(self) -> float:
        """Largest list over mean non-empty list size (1.0 = balanced)."""
        sizes = self.list_sizes()
        live = sizes[sizes > 0]
        if not len(live):
            return 1.0
        return float(live.max() / live.mean())

    def is_live(self, vector_id: int) -> bool:
        """Whether ``vector_id`` is indexed and not tombstoned."""
        return vector_id in self._cell_of and vector_id not in self.tombstones

    def _map_cells(self) -> Dict[int, int]:
        return {
            vector_id: cell
            for cell, cell_ids in enumerate(self.index._list_ids)
            for vector_id in cell_ids.tolist()
        }

    def _update_gauges(self) -> None:
        # Every mutation adds ids, discards one or clears, then lands
        # here: a set of another size is a changed set.
        if len(self._dropped) != len(self.tombstones):
            self._dropped = np.fromiter(self.tombstones, np.int64, len(self.tombstones))
        self._tombstones_g.set(len(self.tombstones))
        self._live_g.set(self.live_count)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        """Append new vectors to their nearest lists."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        ids = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        if not len(ids):
            return
        id_list = ids.tolist()
        seen: Set[int] = set()
        for vector_id in id_list:  # an earlier row of the batch claims its id too
            if vector_id in self._cell_of or vector_id in seen:
                raise ValueError(f"id {vector_id} is already indexed")
            seen.add(vector_id)
        cells = self.index.add(vectors, ids)
        self._cell_of.update(zip(id_list, cells.tolist()))
        self._inserts_c.inc(len(ids))
        self._update_gauges()

    def delete(self, ids: np.ndarray) -> int:
        """Tombstone ids; returns how many were actually present."""
        removed = 0
        for vector_id in np.atleast_1d(np.asarray(ids, dtype=np.int64)).tolist():
            if self.is_live(vector_id):
                self.tombstones.add(vector_id)
                removed += 1
        self._deletes_c.inc(removed)
        self._update_gauges()
        return removed

    def update(self, vector_id: int, vector: np.ndarray) -> None:
        """Replace one vector's coordinates (same id, possibly new cell).

        A tombstone keyed by id cannot express this — it would also
        hide the replacement — so the row moves: cut out of its list,
        appended to its nearest cell's list through the assignment
        ``add`` uses (the bytes of ``remove`` then ``add``, for one
        row's cost).
        """
        vector_id = int(vector_id)
        cell = self._cell_of.get(vector_id)
        if cell is None:
            raise KeyError(f"id {vector_id} is not indexed")
        vector = np.asarray(vector)
        if vector.shape != (self.index.dim,):  # refuse before striking the old row
            raise ValueError(f"vector is {vector.shape}, not ({self.index.dim},)")
        self._cell_of[vector_id] = self.index.move(cell, vector_id, vector)
        self.tombstones.discard(vector_id)
        self._updates_c.inc(1)
        self._update_gauges()

    # ------------------------------------------------------------------
    # Search (tombstone-aware)
    # ------------------------------------------------------------------
    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(distances, ids)`` with tombstoned ids filtered out.

        The base search drops tombstoned rows before it ranks, so a
        fully-poisoned probe set still yields ``k`` live answers when
        they exist; rows pad with ``(inf, -1)`` like the base index.
        """
        return self.index.search(queries, k, nprobe=nprobe, drop=self._dropped)

    # ------------------------------------------------------------------
    # Maintenance triggers
    # ------------------------------------------------------------------
    def maintenance(self) -> List[str]:
        """Run due maintenance; returns the actions taken (in order)."""
        actions: List[str] = []
        if self.tombstones and self.tombstone_fraction >= TOMBSTONE_RATIO:
            self.compact()
            actions.append("compact")
        if self.live_count >= MIN_VECTORS_FOR_RECLUSTER and self.skew() >= SKEW_RATIO:
            self.recluster()
            actions.append("recluster")
        return actions

    def compact(self) -> int:
        """Strike every tombstoned row, one rewrite per touched list."""
        by_cell: Dict[int, List[int]] = {}
        for vector_id in self.tombstones:
            by_cell.setdefault(self._cell_of.pop(vector_id), []).append(vector_id)
        struck = sum(
            self.index.remove(cell, by_cell[cell]) for cell in sorted(by_cell)
        )
        self.tombstones.clear()
        self._compactions_c.inc(1)
        self._update_gauges()
        return struck

    def recluster(self) -> None:
        """Re-train the coarse quantizer on the live vectors (seeded).

        The new seed derives from ``(RECLUSTER_SEED, recluster_count)``,
        so the trigger history — itself deterministic — fully fixes
        the resulting centroids and list assignment.  With no live
        vector it raises before touching anything.
        """
        if not self.live_count:
            raise ValueError("no live vectors to re-cluster")
        if self.tombstones:
            self.compact()
        vectors, ids = self._live_rows()
        base = self.index
        nlist = min(base.nlist, len(vectors))
        rebuilt = IVFFlatIndex(
            dim=base.dim,
            nlist=nlist,
            nprobe=min(base.nprobe, nlist),
            metric=base.metric,
            seed=int(
                np.random.default_rng(
                    [RECLUSTER_SEED, self.recluster_count]
                ).integers(2**31)
            ),
            kmeans_iters=base.kmeans_iters,
            registry=base.metrics,
        )
        rebuilt.build(vectors, ids)
        self.index = rebuilt
        self._cell_of = self._map_cells()
        self.recluster_count += 1
        self._reclusters_c.inc(1)
        self._update_gauges()

    def _live_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """All live vectors and ids, sorted by id (rebuild input)."""
        ids = np.concatenate(self.index._list_ids)
        live = np.flatnonzero(~np.isin(ids, list(self.tombstones)))
        order = live[np.argsort(ids[live], kind="stable")]
        return np.concatenate(self.index._list_vectors, axis=0)[order], ids[order]
