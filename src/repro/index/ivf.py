"""IVF-Flat: inverted-file search over a k-means coarse quantizer.

The paper's PKG-sub table holds 142.6M items; answering "which entities
sit closest to ``S_T = h + r``" by brute force is a full-table scan per
query.  IVF cuts that cost by partitioning the table into ``nlist``
cells (seeded k-means, :mod:`repro.index.kmeans`) and scanning only the
``nprobe`` cells whose centroids are nearest the query: the per-query
work drops from ``N`` distances to ``nlist + nprobe * N / nlist`` on a
balanced partition — the ≥5x saving the bench enforces at recall@10
≥ 0.9.

Everything is deterministic: the coarse quantizer is seeded, probe
order breaks centroid-distance ties by cell id, and candidate ranking
uses the shared ``(distance, id)`` order from :mod:`repro.index.flat`.
Same seed, same vectors ⇒ byte-identical snapshots and search results.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Tuple

import numpy as np

from .flat import METRICS, batch_top_k, pairwise_distances, reduce_terms
from .kmeans import KMeansResult, kmeans

#: A candidate-matrix filler's id: at NaN it ranks after every stored row.
_FILLER = np.iinfo(np.int64).max


class IVFFlatIndex:
    """Inverted-file index with exact distances inside probed cells.

    Lifecycle: ``train`` (k-means on a representative sample), then
    ``add`` (assign vectors to cells), then ``search``; ``build`` does
    train+add in one call.  ``nprobe`` may be overridden per search to
    trade recall against scanned volume.
    """

    kind = "ivf"

    def __init__(
        self,
        dim: int,
        nlist: int = 64,
        nprobe: int = 8,
        metric: str = "l2",
        seed: int = 0,
        kmeans_iters: int = 25,
        registry=None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
        if nlist < 1:
            raise ValueError("nlist must be >= 1")
        if not 1 <= nprobe <= nlist:
            raise ValueError("nprobe must be in [1, nlist]")
        self.dim = dim
        self.nlist = nlist
        self.nprobe = nprobe
        self.metric = metric
        self.seed = seed
        self.kmeans_iters = kmeans_iters
        if registry is None:
            from ..obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.metrics = registry
        self._queries_c = registry.counter(
            "index.search.queries", help="Search queries answered"
        )
        self._search_dc = registry.counter(
            "index.search.distance_computations",
            help="Query-to-vector distances evaluated during search",
        )
        self._build_dc = registry.counter(
            "index.build.distance_computations",
            help="Distances evaluated while training/adding",
        )
        self._size_g = registry.gauge(
            "index.size", help="Vectors currently indexed"
        )
        self.centroids: Optional[np.ndarray] = None
        self._list_vectors: List[np.ndarray] = []
        self._list_ids: List[np.ndarray] = []
        self._ntotal = 0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @property
    def is_trained(self) -> bool:
        """Whether the coarse quantizer has centroids."""
        return self.centroids is not None

    @property
    def ntotal(self) -> int:
        """Number of vectors across all inverted lists."""
        return self._ntotal

    @property
    def bytes_per_vector(self) -> float:
        """Storage cost per vector (float64 coordinates + int64 id)."""
        return self.dim * 8 + 8

    def train(self, vectors: np.ndarray) -> KMeansResult:
        """Fit the coarse quantizer on ``vectors``; returns the k-means run."""
        vectors = np.asarray(vectors, dtype=np.float64)
        nlist = min(self.nlist, len(vectors))
        if nlist < self.nlist:
            raise ValueError(
                f"nlist={self.nlist} exceeds the {len(vectors)} training vectors"
            )
        result = kmeans(
            vectors,
            self.nlist,
            metric=self.metric,
            iters=self.kmeans_iters,
            seed=self.seed,
        )
        self._build_dc.inc(result.distance_computations)
        self.centroids = result.centroids
        self._list_vectors = [
            np.empty((0, self.dim)) for _ in range(self.nlist)
        ]
        self._list_ids = [
            np.empty(0, dtype=np.int64) for _ in range(self.nlist)
        ]
        self._set_ntotal(0)
        return result

    def _set_ntotal(self, ntotal: int) -> None:
        self._ntotal = ntotal
        self._size_g.set(ntotal)

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Store ``vectors`` in their nearest cells; returns those cells."""
        if not self.is_trained:
            raise RuntimeError("train() the coarse quantizer before add()")
        vectors, ids = self._rows(vectors, ids)
        cells = self._assign(vectors)
        self._file(vectors, ids, cells)
        return cells

    def _assign(self, vectors: np.ndarray) -> np.ndarray:
        """Each vector's nearest cell, counted as ``nlist`` distances."""
        distances = pairwise_distances(vectors, self.centroids, self.metric)
        self._build_dc.inc(len(vectors) * self.nlist)
        return np.argmin(distances, axis=1)

    def _rows(
        self, vectors: np.ndarray, ids: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Checked float64 vectors and their int64 ids; by default, ids
        count up from one past the largest id held (0 when empty)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected (N, {self.dim}) vectors, got {vectors.shape}"
            )
        if ids is None:
            first = max((int(i.max()) + 1 for i in self._list_ids if len(i)), default=0)
            return vectors, np.arange(first, first + len(vectors), dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (len(vectors),):
            raise ValueError("ids must be one id per vector")
        return vectors, ids

    def _file(self, vectors: np.ndarray, ids: np.ndarray, cells: np.ndarray) -> None:
        """Append each vector and id to the list of its cell."""
        # One stable sort groups the batch by cell, input order kept.
        order = np.argsort(cells, kind="stable")
        counts = np.bincount(cells, minlength=self.nlist)
        start = 0
        for cell in np.flatnonzero(counts).tolist():
            members = order[start : start + counts[cell]]
            start += counts[cell]
            self._list_vectors[cell] = np.concatenate(
                [self._list_vectors[cell], vectors[members]], axis=0
            )
            self._list_ids[cell] = np.concatenate(
                [self._list_ids[cell], ids[members]]
            )
        self._set_ntotal(self._ntotal + len(ids))

    def move(self, cell: int, vector_id: int, vector: np.ndarray) -> int:
        """Cut ``vector_id``'s row out of ``cell`` and append ``vector``
        under the same id to its nearest cell; returns that cell."""
        vector = np.asarray(vector, dtype=np.float64)[None, :]
        ids, vectors = self._list_ids[cell], self._list_vectors[cell]
        at = ids.tolist().index(vector_id)
        to = int(self._assign(vector)[0])
        self._list_ids[cell] = np.concatenate((ids[:at], ids[at + 1 :]))
        self._list_vectors[cell] = np.concatenate((vectors[:at], vectors[at + 1 :]))
        self._list_ids[to] = np.concatenate((self._list_ids[to], [vector_id]))
        self._list_vectors[to] = np.concatenate((self._list_vectors[to], vector))
        return to

    def remove(self, cell: int, ids: Collection[int]) -> int:
        """Strike the rows of ``cell`` whose id is in ``ids``; returns count."""
        # kind="sort": the table method's set-up outweighs one short list.
        keep = ~np.isin(self._list_ids[cell], list(ids), kind="sort")
        self._list_ids[cell] = self._list_ids[cell][keep]
        self._list_vectors[cell] = self._list_vectors[cell][keep]
        struck = len(keep) - len(self._list_ids[cell])
        self._set_ntotal(self._ntotal - struck)
        return struck

    def build(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> None:
        """Train on ``vectors`` and add them — the common one-shot path.

        Each vector is filed in the cell k-means' last assignment step
        found nearest: the cell ``add`` would find, without its matrix.
        """
        result = self.train(vectors)
        vectors, ids = self._rows(vectors, ids)
        self._file(vectors, ids, result.nearest)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def probe_cells(self, queries: np.ndarray, nprobe: int) -> np.ndarray:
        """(Q, nprobe) nearest cell ids per query, ties by cell id."""
        centroid_d = pairwise_distances(queries, self.centroids, self.metric)
        self._search_dc.inc(queries.shape[0] * self.nlist)
        cell_ids = np.arange(self.nlist, dtype=np.int64)[None, :]
        return batch_top_k(centroid_d, cell_ids, nprobe)[1]

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: Optional[int] = None,
        drop: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate ``(distances, ids)`` over the probed cells.

        Distances inside a probed cell are exact; recall is governed by
        how often the true neighbors' cells are among the ``nprobe``
        probes.  Rows pad with ``(inf, -1)`` when the probed cells hold
        fewer than ``k`` vectors outside ``drop``.  Ids in ``drop`` (an
        int64 array) are scanned, and counted, like any stored row, then
        left out of the ranking.  Each query's probed lists are copied
        into one scratch block and reduced there in place into its
        candidate row: the bits of :func:`pairwise_distances`, without
        its temporaries.
        """
        if not self.is_trained:
            raise RuntimeError("train() the coarse quantizer before search()")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"expected (Q, {self.dim}) queries, got {queries.shape}"
            )
        if k < 1:
            raise ValueError("k must be >= 1")
        nprobe = self.nprobe if nprobe is None else int(nprobe)
        if not 1 <= nprobe <= self.nlist:
            raise ValueError("nprobe must be in [1, nlist]")
        self._queries_c.inc(len(queries))
        probes = self.probe_cells(queries, nprobe)
        sizes = np.asarray([len(ids) for ids in self._list_ids])
        scanned = sizes[probes].sum(axis=1)
        self._search_dc.inc(int(scanned.sum()))
        # One (Q, widest scan) candidate matrix, ranked once.  Fillers
        # (a short row's tail, a dropped row) rank after every scanned
        # row, those at inf or NaN too, and are served as (inf, -1).
        shape = (len(queries), int(scanned.max(initial=0)))
        cand_d = np.full(shape, np.nan)
        cand_i = np.full(shape, _FILLER, dtype=np.int64)
        block = np.empty((shape[1], self.dim))
        for row, row_probes in enumerate(probes.tolist()):
            count = scanned[row]
            diff = block[:count]
            np.concatenate([self._list_vectors[c] for c in row_probes], out=diff)
            np.concatenate(
                [self._list_ids[c] for c in row_probes], out=cand_i[row, :count]
            )
            np.subtract(queries[row], diff, out=diff)
            reduce_terms(diff, self.metric, cand_d[row, :count])
        if self.metric == "l2":
            np.sqrt(cand_d, out=cand_d)
        if drop is not None and len(drop):
            dropped = np.isin(cand_i, drop)
            cand_d[dropped] = np.nan
            cand_i[dropped] = _FILLER
        best_d, best_i = batch_top_k(cand_d, cand_i, k)
        filler = best_i == _FILLER
        best_d[filler] = np.inf
        best_i[filler] = -1
        return best_d, best_i

    # ------------------------------------------------------------------
    # Snapshot surface (see repro.index.snapshot)
    # ------------------------------------------------------------------
    def state(self):
        """``(arrays, meta)`` capturing the index for serialization.

        Inverted lists flatten into one vector block + one id block
        with per-cell offsets, so the payload is a handful of arrays
        regardless of ``nlist``.
        """
        if not self.is_trained:
            raise RuntimeError("cannot snapshot an untrained index")
        offsets = np.zeros(self.nlist + 1, dtype=np.int64)
        for cell in range(self.nlist):
            offsets[cell + 1] = offsets[cell] + len(self._list_ids[cell])
        arrays = {
            "centroids": self.centroids,
            "vectors": np.concatenate(self._list_vectors, axis=0),
            "ids": np.concatenate(self._list_ids),
            "offsets": offsets,
        }
        meta = {
            "kind": self.kind,
            "dim": self.dim,
            "metric": self.metric,
            "nlist": self.nlist,
            "nprobe": self.nprobe,
            "seed": self.seed,
            "kmeans_iters": self.kmeans_iters,
        }
        return arrays, meta

    @classmethod
    def from_state(cls, arrays, meta, registry=None) -> "IVFFlatIndex":
        """Rebuild an index captured by :meth:`state`."""
        index = cls(
            dim=int(meta["dim"]),
            nlist=int(meta["nlist"]),
            nprobe=int(meta["nprobe"]),
            metric=str(meta["metric"]),
            seed=int(meta["seed"]),
            kmeans_iters=int(meta["kmeans_iters"]),
            registry=registry,
        )
        index.centroids = np.asarray(arrays["centroids"], dtype=np.float64)
        offsets = np.asarray(arrays["offsets"], dtype=np.int64)
        vectors = np.asarray(arrays["vectors"], dtype=np.float64)
        ids = np.asarray(arrays["ids"], dtype=np.int64)
        index._list_vectors = [
            vectors[offsets[c] : offsets[c + 1]] for c in range(index.nlist)
        ]
        index._list_ids = [
            ids[offsets[c] : offsets[c + 1]] for c in range(index.nlist)
        ]
        index._set_ntotal(len(ids))
        return index
