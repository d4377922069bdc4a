"""Blocked exact nearest-neighbor search — the ground-truth baseline.

:class:`FlatIndex` answers k-NN queries against an in-memory vector
table by brute force, but never materializes the full query-by-base
distance matrix: the base table is scanned in fixed-size blocks and a
running top-k per query is merged block by block, so peak memory is
``O(num_queries * (k + block_size))`` regardless of table size.  That
bound is what lets :func:`repro.analysis.embeddings.knn_category_purity`
drop its O(N^2) pairwise matrix while returning the same answers.

Determinism contract (shared by every index in this package):

* distances are computed with one fixed formula per metric (a
  broadcast difference reduced over the coordinate axis), so two runs
  on the same inputs produce bit-identical floats — and the reduction
  never spans the base or the query axis, so blocking either one
  (:class:`FlatIndex` the base, :func:`pairwise_distances` the
  queries) cannot perturb them;
* ties are broken by ascending vector id — neighbor lists are sorted by
  ``(distance, id)`` (:func:`top_k`), never by partition order:
  :func:`batch_top_k`'s threshold keeps every tie at the k-th distance;
* the only stochastic choice anywhere downstream (k-means init) comes
  from an explicit seed.

Every search also counts its work: ``index.search.queries`` and
``index.search.distance_computations`` land in the instance's
:class:`~repro.obs.metrics.MetricsRegistry`, which is how the bench and
the IVF acceptance bar ("5x fewer distance computations than brute
force") are measured rather than guessed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Metrics an index can rank by.  ``l1`` matches TransE's energy (the
#: PKGM service space); ``l2`` is the conventional ANN benchmark metric.
METRICS = ("l1", "l2")

#: Elements of one query block's broadcast difference: 2^15 float64 =
#: 256 KiB stays in cache, where a whole k-means round's runs to 17 MB.
_BLOCK_ELEMENTS = 1 << 15


def pairwise_distances(
    queries: np.ndarray, base: np.ndarray, metric: str
) -> np.ndarray:
    """Exact (Q, B) distance matrix under ``metric``.

    One formula per metric, used by every index in the package, so Flat
    / IVF / IVF-PQ rankings are comparable bit-for-bit.  Both metrics
    reduce the broadcast difference over the coordinate axis only —
    never over the base or the query axis — so each (query, vector)
    distance is a fixed-length reduction whose result cannot depend on
    how either table was blocked (queries are taken a cache-sized block
    at a time).  (The BLAS-backed ``||q||^2 - 2 q.b + ||b||^2``
    expansion would be faster, but gemm's reduction order varies with
    operand shape, which would break blocked-search bit-invariance.)
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    power = np.abs if metric == "l1" else np.square
    out = np.empty((len(queries), len(base)), np.result_type(queries, base))
    step = max(1, _BLOCK_ELEMENTS // max(1, base.size))
    for start in range(0, len(queries), step):
        diff = queries[start : start + step, None, :] - base[None, :, :]
        power(diff, out=diff).sum(axis=2, out=out[start : start + step])
    return out if metric == "l1" else np.sqrt(out)


def top_k(
    distances: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k of one candidate row: ``(distances, ids)``.

    Candidates are ordered by ``(distance, id)`` — a total order, so
    equal distances can never reshuffle between runs.  Pads with
    ``(inf, -1)`` when fewer than ``k`` candidates exist.
    """
    order = np.lexsort((ids, distances))[:k]
    out_d = np.full(k, np.inf)
    out_i = np.full(k, -1, dtype=np.int64)
    out_d[: len(order)] = distances[order]
    out_i[: len(order)] = ids[order]
    return out_d, out_i


def batch_top_k(
    distances: np.ndarray, ids: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise deterministic top-k for (Q, C) candidate matrices.

    Equivalent to :func:`top_k` applied per row (``(distance, id)``
    order), but vectorized: a stable sort by id followed by a stable
    sort by distance realizes the lexicographic order without a Python
    loop.  Pad candidates — id ``-1`` at distance ``inf`` — sink to the
    end of every row, so callers can pre-pad freely.

    Rows wider than a few k are thresholded first: every candidate at
    or under the row's k-th smallest distance survives (ties straddling
    the k-th place are still broken by id), the rest are never sorted.
    """
    n_q, n_c = distances.shape
    if n_c < k:  # short rows pad to k columns, like top_k
        pad = ((0, 0), (0, k - n_c))
        distances = np.pad(distances, pad, constant_values=np.inf)
        ids = np.pad(np.broadcast_to(ids, (n_q, n_c)), pad, constant_values=-1)
    elif n_c > 4 * k:  # narrower (probe selection) is cheaper sorted whole
        kth = np.partition(distances, k - 1, axis=1)[:, k - 1 : k]
        rows, cols = np.nonzero(distances <= kth)
        starts = np.searchsorted(rows, np.arange(n_q + 1))
        slots = np.arange(len(rows)) - starts[rows]
        kept_d = np.full((n_q, int(np.diff(starts).max(initial=k))), np.inf)
        kept_i = np.full(kept_d.shape, -1, dtype=np.int64)
        kept_d[rows, slots] = distances[rows, cols]
        kept_i[rows, slots] = np.broadcast_to(ids, distances.shape)[rows, cols]
        distances, ids = kept_d, kept_i
    id_order = np.argsort(ids, axis=1, kind="stable")
    d_by_id = np.take_along_axis(distances, id_order, axis=1)
    rank = np.argsort(d_by_id, axis=1, kind="stable")[:, :k]
    order = np.take_along_axis(id_order, rank, axis=1)
    return (
        np.take_along_axis(distances, order, axis=1),
        np.take_along_axis(ids, order, axis=1),
    )


class FlatIndex:
    """Exact blocked k-NN over an explicit id-tagged vector table.

    ``add`` appends vectors (ids default to the running row count);
    ``search`` scans every vector but only ``block_size`` rows at a
    time, merging a per-query running top-k.  Being exact, this index
    doubles as the recall oracle for IVF / IVF-PQ.
    """

    kind = "flat"

    def __init__(
        self,
        dim: int,
        metric: str = "l2",
        block_size: int = 1024,
        registry=None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.dim = dim
        self.metric = metric
        self.block_size = block_size
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
        self._size_g = registry.gauge(
            "index.size", help="Vectors currently indexed"
        )
        self._vectors = np.empty((0, dim), dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @property
    def ntotal(self) -> int:
        """Number of vectors in the index."""
        return len(self._vectors)

    @property
    def bytes_per_vector(self) -> float:
        """Storage cost per vector (float64 coordinates + int64 id)."""
        return self.dim * 8 + 8

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> None:
        """Append ``vectors`` (and their ids) to the table."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected (N, {self.dim}) vectors, got {vectors.shape}"
            )
        if ids is None:
            ids = np.arange(
                self.ntotal, self.ntotal + len(vectors), dtype=np.int64
            )
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (len(vectors),):
                raise ValueError("ids must be one id per vector")
        self._vectors = np.concatenate([self._vectors, vectors], axis=0)
        self._ids = np.concatenate([self._ids, ids])
        self._size_g.set(self.ntotal)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact ``(distances, ids)`` of the k nearest vectors per query.

        Both outputs are (Q, k), nearest first; rows with fewer than
        ``k`` indexed vectors pad with ``(inf, -1)``.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ValueError(
                f"expected (Q, {self.dim}) queries, got {queries.shape}"
            )
        if k < 1:
            raise ValueError("k must be >= 1")
        n_q = len(queries)
        self._queries_c.inc(n_q)
        best_d = np.full((n_q, k), np.inf)
        best_i = np.full((n_q, k), -1, dtype=np.int64)
        for start in range(0, self.ntotal, self.block_size):
            block = self._vectors[start : start + self.block_size]
            block_ids = self._ids[start : start + self.block_size]
            distances = pairwise_distances(queries, block, self.metric)
            self._search_dc.inc(n_q * len(block))
            merged_d = np.concatenate([best_d, distances], axis=1)
            merged_i = np.concatenate(
                [best_i, np.broadcast_to(block_ids, (n_q, len(block_ids)))],
                axis=1,
            )
            best_d, best_i = batch_top_k(merged_d, merged_i, k)
        return best_d, best_i

    # ------------------------------------------------------------------
    # Snapshot surface (see repro.index.snapshot)
    # ------------------------------------------------------------------
    def state(self):
        """``(arrays, meta)`` capturing the index for serialization."""
        arrays = {"vectors": self._vectors, "ids": self._ids}
        meta = {
            "kind": self.kind,
            "dim": self.dim,
            "metric": self.metric,
            "block_size": self.block_size,
        }
        return arrays, meta

    @classmethod
    def from_state(cls, arrays, meta, registry=None) -> "FlatIndex":
        """Rebuild an index captured by :meth:`state`."""
        index = cls(
            dim=int(meta["dim"]),
            metric=str(meta["metric"]),
            block_size=int(meta["block_size"]),
            registry=registry,
        )
        index.add(arrays["vectors"], arrays["ids"])
        return index
