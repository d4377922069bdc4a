"""Blocked exact nearest-neighbor search — the ground-truth baseline.

:class:`FlatIndex` answers k-NN queries against an in-memory vector
table by brute force, but never materializes the full query-by-base
distance matrix.  The table is held coordinate-major — one ``(d, N)``
array, row ``j`` the ``j``-th coordinate of every vector — and scanned
in column blocks a few thousand vectors wide, eight coordinates at a
time, every step one ufunc call over whole contiguous rows; the
distances of at most ``_MERGE_ELEMENTS`` (query, vector) pairs are then
ranked by one :func:`batch_top_k` merge into a running top-k per query.
Peak memory is ``O(num_queries * k + _MERGE_ELEMENTS)`` whatever the
table size (``block_size``, the rows-per-merge floor, raises it to
``queries-per-merge * block_size``).  That bound is what lets
:func:`repro.analysis.embeddings.knn_category_purity` drop its O(N^2)
pairwise matrix while returning the same answers.

Determinism contract (shared by every index in this package):

* a distance is ``sum_j |q_j - x_j|`` (L1) or the square root of
  ``sum_j (q_j - x_j)^2`` (L2) with the ``d`` terms added in **one
  fixed order**: the order ``ndarray.sum`` adds a contiguous last axis
  (numpy's pairwise sum — eight running lanes over the whole groups of
  8, joined ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, the
  ``d % 8`` remaining terms last, halves above 128 terms).
  :func:`pairwise_distances` gets it from ``sum`` itself on row-major
  operands; :func:`_scan_block` spells it out over coordinate-major
  rows.  Same terms, same order, same bits — so two runs on the same
  inputs agree, Flat and IVF agree, and because the reduction never
  spans the base or the query axis, blocking either one cannot perturb
  a float;
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

#: Fewest columns (vectors) of one :meth:`FlatIndex.search` scan block:
#: a run of the table is cut into equal blocks of this many to twice as
#: many.  Rows longer than a third of numpy's 8,192-element iterator
#: buffer are computed in place — shorter ones are copied into the
#: buffer first, three times the cost per element — and at under 6,144
#: columns the two 8-lane scratch arrays (384 KiB each) and eight
#: coordinates of the block share an L2 cache whatever ``dim`` is.
_SCAN_WIDTH = 3072

#: Distances one :func:`batch_top_k` merge ranks (1 MiB of float64);
#: the scratch that grows with the table or the query count stops here.
_MERGE_ELEMENTS = 1 << 17


def pairwise_distances(
    queries: np.ndarray, base: np.ndarray, metric: str
) -> np.ndarray:
    """Exact (Q, B) distance matrix under ``metric``.

    One formula per metric, used by every index in the package, so Flat
    and IVF rankings are comparable bit-for-bit.  Both metrics
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


def paired_distances(
    queries: np.ndarray,
    base: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    metric: str,
) -> np.ndarray:
    """``pairwise_distances(queries, base, metric)[rows, cols]``, bit for bit.

    Only the listed (query, vector) pairs are evaluated: each pair's
    difference is gathered into one contiguous row and reduced over the
    coordinate axis, the reduction :func:`pairwise_distances` makes, so
    every distance has the bits it has in the full matrix.
    """
    power = np.abs if metric == "l1" else np.square
    out = np.empty(len(rows), np.result_type(queries, base))
    step = max(1, _MERGE_ELEMENTS // max(1, queries.shape[1]))
    for start in range(0, len(rows), step):
        diff = queries[rows[start : start + step]]
        diff -= base[cols[start : start + step]]
        power(diff, out=diff).sum(axis=1, out=out[start : start + step])
    return out if metric == "l1" else np.sqrt(out)


def _scan_block(query, block, power, scratch, out) -> np.ndarray:
    """``sum_j power(query[j] - block[j])`` for every column of ``block``.

    ``block`` is ``(n, W)`` coordinate-major, ``query`` ``(n, 1)``,
    ``scratch`` ``(2, 8, W)`` and ``out`` ``(W,)``.  Column ``w`` gets the
    bits of ``power(query[:, 0] - block[:, w]).sum()``: the terms are
    added in the module docstring's order — halves above 128 terms,
    eight lanes and their pairing tree, the ``n % 8`` remaining terms
    one by one (all of them, from 0.0, when ``n < 8``) — each step one
    ufunc call over whole rows of ``W`` columns.
    """
    n = len(block)
    if n > 128:
        half = n // 2 - n // 2 % 8
        _scan_block(query[:half], block[:half], power, scratch, out)
        out += _scan_block(
            query[half:], block[half:], power, scratch, np.empty_like(out)
        )
        return out
    lanes, terms = scratch
    whole = n - n % 8
    for start in range(0, whole, 8):
        slab = terms if start else lanes
        np.subtract(query[start : start + 8], block[start : start + 8], out=slab)
        power(slab, out=slab)
        if start:
            lanes += terms
    if whole:
        lanes[0::2] += lanes[1::2]
        lanes[0::4] += lanes[2::4]
        np.add(lanes[0], lanes[4], out=out)
    else:
        out[...] = 0.0
    if n > whole:
        rest = terms[: n - whole]
        np.subtract(query[whole:], block[whole:], out=rest)
        for row in power(rest, out=rest):
            out += row
    return out


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
    ids = np.broadcast_to(ids, distances.shape)  # one shared id row is fine
    if n_c < k:  # short rows pad to k columns, like top_k
        pad = ((0, 0), (0, k - n_c))
        distances = np.pad(distances, pad, constant_values=np.inf)
        ids = np.pad(ids, pad, constant_values=-1)
    elif n_c > 4 * k:  # narrower (probe selection) is cheaper sorted whole
        kth = np.partition(distances, k - 1, axis=1)[:, k - 1 : k]
        rows, cols = np.nonzero(distances <= kth)
        starts = np.searchsorted(rows, np.arange(n_q + 1))
        slots = np.arange(len(rows)) - starts[rows]
        kept_d = np.full((n_q, int(np.diff(starts).max(initial=k))), np.inf)
        kept_i = np.full(kept_d.shape, -1, dtype=np.int64)
        kept_d[rows, slots] = distances[rows, cols]
        kept_i[rows, slots] = ids[rows, cols]
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

    ``add`` appends vectors (ids default to the running row count) to
    the one coordinate-major table; ``search`` scans every vector, a
    column block at a time, and merges a per-query running top-k once
    per ``_MERGE_ELEMENTS`` distances — ``block_size`` is the fewest
    rows a merge takes, not a scan width.  Being exact, this index
    doubles as the recall oracle for IVF.
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
        # Coordinate-major, the only copy: row j is coordinate j of every
        # vector, so a scan block is ``dim`` contiguous runs.
        self._columns = np.empty((dim, 0), dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @property
    def ntotal(self) -> int:
        """Number of vectors in the index."""
        return len(self._ids)

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
        # Filled in place (``concatenate`` would keep the transposed
        # input's row-major memory when the table starts empty), a
        # cache-sized run of rows at a time: one transposing copy of the
        # whole input re-reads each of its cache lines for every
        # coordinate they hold.
        columns = np.empty((self.dim, self.ntotal + len(vectors)))
        columns[:, : self.ntotal] = self._columns
        added = columns[:, self.ntotal :]
        step = max(1, _BLOCK_ELEMENTS // self.dim)
        for start in range(0, len(vectors), step):
            added[:, start : start + step] = vectors[start : start + step].T
        self._columns = columns
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
        self._search_dc.inc(n_q * self.ntotal)
        # Few enough queries at a time that a merge of full-width scan
        # blocks stays within the budget; ``block_size`` is a floor.
        group = max(1, min(n_q, _MERGE_ELEMENTS // _SCAN_WIDTH))
        rows = max(self.block_size, _MERGE_ELEMENTS // group)
        best_d = np.empty((n_q, k))
        best_i = np.empty((n_q, k), dtype=np.int64)
        for first in range(0, n_q, group):
            part = slice(first, first + group)
            best_d[part], best_i[part] = self._nearest(queries[part], k, rows)
        return best_d, best_i

    def _nearest(self, queries, k, rows):
        """:meth:`search` for one group of queries, ``rows`` per merge."""
        n_q = len(queries)
        power = np.abs if self.metric == "l1" else np.square
        best_d = np.full((n_q, k), np.inf)
        best_i = np.full((n_q, k), -1, dtype=np.int64)
        for start in range(0, self.ntotal, rows):
            ids = self._ids[start : start + rows]
            distances = np.empty((n_q, len(ids)))
            # Equal blocks, none narrower than the scan width if it can
            # be helped: a short tail would cost as much as a full one.
            blocks = max(1, len(ids) // _SCAN_WIDTH)
            width = -(-len(ids) // blocks)
            scratch = np.empty((2, 8, width))
            for low in range(0, len(ids), width):
                high = min(low + width, len(ids))
                block = self._columns[:, start + low : start + high]
                spare = scratch[:, :, : high - low]
                # Queries innermost: the block is read from memory once.
                for query, row in zip(queries[:, :, None], distances):
                    _scan_block(query, block, power, spare, row[low:high])
            if self.metric == "l2":
                np.sqrt(distances, out=distances)
            best_d, best_i = batch_top_k(
                np.concatenate([best_d, distances], axis=1),
                np.concatenate(
                    [best_i, np.broadcast_to(ids, distances.shape)], axis=1
                ),
                k,
            )
        return best_d, best_i

    # ------------------------------------------------------------------
    # Snapshot surface (see repro.index.snapshot)
    # ------------------------------------------------------------------
    def state(self):
        """``(arrays, meta)`` capturing the index for serialization."""
        # Snapshots stay row-major, whatever the scan keeps in memory.
        arrays = {
            "vectors": np.ascontiguousarray(self._columns.T),
            "ids": self._ids,
        }
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
