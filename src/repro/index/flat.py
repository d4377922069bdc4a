"""Exact nearest-neighbor search through a float32 screen — the ground truth.

:class:`FlatIndex` answers k-NN queries against an in-memory vector
table by brute force, but ranks only the vectors a proven error bound
cannot rule out.  It holds the table twice: the float64 vectors
row-major, in the snapshot layout, and a coordinate-major float32 copy
— one ``(d, N)`` array, row ``j`` the ``j``-th coordinate of every
vector, 4 more bytes per coordinate — that the screen reads.

For each query and each chunk of ``_SCREEN_WIDTH`` to twice as many
vectors, ``search`` computes every vector's float32 *screen*: the L1
distance, or the *squared* L2 distance, of the float32 query and
vector, its ``d`` terms added in whatever order numpy picks.  Each
screen ``S`` lies within ``E`` of its vector's exact float64 distance
``D`` (squared, for L2), so a vector can be among the k nearest only
when ``S <= s_k + 2E``, where ``s_k`` is the chunk's k-th smallest
screen (k vectors have ``D <= s_k + E``), and ``S <= T + E``, where
``T`` is the k-th smallest exact distance found in earlier chunks
(``T**2`` for L2).  Every vector that passes both — and every screen
that is NaN or ±inf — is rescored by :func:`paired_distances`, which
gives the bits :func:`pairwise_distances` gives, and merged into the
query's running top-k by ``(distance, id)``; the thresholds are
computed in float64 and rounded up to float32 before comparing.
Memory is ``O(num_queries * k + _SCREEN_WIDTH * d)`` whatever the
table size.  That bound is what lets
:func:`repro.analysis.embeddings.knn_category_purity` drop its O(N^2)
pairwise matrix while returning the same answers.

The bound, with ``u = 2**-24`` (float32's unit roundoff) and every
coordinate of the query and of the table finite and either zero or of
magnitude in ``[2**-60, 2**60]``, ``d <= 2**20``:

* rounding ``q_j`` and ``x_j`` to float32 moves each by at most
  ``u |q_j|`` and ``u |x_j|`` (both stay normal), and the float32
  subtraction adds ``u`` of its result (exact when subnormal), so each
  term ``t_j`` is within ``δ a_j`` of ``e_j = q_j - x_j``, where
  ``a_j = |q_j| + |x_j|`` and ``δ = 2u + u**2``;
* a float32 sum of ``d`` non-negative terms in any order is within
  ``γ = (d - 1) u / (1 - (d - 1) u) <= 1.07 (d - 1) u`` of the
  terms' sum, and the float64 distance (squared, for L2) is within a
  relative ``d 2**-51`` of the true one;
* **L1**: ``|S - D| <= (γ (1 + δ) + δ + d 2**-51) Σ a_j <= 3 d u R``
  with ``R = ||q||_1 + max ||x||_1``.  The index uses
  ``E = 4 d u R``;
* **squared L2**: ``|t_j**2 - e_j**2| <= δ (2 + δ) a_j**2``, squaring
  in float32 adds ``u t_j**2`` and at most ``2**-150`` on underflow,
  and ``Σ a_j**2 <= R**2`` with ``R = ||q||_2 + max ||x||_2``
  (Minkowski), so ``|S - D**2| <= (γ (1 + u)(1 + δ)**2 + 5.01 u
  + d 2**-51) R**2 + d 2**-150 <= 6 d u R**2 + d 2**-150``.  A pair
  with a nonzero coordinate has ``R**2 >= 2**-120``, so the underflow
  term is at most ``d u R**2 / 64`` (an all-zero pair screens exactly
  0).  The index uses ``E = 8 d u R**2``;
* the extra ``d u R`` (L1) and ``2 d u R**2`` (L2) cover the float64
  rounding of the norms, of ``E`` and of the thresholds, the underflow
  term, and the square root that turns ``D**2`` into the served ``D``
  (a relative ``2**-51``, on values at most ``R**2``).

A float32 sum that overflows is +inf and always survives.  Outside
that range — a non-finite coordinate, a nonzero magnitude past
``2**±60`` — the bound does not hold, so a query or table with one
skips the screen and rescores every vector, as k-means' ``bounded``
rule does.

Determinism contract (shared by every index in this package):

* a distance is ``sum_j |q_j - x_j|`` (L1) or the square root of
  ``sum_j (q_j - x_j)^2`` (L2) with the ``d`` terms added in one fixed
  order: the order ``np.add.reduce`` adds a contiguous last axis, which
  :func:`reduce_terms` applies to row-major operands for
  :func:`pairwise_distances`, :func:`paired_distances` and the IVF scan.  Because the reduction never spans the base or
  the query axis, blocking either one cannot perturb a float, so two
  runs on the same inputs agree and Flat and IVF agree;
* ties are broken by ascending vector id — neighbor lists are sorted by
  ``(distance, id)`` (:func:`top_k`), never by partition order, and NaN
  ranks after every number: :func:`batch_top_k`'s threshold and the
  screen both keep every tie at the k-th distance;
* the only stochastic choice anywhere downstream (k-means init) comes
  from an explicit seed.

Every search also counts its work: ``index.search.queries`` and
``index.search.distance_computations`` (every vector is screened, so
Q·N) land in the instance's :class:`~repro.obs.metrics.MetricsRegistry`,
which is how the bench and the IVF acceptance bar ("5x fewer distance
computations than brute force") are measured rather than guessed.
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

#: Fewest vectors of one :meth:`FlatIndex.search` screen chunk: the
#: table is cut into equal chunks of this many to twice as many, so a
#: short tail never costs a chunk's fixed work on its own.
_SCREEN_WIDTH = 8192

#: Elements one :func:`paired_distances` step gathers (1 MiB of float64).
_GATHER_ELEMENTS = 1 << 17

#: Coordinates and dimensions inside which the screen's bound holds.
_SCALE = 2.0**60
_MAX_DIM = 1 << 20
_FLOAT32_MAX = float(np.finfo(np.float32).max)

#: ``c`` in the screen bound ``E = c d 2**-24 R`` (L1) or ``R**2`` (L2).
_SLACK = {"l1": 4.0, "l2": 8.0}


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
    out = np.empty((len(queries), len(base)), np.result_type(queries, base))
    step = max(1, _BLOCK_ELEMENTS // max(1, base.size))
    for start in range(0, len(queries), step):
        diff = queries[start : start + step, None, :] - base[None, :, :]
        reduce_terms(diff, metric, out[start : start + step])
    return out if metric == "l1" else np.sqrt(out)


def reduce_terms(diff: np.ndarray, metric: str, out: np.ndarray) -> np.ndarray:
    """Sum each row of ``|diff|`` (L1) or ``diff**2`` (L2) into ``out``:
    the one reduction of every exact distance, formed in place in
    ``diff`` (coordinates last) and added over that axis only.  The L2
    square root is the caller's."""
    power = np.abs if metric == "l1" else np.square
    return np.add.reduce(power(diff, out=diff), axis=-1, out=out)


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
    out = np.empty(len(rows), np.result_type(queries, base))
    step = max(1, _GATHER_ELEMENTS // max(1, queries.shape[1]))
    for start in range(0, len(rows), step):
        diff = queries[rows[start : start + step]]
        diff -= base[cols[start : start + step]]
        reduce_terms(diff, metric, out[start : start + step])
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
    order, NaN after every number), but vectorized: a stable sort by id
    followed by a stable sort by distance realizes the lexicographic
    order without a Python loop.  Pad candidates — id ``-1`` at distance
    ``inf`` — sink below every finite distance, so callers can pre-pad
    freely; rows shorter than ``k`` are padded after ranking, as
    :func:`top_k` pads.

    Rows wider than a few k are thresholded first: every candidate at
    or under the row's k-th smallest distance survives (ties straddling
    the k-th place are still broken by id; a row whose k-th distance is
    NaN keeps everything), the rest are never sorted.
    """
    n_q, n_c = distances.shape
    ids = np.broadcast_to(ids, distances.shape)  # one shared id row is fine
    if n_c > 4 * k:  # narrower (probe selection) is cheaper sorted whole
        kth = np.partition(distances, k - 1, axis=1)[:, k - 1 : k]
        kept = distances <= kth
        kept[np.isnan(kth[:, 0])] = True
        rows, cols = np.nonzero(kept)
        starts = np.searchsorted(rows, np.arange(n_q + 1))
        slots = np.arange(len(rows)) - starts[rows]
        # NaN fillers rank after every kept candidate, and a row keeps
        # at least k of those, so no filler reaches the output.
        kept_d = np.full((n_q, int(np.diff(starts).max(initial=k))), np.nan)
        kept_i = np.full(kept_d.shape, -1, dtype=np.int64)
        kept_d[rows, slots] = distances[rows, cols]
        kept_i[rows, slots] = ids[rows, cols]
        distances, ids = kept_d, kept_i
    id_order = np.argsort(ids, axis=1, kind="stable")
    d_by_id = np.take_along_axis(distances, id_order, axis=1)
    rank = np.argsort(d_by_id, axis=1, kind="stable")[:, :k]
    order = np.take_along_axis(id_order, rank, axis=1)
    best_d = np.take_along_axis(distances, order, axis=1)
    best_i = np.take_along_axis(ids, order, axis=1)
    if n_c < k:
        pad = ((0, 0), (0, k - n_c))
        best_d = np.pad(best_d, pad, constant_values=np.inf)
        best_i = np.pad(best_i, pad, constant_values=-1)
    return best_d, best_i


def _in_range(magnitude: np.ndarray, axis=None) -> np.ndarray:
    """Whether every coordinate's magnitude (of each row, with ``axis=1``)
    is finite and either zero or within ``2**±60``."""
    largest = magnitude.max(axis=axis, initial=0.0)
    smallest = magnitude.min(axis=axis, where=magnitude > 0, initial=_SCALE)
    return (largest <= _SCALE) & (smallest >= 1 / _SCALE)


def _round_up32(value: float) -> np.float32:
    """The least float32 at or above ``value`` (NaN stays NaN)."""
    rounded = np.float32(min(value, _FLOAT32_MAX))
    if float(rounded) < value:
        rounded = np.nextafter(rounded, np.float32(np.inf))
    return rounded


def _not_above(screens: np.ndarray, limit: float) -> np.ndarray:
    """Positions of the screens not provably above ``limit``; a NaN or
    infinite screen proves nothing."""
    above = screens > _round_up32(limit)
    above &= screens < np.inf
    return np.flatnonzero(~above)


class FlatIndex:
    """Exact k-NN over an explicit id-tagged vector table.

    ``add`` appends vectors (ids default to the running row count) to
    the float64 table and its float32 screen copy; ``search`` screens
    every vector a chunk at a time and ranks the survivors' exact
    distances (see the module docstring).  ``block_size`` does not shape
    the search; it stays in the constructor and the snapshot meta so
    callers and snapshot bytes are unchanged.  Being exact, this index
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
        self._vectors = np.empty((0, dim), dtype=np.float64)
        # Coordinate-major: row j is coordinate j of every vector, so a
        # screen chunk is ``dim`` contiguous runs.
        self._screens = np.empty((dim, 0), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)
        # Whether every vector is inside the bound's range, and the
        # largest norm (L1 or L2, as the metric) the bound is scaled by.
        self._bounded = dim <= _MAX_DIM
        self._reach = 0.0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @property
    def ntotal(self) -> int:
        """Number of vectors in the index."""
        return len(self._ids)

    @property
    def bytes_per_vector(self) -> float:
        """Storage cost per vector: float64 row, float32 screen row, id."""
        return self.dim * 12 + 8

    def _norms(self, magnitude: np.ndarray) -> np.ndarray:
        """Each row's norm under the metric, from its ``abs``."""
        if self.metric == "l1":
            return magnitude.sum(axis=1)
        return np.sqrt(np.square(magnitude).sum(axis=1))

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
        # Filled a cache-sized run of rows at a time: one transposing
        # copy of the whole input re-reads each of its cache lines for
        # every coordinate they hold.
        screens = np.empty((self.dim, self.ntotal + len(vectors)), np.float32)
        screens[:, : self.ntotal] = self._screens
        added = screens[:, self.ntotal :]
        step = max(1, _BLOCK_ELEMENTS // self.dim)
        with np.errstate(over="ignore"):  # out of range: never screened
            for start in range(0, len(vectors), step):
                rows = vectors[start : start + step]
                added[:, start : start + step] = rows.T
                if self._bounded:
                    magnitude = np.abs(rows)
                    self._bounded = bool(_in_range(magnitude))
                    self._reach = max(self._reach, self._norms(magnitude).max())
        self._screens = screens
        self._vectors = np.concatenate([self._vectors, vectors])
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
        magnitude = np.abs(queries)
        screened = self._bounded & _in_range(magnitude, axis=1)
        best = [(np.empty(0), np.empty(0, dtype=np.int64))] * n_q
        # Equal chunks, none narrower than the screen width if it can be
        # helped: a short tail would cost a chunk's fixed work.
        chunks = max(1, self.ntotal // _SCREEN_WIDTH)
        width = max(1, -(-self.ntotal // chunks))
        scratch = np.empty((2, 8, width), dtype=np.float32)
        # Overflow only reaches queries that are never screened, and
        # screens that overflow to +inf, which always survive.
        with np.errstate(over="ignore"):
            reach = self._norms(magnitude) + self._reach
            slack = _SLACK[self.metric] * self.dim * 2.0**-24 * (
                reach if self.metric == "l1" else reach * reach
            )
            columns = queries.astype(np.float32)[:, :, None]
            for low in range(0, self.ntotal, width):
                block = self._screens[:, low : low + width]
                lanes = scratch[:, :, : block.shape[1]]
                # Queries innermost: the chunk is read from memory once.
                for row in range(n_q):
                    if screened[row]:
                        screens = self._screen(columns[row], block, lanes)
                        keep = self._survivors(screens, best[row][0], k, slack[row])
                    else:
                        keep = np.arange(block.shape[1])
                    if len(keep):
                        best[row] = self._merge(queries[row], best[row], low + keep, k)
        out_d = np.full((n_q, k), np.inf)
        out_i = np.full((n_q, k), -1, dtype=np.int64)
        for row, (distances, ids) in enumerate(best):
            out_d[row, : len(distances)] = distances
            out_i[row, : len(ids)] = ids
        return out_d, out_i

    def _screen(self, column, block, lanes) -> np.ndarray:
        """Every float32 screen of one chunk: L1, or squared L2.

        Eight coordinates at a time into ``lanes`` (``(2, 8, width)``
        scratch), so the scratch stays in cache whatever ``dim`` is.
        """
        power = np.abs if self.metric == "l1" else np.square
        total, part = lanes[0, : len(block[:8])], lanes[1]
        np.subtract(block[:8], column[:8], out=total)
        power(total, out=total)
        for start in range(8, self.dim, 8):
            rows = part[: len(block[start : start + 8])]
            np.subtract(block[start : start + 8], column[start : start + 8], out=rows)
            total[: len(rows)] += power(rows, out=rows)
        return np.add.reduce(total, axis=0)

    def _survivors(self, screens, best_d, k, slack) -> np.ndarray:
        """Positions in the chunk that may hold one of the k nearest."""
        limit = np.inf
        if len(best_d) == k:  # the running k-th exact distance
            limit = best_d[-1] if self.metric == "l1" else best_d[-1] ** 2
            limit += slack
        if len(screens) > k:  # the chunk's own k-th screen
            kth = np.partition(screens, k - 1)[k - 1]
            limit = min(limit, float(kth) + 2 * slack)
        if limit < np.inf:
            return _not_above(screens, limit)
        return np.arange(len(screens))

    def _merge(self, query, best, cols, k):
        """Rescore ``cols`` exactly and merge them into ``best``."""
        exact = paired_distances(
            query[None], self._vectors, np.zeros(len(cols), np.intp), cols, self.metric
        )
        distances = np.concatenate([best[0], exact])
        ids = np.concatenate([best[1], self._ids[cols]])
        order = np.lexsort((ids, distances))[:k]
        return distances[order], ids[order]

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
