"""Seeded exact k-means: Lloyd's rounds, Elkan's bounds.

The coarse quantizer behind IVF is k-means, and it inherits this
module's determinism guarantees:

* **init** — centroids start from ``k`` distinct rows drawn by an
  explicit ``np.random.default_rng(seed)`` permutation; no wall clock,
  no global RNG (lint rule R001 covers this package);
* **assignment** — each point goes to its nearest centroid under the
  index's metric; ``argmin`` resolves distance ties to the lowest
  centroid id;
* **empty clusters** — an emptied centroid is re-seeded on the point
  currently *farthest* from its assigned centroid (ties broken by
  lowest point id), a deterministic split-the-worst-cluster rule;
* **update** — centroid = arithmetic mean of members for L2, the
  coordinate-wise *median* for L1 (the actual minimizer of summed L1
  distance);
* **stop** — when assignments reach a fixed point, or after ``iters``
  rounds.

Every round assigns exactly as Lloyd's algorithm over the full
point-by-centroid distance matrix would, but evaluates only the
distances it cannot bound (Elkan, "Using the Triangle Inequality to
Accelerate k-Means", ICML 2003).  Each point keeps an upper bound on
the distance to its nearest centroid and a lower bound on the distance
to every centroid; when a centroid moves by ``s``, its lower bounds
drop by ``s`` and its points' upper bounds rise by ``s``, each also
moved by a relative margin of ``1e-9`` of its operands.  A centroid
is skipped for a point only when a bound — its lower bound, or the
centroid-to-centroid distance less the upper bound — exceeds the
upper bound by that margin, which is far wider than any rounding in a
distance of ``d`` terms: a skipped centroid is strictly farther than
the nearest, so a tie is always evaluated.  Evaluated distances come
from :func:`~repro.index.flat.paired_distances`, with the bits of the
full matrix, so ``argmin``'s lowest-id rule and the empty-cluster
repair see exactly Lloyd's values.  The margin covers rounding only
when no term of a distance overflows or underflows; vectors with a
non-finite coordinate or a magnitude outside ``2**±200`` get the full
matrix every round.

The update sorts the points by cluster once (stable, so each
cluster's members keep ascending point ids) and recomputes only the
clusters whose membership changed — the others would get the same
bytes back.  L2 takes ``mean(axis=0)`` over each cluster's contiguous
slice.  L1 sorts the members of all changed clusters at once along a
NaN-padded member axis and reads the middle: ``x + 0.0`` for an odd
count, ``(lo + hi + 0.0) / 2`` for an even one, NaN wherever the
column holds a NaN.  That is ``np.median``'s value byte for byte: its
last step is a ``mean`` of the middle one or two values, which turns
``-0.0`` into ``+0.0``, and ``+ 0.0`` does the same.

Two calls with identical inputs therefore return bit-identical
centroids, which is what makes IVF snapshots byte-identical
across same-seed builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flat import METRICS, paired_distances, pairwise_distances

#: Relative slack of every bound test and every bound move.
_MARGIN = 1e-9

#: Vectors whose nonzero magnitudes lie within ``[1 / _SCALE, _SCALE]``
#: can neither overflow nor underflow a distance term, so the margin
#: covers every rounding error and the bounds apply.
_SCALE = 2.0**200


@dataclass(frozen=True)
class KMeansResult:
    """Output of one :func:`kmeans` run.

    ``centroids`` is (k, d); ``assignments`` is (N,) centroid ids;
    ``inertia`` is the summed point-to-centroid distance under the
    training metric; ``iterations`` counts completed Lloyd rounds.
    ``nearest`` is (N,) each point's nearest final centroid (lowest id
    on ties, no empty-cluster repair) — where ``IVFFlatIndex.add``
    would file it; ``distance_computations`` counts the distances
    evaluated, centroid-to-centroid ones included.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int
    nearest: np.ndarray
    distance_computations: int


def kmeans(
    vectors: np.ndarray,
    k: int,
    metric: str = "l2",
    iters: int = 25,
    seed: int = 0,
) -> KMeansResult:
    """Lloyd's algorithm, fully deterministic given ``(inputs, seed)``.

    Requires ``1 <= k <= len(vectors)``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError(f"expected (N, d) vectors, got {vectors.shape}")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(vectors):
        raise ValueError(f"k={k} exceeds the {len(vectors)} training vectors")
    if iters < 1:
        raise ValueError("iters must be >= 1")

    rng = np.random.default_rng(seed)
    bounds = _Bounds(vectors, vectors[rng.permutation(len(vectors))[:k]], metric)
    assignments = np.full(len(vectors), -1, dtype=np.int64)
    iterations = 0
    for _ in range(iters):
        new_assignments = bounds.nearest.copy()
        if np.bincount(new_assignments, minlength=k).min() == 0:
            new_assignments = _fix_empty_clusters(
                new_assignments, bounds.distances_to(new_assignments), k
            )
        iterations += 1
        if np.array_equal(new_assignments, assignments):
            break
        moved = new_assignments != assignments
        changed = np.isin(
            np.arange(k), np.concatenate([assignments[moved], new_assignments[moved]])
        )
        assignments = new_assignments
        bounds.move(_update_centroids(vectors, assignments, bounds.centroids, changed, metric))
    return KMeansResult(
        centroids=bounds.centroids,
        assignments=assignments,
        inertia=float(bounds.distances_to(assignments).sum()),
        iterations=iterations,
        nearest=bounds.nearest,
        distance_computations=bounds.evaluated,
    )


class _Bounds:
    """Every point's nearest centroid, kept exact by Elkan's bounds.

    ``lower`` (N, k) bounds each point-to-centroid distance from below,
    ``upper`` (N,) each point's distance to ``nearest`` from above;
    where ``tight``, ``exact`` holds that distance's bits.
    """

    def __init__(self, vectors: np.ndarray, centroids: np.ndarray, metric: str) -> None:
        self.vectors, self.metric = vectors, metric
        magnitude = np.abs(vectors)
        self.bounded = bool(
            magnitude.max(initial=0.0) <= _SCALE
            and magnitude[magnitude > 0].min(initial=_SCALE) >= 1 / _SCALE
        )
        self.evaluated = 0
        self._evaluate_all(centroids)

    def _evaluate_all(self, centroids: np.ndarray) -> None:
        """A Lloyd round: the full distance matrix and its ``argmin``."""
        self.centroids = centroids
        self.lower = pairwise_distances(self.vectors, centroids, self.metric)
        self.evaluated += self.lower.size
        self.nearest = np.argmin(self.lower, axis=1)
        self.exact = self.lower[np.arange(len(self.lower)), self.nearest]
        self.upper = self.exact.copy()
        self.tight = np.ones(len(self.lower), dtype=bool)

    def _pairs(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        self.evaluated += len(rows)
        return paired_distances(self.vectors, self.centroids, rows, cols, self.metric)

    def distances_to(self, assignments: np.ndarray) -> np.ndarray:
        """(N,) the exact distance from each point to its assigned centroid."""
        out = self.exact.copy()
        rest = np.flatnonzero(~(self.tight & (assignments == self.nearest)))
        out[rest] = self._pairs(rest, assignments[rest])
        return out

    def move(self, centroids: np.ndarray) -> None:
        """Move the centroids, loosen the bounds, re-find every nearest."""
        if not self.bounded:
            return self._evaluate_all(centroids)
        changed = np.flatnonzero((centroids != self.centroids).any(axis=1))
        shift = np.zeros(len(centroids))
        self.evaluated += len(changed)
        shift[changed] = paired_distances(
            self.centroids, centroids, changed, changed, self.metric
        )
        self.centroids = centroids
        slack = 1.0 + 2 * _MARGIN
        np.maximum(self.lower, 0.0, out=self.lower)
        self.lower *= 1.0 - 2 * _MARGIN
        self.lower -= shift * slack
        drift = shift[self.nearest]
        self.tight &= drift == 0.0
        self.upper = np.where(self.tight, self.exact, (self.upper + drift) * slack)
        self._assign()

    def _assign(self) -> None:
        """Elkan's assignment step over the pairs no bound decides."""
        separation = pairwise_distances(self.centroids, self.centroids, self.metric)
        self.evaluated += separation.size
        separation *= 1.0 - _MARGIN
        np.fill_diagonal(separation, np.inf)
        # A point at most half the way to its centroid's nearest other
        # centroid is nearer its own than any other.
        reach = self.upper * (1.0 + _MARGIN)
        look = np.flatnonzero(separation.min(axis=1)[self.nearest] <= 2 * reach)
        near = self.nearest[look]
        keep = _open(self.lower[look], separation[near], reach[look]).any(axis=1)
        look, near = look[keep], near[keep]
        # Tighten the upper bounds that could not close every centroid.
        loose = look[~self.tight[look]]
        self.exact[loose] = self._pairs(loose, self.nearest[loose])
        self.lower[look, near] = self.exact[look]
        open_ = _open(
            self.lower[look], separation[near], self.exact[look] * (1.0 + _MARGIN)
        )
        rows, cols = np.nonzero(open_)
        found = self._pairs(look[rows], cols)
        self.lower[look[rows], cols] = found
        work = np.full(open_.shape, np.inf)
        work[rows, cols] = found
        work[np.arange(len(look)), near] = self.exact[look]
        best = np.argmin(work, axis=1)
        self.nearest[look] = best
        self.exact[look] = self.upper[look] = work[np.arange(len(look)), best]
        self.tight[look] = True


def _open(lower: np.ndarray, separation: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Which centroids no bound rules out, one row per point.

    A centroid is ruled out when its lower bound or its distance to the
    point's own centroid less ``reach`` exceeds ``reach``, the point's
    upper bound with the margin; ``separation``'s diagonal is inf, so
    the point's own centroid is never open.
    """
    reach = reach[:, None]
    return (lower <= reach) & (separation <= 2 * reach)


def _update_centroids(
    vectors: np.ndarray,
    assignments: np.ndarray,
    centroids: np.ndarray,
    changed: np.ndarray,
    metric: str,
) -> np.ndarray:
    """New centroids: the ``changed`` (k,) mask's recomputed, the rest kept.

    Every cluster is non-empty.  Members are grouped by one stable sort,
    so each cluster's members keep ascending point ids.  The L1 sort
    pads every changed cluster to the largest one's count.
    """
    centroids = centroids.copy()
    order = np.argsort(assignments, kind="stable")
    order = order[changed[assignments[order]]]
    counts = np.bincount(assignments, minlength=len(centroids))[changed]
    clusters = np.flatnonzero(changed)
    members = vectors[order]
    if metric == "l2":
        starts = np.cumsum(counts) - counts
        for cluster, start, count in zip(clusters.tolist(), starts.tolist(), counts.tolist()):
            centroids[cluster] = members[start : start + count].mean(axis=0)
        return centroids
    slot = np.repeat(np.arange(len(clusters)), counts)
    rank = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    padded = np.full((len(clusters), vectors.shape[1], counts.max()), np.nan)
    padded.transpose(0, 2, 1)[slot, rank] = members
    padded.sort(axis=2)  # NaN last: padding and any NaN member alike
    index = np.arange(len(clusters))
    median = padded[index, :, counts // 2] + 0.0
    even = counts % 2 == 0
    # (lo + hi + 0.0) / 2: the +0.0 gives the same bits first or last.
    lo = padded[index[even], :, counts[even] // 2 - 1]
    median[even] = (lo + median[even]) / 2
    last = padded[index, :, counts - 1]
    centroids[clusters] = np.where(np.isnan(last), last, median)
    return centroids


def _fix_empty_clusters(
    assignments: np.ndarray, assigned: np.ndarray, k: int
) -> np.ndarray:
    """Re-seed each empty cluster on the worst-served point.

    ``assigned`` is each point's distance to its assigned (nearest)
    centroid.  The point with the largest one (ties: lowest point id)
    is moved into the empty cluster; repeat per empty cluster in
    ascending cluster-id order.  Deterministic, and each donor cluster
    keeps at least one member because the moved point is strictly one
    of many (``k <= N`` is enforced by the caller).  A moved point is
    alone in its new cluster, so its distance is never read again.
    """
    assignments = assignments.copy()
    counts = np.bincount(assignments, minlength=k)
    for cluster in np.flatnonzero(counts == 0):
        # Points alone in their cluster must not be stolen (that would
        # just move the hole); mask them out.
        singleton = counts[assignments] <= 1
        candidates = np.where(singleton, -np.inf, assigned)
        worst = int(np.argmax(candidates))  # ties -> lowest point id
        counts[assignments[worst]] -= 1
        assignments[worst] = cluster
        counts[cluster] += 1
    return assignments
