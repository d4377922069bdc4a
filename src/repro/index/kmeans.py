"""Seeded Lloyd's k-means with deterministic init and tie-breaking.

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
  distance; ``np.median`` of a fixed member list is deterministic);
* **stop** — when assignments reach a fixed point, or after ``iters``
  rounds.

Two calls with identical inputs therefore return bit-identical
centroids, which is what makes IVF snapshots byte-identical
across same-seed builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flat import METRICS, pairwise_distances


@dataclass(frozen=True)
class KMeansResult:
    """Output of one :func:`kmeans` run.

    ``centroids`` is (k, d); ``assignments`` is (N,) centroid ids;
    ``inertia`` is the summed point-to-centroid distance under the
    training metric; ``iterations`` counts completed Lloyd rounds.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    iterations: int


def kmeans(
    vectors: np.ndarray,
    k: int,
    metric: str = "l2",
    iters: int = 25,
    seed: int = 0,
) -> KMeansResult:
    """Lloyd's algorithm, fully deterministic given ``(inputs, seed)``.

    ``k`` is clamped to the number of distinct training rows by the
    caller's choice of ``k``; passing ``k > len(vectors)`` raises.
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
    centroids = vectors[rng.permutation(len(vectors))[:k]].copy()
    assignments = np.full(len(vectors), -1, dtype=np.int64)
    distances = pairwise_distances(vectors, centroids, metric)
    iterations = 0
    for _ in range(iters):
        new_assignments = np.argmin(distances, axis=1).astype(np.int64)
        new_assignments = _fix_empty_clusters(
            new_assignments, distances, k
        )
        iterations += 1
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(k):
            members = vectors[assignments == c]
            if metric == "l1":
                centroids[c] = np.median(members, axis=0)
            else:
                centroids[c] = members.mean(axis=0)
        distances = pairwise_distances(vectors, centroids, metric)
    point_distance = distances[np.arange(len(vectors)), assignments]
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=float(point_distance.sum()),
        iterations=iterations,
    )


def _fix_empty_clusters(
    assignments: np.ndarray, distances: np.ndarray, k: int
) -> np.ndarray:
    """Re-seed each empty cluster on the worst-served point.

    The point with the largest distance to its assigned centroid (ties:
    lowest point id) is moved into the empty cluster; repeat per empty
    cluster in ascending cluster-id order.  Deterministic, and each
    donor cluster keeps at least one member because the moved point is
    strictly one of many (``k <= N`` is enforced by the caller).
    """
    assignments = assignments.copy()
    counts = np.bincount(assignments, minlength=k)
    for cluster in np.flatnonzero(counts == 0):
        assigned = distances[np.arange(len(assignments)), assignments]
        # Points alone in their cluster must not be stolen (that would
        # just move the hole); mask them out.
        singleton = counts[assignments] <= 1
        candidates = np.where(singleton, -np.inf, assigned)
        worst = int(np.argmax(candidates))  # ties -> lowest point id
        counts[assignments[worst]] -= 1
        assignments[worst] = cluster
        counts[cluster] += 1
    return assignments
