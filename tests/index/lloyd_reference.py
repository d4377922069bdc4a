"""Plain Lloyd's k-means: the oracle ``repro.index.kmeans`` is held to.

A full ``pairwise_distances`` matrix every round and a masked
per-cluster ``np.median`` / ``mean`` update — the k-means the index
shipped before its rounds skipped the distances they can bound.  Same
init, tie rule, empty-cluster repair and stop rule, so the fast one
must return these bytes: centroids, assignments, inertia, iterations,
and the final matrix's ``argmin`` (where ``IVFFlatIndex.add`` files a
training vector).
"""

import numpy as np

from repro.index import pairwise_distances


def lloyd(vectors, k, metric, iters, seed):
    """``(centroids, assignments, inertia, iterations, nearest)``."""
    vectors = np.asarray(vectors, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = vectors[rng.permutation(len(vectors))[:k]].copy()
    assignments = np.full(len(vectors), -1, dtype=np.int64)
    distances = pairwise_distances(vectors, centroids, metric)
    iterations = 0
    for _ in range(iters):
        new_assignments = np.argmin(distances, axis=1).astype(np.int64)
        new_assignments = fix_empty_clusters(new_assignments, distances, k)
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
    nearest = np.argmin(distances, axis=1)
    return centroids, assignments, float(point_distance.sum()), iterations, nearest


def fix_empty_clusters(assignments, distances, k):
    """Re-seed each empty cluster on the worst-served point."""
    assignments = assignments.copy()
    counts = np.bincount(assignments, minlength=k)
    for cluster in np.flatnonzero(counts == 0):
        assigned = distances[np.arange(len(assignments)), assignments]
        singleton = counts[assignments] <= 1
        candidates = np.where(singleton, -np.inf, assigned)
        worst = int(np.argmax(candidates))
        counts[assignments[worst]] -= 1
        assignments[worst] = cluster
        counts[cluster] += 1
    return assignments
