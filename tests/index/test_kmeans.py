"""Seeded k-means: determinism, empty-cluster repair, metric updates.

The bounded k-means is held byte for byte to plain Lloyd rounds
(``tests/index/lloyd_reference.py``) on clustered floats and on tie-heavy
grids with both signed zeros, both infinities and NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import IVFFlatIndex, kmeans
from repro.index.kmeans import _fix_empty_clusters
from tests.index.lloyd_reference import lloyd
from tests.index.test_hot_path import same_bytes


class TestKMeans:
    def test_same_seed_bit_identical(self, clustered_catalog):
        base, _ = clustered_catalog
        a = kmeans(base, 8, seed=3)
        b = kmeans(base, 8, seed=3)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia
        assert a.iterations == b.iterations

    def test_different_seeds_differ(self, clustered_catalog):
        base, _ = clustered_catalog
        a = kmeans(base, 8, seed=0)
        b = kmeans(base, 8, seed=1)
        assert not np.array_equal(a.centroids, b.centroids)

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        centers = np.asarray([[0.0, 0.0], [10.0, 10.0], [-10.0, 10.0]])
        base = np.concatenate(
            [c + 0.1 * rng.normal(size=(30, 2)) for c in centers]
        )
        # seed=1 avoids the split-cluster local optimum seed=0 lands in
        result = kmeans(base, 3, seed=1)
        truth = np.repeat(np.arange(3), 30)
        # Every true cluster maps onto exactly one learned centroid.
        for cluster in range(3):
            learned = result.assignments[truth == cluster]
            assert len(set(learned.tolist())) == 1
        assert result.inertia < 30.0

    def test_no_cluster_left_empty(self, clustered_catalog):
        base, _ = clustered_catalog
        result = kmeans(base, 40, seed=7)
        counts = np.bincount(result.assignments, minlength=40)
        assert (counts > 0).all()

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_inertia_matches_assignments(self, clustered_catalog, metric):
        from repro.index import pairwise_distances

        base, _ = clustered_catalog
        result = kmeans(base, 6, metric=metric, seed=2)
        distances = pairwise_distances(base, result.centroids, metric)
        expected = distances[np.arange(len(base)), result.assignments].sum()
        assert result.inertia == pytest.approx(expected)

    def test_l1_uses_median_centroids(self):
        # The outlier at 100 lands in the low cluster {0, 1, 2, 100}:
        # the L1 centroid is its median (1.5), where a mean update
        # would be dragged to 25.75.
        base = np.asarray(
            [[0.0], [1.0], [2.0], [100.0], [200.0], [201.0], [202.0]]
        )
        result = kmeans(base, 2, metric="l1", iters=50, seed=0)
        centroid_values = sorted(float(c[0]) for c in result.centroids)
        assert centroid_values[0] == pytest.approx(1.5)
        assert centroid_values[1] == pytest.approx(201.0)

    def test_validation(self):
        base = np.zeros((5, 2))
        with pytest.raises(ValueError, match="k="):
            kmeans(base, 6)
        with pytest.raises(ValueError, match="metric"):
            kmeans(base, 2, metric="cosine")
        with pytest.raises(ValueError, match="iters"):
            kmeans(base, 2, iters=0)
        with pytest.raises(ValueError, match="vectors"):
            kmeans(np.zeros(5), 2)


class TestFixEmptyClusters:
    def test_moves_worst_served_point(self):
        # Cluster 2 is empty; point 1 is farthest from its centroid.
        assignments = np.asarray([0, 0, 1, 1], dtype=np.int64)
        assigned = np.asarray([0.1, 4.0, 0.2, 0.3])
        fixed = _fix_empty_clusters(assignments, assigned, 3)
        assert list(fixed) == [0, 2, 1, 1]

    def test_does_not_steal_singletons(self):
        # Cluster 1's only member is the globally worst-served point,
        # but stealing it would just move the hole to cluster 1.
        assignments = np.asarray([0, 0, 1], dtype=np.int64)
        assigned = np.asarray([0.1, 3.0, 8.0])
        fixed = _fix_empty_clusters(assignments, assigned, 3)
        assert list(fixed) == [0, 2, 1]


def float_bits(value):
    return np.float64(value).tobytes()


def assert_is_lloyd(vectors, k, metric, iters, seed):
    """The bounded k-means returns the oracle's bytes, field by field."""
    got = kmeans(vectors, k, metric=metric, iters=iters, seed=seed)
    centroids, assignments, inertia, iterations, nearest = lloyd(
        vectors, k, metric, iters, seed
    )
    assert same_bytes(got.centroids, centroids)
    assert same_bytes(got.assignments, assignments)
    assert float_bits(got.inertia) == float_bits(inertia)
    assert got.iterations == iterations
    assert same_bytes(got.nearest, nearest)
    return got


@st.composite
def clustered(draw):
    """Float points around a few centres; any k from 1 to N."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n, dim = draw(st.integers(1, 80)), draw(st.integers(1, 12))
    centres = 3.0 * rng.standard_normal((draw(st.integers(1, 9)), dim))
    spread = draw(st.sampled_from([0.05, 0.3, 1.0]))
    vectors = centres[rng.integers(0, len(centres), n)] + spread * rng.standard_normal(
        (n, dim)
    )
    return vectors, draw(st.sampled_from([1, n, int(rng.integers(1, n + 1))]))


#: Grid values: small integers, both signed zeros, and — when a case
#: allows them — both infinities and NaN.
GRID = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]
NON_FINITE = [np.inf, -np.inf, np.nan]


@st.composite
def grids(draw):
    """Integer grids: duplicate rows, tied distances, empty clusters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n, dim = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    values = GRID + (NON_FINITE if draw(st.integers(0, 3)) == 0 else [])
    weights = np.ones(len(values))
    weights[len(GRID) :] = 0.1
    vectors = rng.choice(values, size=(n, dim), p=weights / weights.sum())
    return vectors, draw(st.sampled_from([1, n, int(rng.integers(1, n + 1))]))


class TestAgainstLloyd:
    """Every byte Lloyd's full-matrix rounds give, on data made for ties."""

    @settings(max_examples=300, deadline=None)
    @given(
        clustered(),
        st.sampled_from(["l1", "l2"]),
        st.integers(1, 30),
        st.integers(0, 2**16),
    )
    def test_clustered_floats(self, case, metric, iters, seed):
        vectors, k = case
        assert_is_lloyd(vectors, k, metric, iters, seed)

    @settings(max_examples=600, deadline=None)
    @given(
        grids(),
        st.sampled_from(["l1", "l2"]),
        st.integers(1, 30),
        st.integers(0, 2**16),
    )
    def test_grids_with_zeros_infinities_and_nan(self, case, metric, iters, seed):
        vectors, k = case
        with np.errstate(invalid="ignore"):
            assert_is_lloyd(vectors, k, metric, iters, seed)

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_identical_points_force_empty_clusters(self, metric):
        # Every distance ties, so every point picks centroid 0 and the
        # repair must refill clusters 1..3 every round.
        got = assert_is_lloyd(np.ones((10, 3)), 4, metric, 5, 0)
        assert np.bincount(got.assignments, minlength=4).min() == 1

    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_counts_fewer_distances_than_lloyd(self, clustered_catalog, metric):
        base, _ = clustered_catalog
        got = assert_is_lloyd(base, 24, metric, 25, 0)
        assert got.distance_computations < got.iterations * len(base) * 24


class TestIVFBuild:
    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_build_is_train_then_add(self, clustered_catalog, metric):
        base, _ = clustered_catalog
        ids = np.arange(len(base), dtype=np.int64)[::-1].copy()
        built = IVFFlatIndex(dim=base.shape[1], nlist=24, metric=metric, seed=5)
        built.build(base, ids)
        added = IVFFlatIndex(dim=base.shape[1], nlist=24, metric=metric, seed=5)
        added.train(base)
        added.add(base, ids)
        for (name, got), want in zip(built.state()[0].items(), added.state()[0].values()):
            assert same_bytes(got, want), name
