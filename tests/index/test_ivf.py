"""IVF-Flat: determinism, recall vs Flat, probe accounting."""

import numpy as np
import pytest

from repro.index import FlatIndex, IVFFlatIndex

NLIST = 32
NPROBE = 4
K = 10


def build_ivf(base, metric="l2", nlist=NLIST, nprobe=NPROBE, seed=0):
    index = IVFFlatIndex(
        base.shape[1], nlist=nlist, nprobe=nprobe, metric=metric, seed=seed
    )
    index.build(base)
    return index


class TestDeterminism:
    def test_same_seed_builds_identical_state(self, clustered_catalog):
        base, _ = clustered_catalog
        a, b = build_ivf(base), build_ivf(base)
        arrays_a, meta_a = a.state()
        arrays_b, meta_b = b.state()
        assert meta_a == meta_b
        for name in arrays_a:
            assert np.array_equal(arrays_a[name], arrays_b[name]), name

    def test_same_seed_searches_identical(self, clustered_catalog):
        base, queries = clustered_catalog
        a, b = build_ivf(base), build_ivf(base)
        da, ia = a.search(queries, K)
        db, ib = b.search(queries, K)
        assert np.array_equal(da, db)
        assert np.array_equal(ia, ib)

    def test_different_seed_changes_partition(self, clustered_catalog):
        base, _ = clustered_catalog
        a = build_ivf(base, seed=0)
        b = build_ivf(base, seed=1)
        assert not np.array_equal(a.centroids, b.centroids)


class TestRecall:
    @pytest.mark.parametrize("metric", ["l1", "l2"])
    def test_recall_at_10_with_fewer_distances(self, clustered_catalog, metric):
        """The ISSUE acceptance bar: recall@10 >= 0.9 at >= 5x fewer
        distance computations than brute force, on the clustered
        catalog that models post-convergence category geometry."""
        base, queries = clustered_catalog
        flat = FlatIndex(base.shape[1], metric=metric)
        flat.add(base)
        ivf = build_ivf(base, metric=metric)

        _, exact_ids = flat.search(queries, K)
        _, ann_ids = ivf.search(queries, K)
        overlap = [
            len(set(exact_ids[q].tolist()) & set(ann_ids[q].tolist()))
            for q in range(len(queries))
        ]
        recall = sum(overlap) / (len(queries) * K)

        flat_dc = flat.metrics.counter(
            "index.search.distance_computations"
        ).value
        ivf_dc = ivf.metrics.counter(
            "index.search.distance_computations"
        ).value
        assert recall >= 0.9, f"recall@10 = {recall}"
        assert flat_dc >= 5 * ivf_dc, f"saving only {flat_dc / ivf_dc:.2f}x"

    def test_full_probe_is_exact(self, clustered_catalog):
        """nprobe == nlist scans every cell, so results match Flat."""
        base, queries = clustered_catalog
        flat = FlatIndex(base.shape[1], metric="l2")
        flat.add(base)
        ivf = build_ivf(base, metric="l2")
        exact_d, exact_i = flat.search(queries, K)
        ivf_d, ivf_i = ivf.search(queries, K, nprobe=NLIST)
        assert np.array_equal(ivf_i, exact_i)
        assert np.array_equal(ivf_d, exact_d)

    def test_more_probes_never_hurt(self, clustered_catalog):
        base, queries = clustered_catalog
        flat = FlatIndex(base.shape[1], metric="l2")
        flat.add(base)
        _, exact_ids = flat.search(queries, K)
        ivf = build_ivf(base, metric="l2")
        recalls = []
        for nprobe in (1, 4, NLIST):
            _, ann_ids = ivf.search(queries, K, nprobe=nprobe)
            overlap = sum(
                len(set(exact_ids[q].tolist()) & set(ann_ids[q].tolist()))
                for q in range(len(queries))
            )
            recalls.append(overlap / (len(queries) * K))
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0


class TestMechanics:
    def test_every_vector_lands_in_exactly_one_cell(self, clustered_catalog):
        base, _ = clustered_catalog
        ivf = build_ivf(base)
        assert ivf.ntotal == len(base)
        all_ids = np.sort(np.concatenate(ivf._list_ids))
        assert np.array_equal(all_ids, np.arange(len(base)))

    def test_default_ids_start_past_the_largest_id_held(self, clustered_catalog):
        """Defaults used to start at ``ntotal``, which ``remove`` lowers,
        so they re-issued ids still indexed."""
        base, _ = clustered_catalog
        ivf = build_ivf(base[:100], nlist=4, nprobe=1)
        cell_zero = ivf._list_ids[0][:3].tolist()
        assert ivf.remove(0, cell_zero) == 3
        ivf.add(base[100:103])
        ids = np.concatenate(ivf._list_ids)
        assert len(np.unique(ids)) == len(ids) == 100
        assert sorted(set(ids.tolist()) - set(range(100))) == [100, 101, 102]
        empty = IVFFlatIndex(base.shape[1], nlist=4, nprobe=1)
        empty.train(base[:100])
        empty.add(base[:2])
        assert sorted(np.concatenate(empty._list_ids).tolist()) == [0, 1]

    def test_probe_cells_orders_by_centroid_distance(self, clustered_catalog):
        base, queries = clustered_catalog
        ivf = build_ivf(base)
        probes = ivf.probe_cells(queries[:4], 3)
        assert probes.shape == (4, 3)
        from repro.index import pairwise_distances

        centroid_d = pairwise_distances(queries[:4], ivf.centroids, "l2")
        for row in range(4):
            expected = np.lexsort(
                (np.arange(ivf.nlist), centroid_d[row])
            )[:3]
            assert np.array_equal(probes[row], expected)

    def test_search_counts_probe_and_scan_work(self, clustered_catalog):
        base, queries = clustered_catalog
        ivf = build_ivf(base)
        before = ivf.metrics.counter(
            "index.search.distance_computations"
        ).value
        ivf.search(queries[:5], K)
        spent = (
            ivf.metrics.counter("index.search.distance_computations").value
            - before
        )
        scanned = sum(
            sum(len(ivf._list_ids[c]) for c in row)
            for row in ivf.probe_cells(queries[:5], NPROBE)
        )
        # probe_cells above re-counts 5 * nlist, so subtract it once.
        assert spent == 5 * NLIST + scanned

    def test_validation(self, clustered_catalog):
        base, queries = clustered_catalog
        with pytest.raises(ValueError, match="nprobe"):
            IVFFlatIndex(4, nlist=8, nprobe=9)
        with pytest.raises(ValueError, match="nlist"):
            IVFFlatIndex(4, nlist=0)
        index = IVFFlatIndex(base.shape[1], nlist=8, nprobe=2)
        with pytest.raises(RuntimeError, match="train"):
            index.add(base)
        with pytest.raises(RuntimeError, match="train"):
            index.search(queries, 1)
        with pytest.raises(ValueError, match="nlist"):
            index.train(base[:4])
        index.build(base)
        with pytest.raises(ValueError, match="nprobe"):
            index.search(queries, 1, nprobe=99)
