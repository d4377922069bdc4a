"""Delta-aware IVF: inserts, tombstones, updates, seeded maintenance."""

import copy

import numpy as np
import pytest

from repro.index.ivf import IVFFlatIndex
from repro.stream import DeltaIndex
from tests.index.test_hot_path import same_bytes


def build_delta_index(rng, n=64, dim=4, nlist=4):
    vectors = rng.standard_normal((n, dim))
    ids = np.arange(n, dtype=np.int64)
    base = IVFFlatIndex(dim=dim, nlist=nlist, nprobe=nlist, seed=0)
    base.build(vectors, ids)
    return DeltaIndex(base), vectors


class TestMutations:
    def test_insert_then_search_finds_new_vector(self):
        rng = np.random.default_rng(0)
        index, vectors = build_delta_index(rng)
        new = rng.standard_normal(4)
        index.insert(new[None, :], np.asarray([100], dtype=np.int64))
        _, ids = index.search(new[None, :], k=1)
        assert ids[0, 0] == 100
        assert index.live_count == 65

    def test_insert_rejects_duplicate_id(self):
        rng = np.random.default_rng(0)
        index, _ = build_delta_index(rng)
        with pytest.raises(ValueError, match="already indexed"):
            index.insert(
                rng.standard_normal((1, 4)), np.asarray([5], dtype=np.int64)
            )

    @pytest.mark.parametrize("batch", [[500, 500], [500, 501, 500], [500, 5]])
    def test_insert_refuses_a_bad_batch_before_touching_the_lists(self, batch):
        """An id repeated within the batch used to be filed twice."""
        rng = np.random.default_rng(0)
        index, _ = build_delta_index(rng)
        before = index.index.state()[0]
        with pytest.raises(ValueError, match="already indexed"):
            index.insert(rng.standard_normal((len(batch), 4)), np.asarray(batch))
        after = index.index.state()[0]
        assert all(np.array_equal(before[name], after[name]) for name in before)
        assert index.index.ntotal == index.live_count == 64
        assert not index.is_live(500)

    def test_delete_hides_id_from_search(self):
        rng = np.random.default_rng(1)
        index, vectors = build_delta_index(rng)
        _, before = index.search(vectors[7][None, :], k=1)
        assert before[0, 0] == 7
        assert index.delete(np.asarray([7], dtype=np.int64)) == 1
        _, after = index.search(vectors[7][None, :], k=1)
        assert after[0, 0] != 7
        assert index.live_count == 63

    def test_delete_of_absent_id_is_zero(self):
        rng = np.random.default_rng(1)
        index, _ = build_delta_index(rng)
        assert index.delete(np.asarray([999], dtype=np.int64)) == 0

    def test_update_moves_vector(self):
        rng = np.random.default_rng(2)
        index, vectors = build_delta_index(rng)
        target = rng.standard_normal(4) * 5.0
        index.update(3, target)
        _, ids = index.search(target[None, :], k=1)
        assert ids[0, 0] == 3
        assert index.index.ntotal == 64  # moved, not duplicated

    @pytest.mark.parametrize("tombstoned", [False, True])
    def test_update_within_its_cell_moves_the_row_to_the_list_end(self, tombstoned):
        """One-row move: the same arrays and counters as ``remove`` of
        the old row then ``add`` of the new one, on a copy."""
        rng = np.random.default_rng(2)
        index, vectors = build_delta_index(rng)
        if tombstoned:
            index.delete(np.asarray([3]))
        twin = copy.deepcopy(index.index)
        cell = next(c for c, ids in enumerate(twin._list_ids) if 3 in ids)
        assert len(twin._list_ids[cell]) > 1 and twin._list_ids[cell][-1] != 3
        vector = vectors[3] + 1e-9
        twin.remove(cell, [3])
        assert twin.add(vector[None, :], [3]).tolist() == [cell]
        index.update(3, vector)
        assert index.index._list_ids[cell][-1] == 3
        (got, got_meta), (want, want_meta) = index.index.state(), twin.state()
        assert got_meta == want_meta and got.keys() == want.keys()
        for name in want:
            assert same_bytes(got[name], want[name]), name
        assert index.index.metrics.snapshot() == twin.metrics.snapshot()
        assert index.is_live(3) and index.live_count == 64

    def test_update_of_unknown_id_raises(self):
        rng = np.random.default_rng(2)
        index, _ = build_delta_index(rng)
        with pytest.raises(KeyError):
            index.update(999, np.zeros(4))

    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4), ()])
    @pytest.mark.parametrize("tombstoned", [False, True])
    def test_update_refuses_a_bad_vector_before_striking_the_old_row(
        self, shape, tombstoned
    ):
        """The old row used to be removed (and its tombstone dropped)
        before ``add`` refused the replacement."""
        rng = np.random.default_rng(2)
        index, vectors = build_delta_index(rng)
        if tombstoned:
            index.delete(np.asarray([3]))
        before = index.index.state()[0]
        found = index.search(vectors[3][None, :], k=1)
        with pytest.raises(ValueError, match=r"not \(4,\)"):
            index.update(3, np.zeros(shape))
        after = index.index.state()[0]
        assert all(np.array_equal(before[name], after[name]) for name in before)
        assert index.index.ntotal == 64
        assert index.live_count == 64 - tombstoned
        assert index.is_live(3) is not tombstoned
        for was, now in zip(found, index.search(vectors[3][None, :], k=1)):
            assert np.array_equal(was, now)
        assert index.metrics.counter("stream.index.updates").value == 0


class TestMaintenance:
    def test_compaction_trigger_on_tombstone_ratio(self):
        rng = np.random.default_rng(3)
        index, _ = build_delta_index(rng)
        index.delete(np.arange(15, dtype=np.int64))  # 15/64 < 0.25
        assert index.maintenance() == []
        assert len(index.tombstones) == 15
        index.delete(np.asarray([15]))  # 16/64 reaches TOMBSTONE_RATIO
        assert index.maintenance() == ["compact"]
        assert not index.tombstones
        assert index.index.ntotal == 48

    def test_recluster_trigger_on_skew(self):
        rng = np.random.default_rng(4)
        index, _ = build_delta_index(rng, n=16, nlist=8)
        # Pile far-away inserts into one centroid's cell to skew it.
        crowd = rng.standard_normal((48, 4)) * 0.05 + 40.0
        index.insert(crowd[:47], np.arange(1000, 1047, dtype=np.int64))
        assert index.skew() >= 4.0
        assert index.live_count == 63  # one short of MIN_VECTORS_FOR_RECLUSTER
        assert index.maintenance() == []
        index.insert(crowd[47:], np.asarray([1047]))
        assert index.maintenance() == ["recluster"]
        assert index.recluster_count == 1
        assert index.skew() < 4.0

    def test_recluster_with_no_live_vector_refuses_before_compacting(self):
        """It used to compact every list, then fail inside ``train``."""
        rng = np.random.default_rng(7)
        index, _ = build_delta_index(rng)
        index.delete(np.arange(64, dtype=np.int64))
        before = index.index.state()[0]
        with pytest.raises(ValueError, match="no live vectors"):
            index.recluster()
        after = index.index.state()[0]
        assert all(same_bytes(before[name], after[name]) for name in before)
        assert index.tombstones == set(range(64))
        assert index.list_sizes().sum() == 64
        assert index.recluster_count == 0
        assert index.metrics.counter("stream.index.compactions").value == 0

    def test_recluster_is_seeded_and_deterministic(self):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(5)
            index, _ = build_delta_index(rng)
            index.insert(
                rng.standard_normal((40, 4)) + 10.0,
                np.arange(500, 540, dtype=np.int64),
            )
            index.recluster()
            vectors, ids = index._live_rows()
            results.append((vectors.tobytes(), ids.tobytes()))
        assert results[0] == results[1]

    def test_search_overfetch_survives_poisoned_probes(self):
        rng = np.random.default_rng(6)
        index, vectors = build_delta_index(rng, n=32, nlist=2)
        query = vectors[0][None, :]
        _, ranked = index.search(query, k=32)
        top = [int(v) for v in ranked[0] if v >= 0][:8]
        index.delete(np.asarray(top[:7], dtype=np.int64))
        _, ids = index.search(query, k=1)
        assert ids[0, 0] == top[7]
