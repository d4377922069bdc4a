"""Server retrieval surface: nearest_tails and existence scores."""

import numpy as np
import pytest

from repro.index import FlatIndex, IVFFlatIndex

K = 5


def brute_force_tails(server, head, relation, k):
    """Reference ranking: L1 from S_T to every entity, (distance, id)."""
    query = server.triple_service(
        np.asarray([head]), np.asarray([relation])
    )[0]
    distances = np.abs(server._entity_table - query).sum(axis=1)
    order = np.lexsort((np.arange(server.num_entities), distances))[:k]
    return distances[order], order


class TestNearestTails:
    def test_agrees_with_brute_force(self, small_server):
        for head, relation in [(0, 0), (3, 1), (7, 2)]:
            expected_d, expected_i = brute_force_tails(
                small_server, head, relation, K
            )
            d, i = small_server.nearest_tails(head, relation, k=K)
            assert np.array_equal(i, expected_i)
            assert np.array_equal(d, expected_d)

    def test_batch_matches_singles(self, small_server):
        heads, relations = [0, 3, 7], [0, 1, 2]
        batch_d, batch_i = small_server.nearest_tails_batch(
            heads, relations, k=K
        )
        assert batch_d.shape == (3, K) and batch_i.shape == (3, K)
        for row, (head, relation) in enumerate(zip(heads, relations)):
            d, i = small_server.nearest_tails(head, relation, k=K)
            assert np.array_equal(batch_d[row], d)
            assert np.array_equal(batch_i[row], i)

    def test_first_call_builds_flat_l1_index(self, small_server):
        small_server._tail_index = None
        assert small_server.tail_index is None
        small_server.nearest_tails(0, 0, k=1)
        index = small_server.tail_index
        assert isinstance(index, FlatIndex)
        assert index.metric == "l1"
        assert index.ntotal == small_server.num_entities

    def test_explicit_ivf_build_is_used(self, small_server):
        index = small_server.build_tail_index(
            kind="ivf", metric="l1", nlist=8, nprobe=8, seed=0
        )
        assert isinstance(index, IVFFlatIndex)
        assert small_server.tail_index is index
        # nprobe == nlist scans everything, so results stay exact.
        expected_d, expected_i = brute_force_tails(small_server, 2, 1, K)
        d, i = small_server.nearest_tails(2, 1, k=K)
        assert np.array_equal(i, expected_i)
        assert np.array_equal(d, expected_d)
        small_server._tail_index = None

    def test_entity_ids_restrict_the_corpus(self, small_server):
        corpus = np.asarray([1, 3, 5, 7, 9], dtype=np.int64)
        small_server.build_tail_index(entity_ids=corpus)
        _, ids = small_server.nearest_tails(0, 0, k=3)
        assert set(ids.tolist()) <= set(corpus.tolist())
        small_server._tail_index = None

    def test_unknown_kind_rejected(self, small_server):
        # "ivfpq" names the deleted IVF-PQ index.
        for kind in ("hnsw", "ivfpq"):
            with pytest.raises(ValueError, match=r"\['flat', 'ivf'\]"):
                small_server.build_tail_index(kind=kind)


class TestExistenceScores:
    def test_batch_matches_scalar(self, small_server):
        entity_ids = [0, 1, 2, 5]
        relations = [0, 1, 0, 2]
        batch = small_server.relation_existence_scores(entity_ids, relations)
        assert batch.shape == (4,)
        for row, (entity, relation) in enumerate(zip(entity_ids, relations)):
            scalar = small_server.relation_existence_score(entity, relation)
            assert scalar == batch[row]

    def test_matches_relation_service_norm(self, small_server):
        entity_ids = np.asarray([0, 4], dtype=np.int64)
        relations = np.asarray([1, 2], dtype=np.int64)
        vectors = small_server.relation_service(entity_ids, relations)
        expected = np.abs(vectors).sum(axis=1)
        got = small_server.relation_existence_scores(entity_ids, relations)
        assert np.array_equal(got, expected)

    def test_shape_mismatch_rejected(self, small_server):
        with pytest.raises(ValueError, match="pair up"):
            small_server.relation_existence_scores([0, 1], [0])
