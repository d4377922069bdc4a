"""Tests for the symbolic query engine and negative samplers."""

import numpy as np
import pytest

from repro.kg import (
    QueryEngine,
    TripleStore,
    UniformNegativeSampler,
    recover_all_triples,
)


@pytest.fixture
def store():
    return TripleStore(
        [
            (0, 0, 10),
            (0, 1, 11),
            (1, 0, 10),
            (1, 1, 12),
            (2, 0, 13),
        ]
    )


class TestQueryEngine:
    def test_triple_query_hits(self, store):
        result = QueryEngine(store).triple_query(0, 0)
        assert result.exists
        assert result.tails == (10,)

    def test_triple_query_miss(self, store):
        result = QueryEngine(store).triple_query(2, 1)
        assert not result.exists
        assert result.tails == ()

    def test_relation_query(self, store):
        result = QueryEngine(store).relation_query(1)
        assert result.relations == (0, 1)
        assert result.has(0) and not result.has(7)

    def test_recover_all_triples(self, store):
        """Paper claim: the two query types recover the whole KG."""
        engine = QueryEngine(store)
        recovered = recover_all_triples(engine, store)
        expected = {(t.head, t.relation, t.tail) for t in store}
        assert recovered == expected


class TestUniformNegativeSampler:
    def make(self, **kwargs):
        defaults = dict(
            num_entities=50,
            num_relations=5,
            rng=np.random.default_rng(0),
            corrupt_relation_prob=0.2,
        )
        defaults.update(kwargs)
        return UniformNegativeSampler(**defaults)

    def test_every_negative_differs_from_positive(self):
        sampler = self.make()
        positives = np.array([[1, 2, 3]] * 500)
        negatives = sampler.corrupt_batch(positives)
        assert not np.any(np.all(negatives == positives, axis=1))

    def test_exactly_one_slot_corrupted(self):
        sampler = self.make()
        positives = np.array([[1, 2, 3]] * 200)
        negatives = sampler.corrupt_batch(positives)
        changed = (negatives != positives).sum(axis=1)
        assert np.all(changed == 1)

    def test_relation_corruption_share(self):
        sampler = self.make(corrupt_relation_prob=0.5, rng=np.random.default_rng(1))
        positives = np.array([[1, 2, 3]] * 4000)
        negatives = sampler.corrupt_batch(positives)
        rel_changed = (negatives[:, 1] != positives[:, 1]).mean()
        assert 0.45 < rel_changed < 0.55

    def test_zero_relation_prob_only_entities(self):
        sampler = self.make(corrupt_relation_prob=0.0)
        positives = np.array([[1, 2, 3]] * 300)
        negatives = sampler.corrupt_batch(positives)
        assert np.all(negatives[:, 1] == 2)

    def test_relation_corruption_disabled_for_single_relation(self):
        sampler = self.make(num_relations=1, corrupt_relation_prob=0.9)
        assert sampler.corrupt_relation_prob == 0.0

    def test_ids_stay_in_range(self):
        sampler = self.make(num_entities=10, num_relations=3)
        positives = np.array([[9, 2, 0]] * 1000)
        negatives = sampler.corrupt_batch(positives)
        assert negatives[:, 0].max() < 10 and negatives[:, 0].min() >= 0
        assert negatives[:, 2].max() < 10 and negatives[:, 2].min() >= 0
        assert negatives[:, 1].max() < 3

    def test_validates_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            UniformNegativeSampler(1, 5, rng)
        with pytest.raises(ValueError):
            UniformNegativeSampler(5, 0, rng)
        with pytest.raises(ValueError):
            UniformNegativeSampler(5, 5, rng, corrupt_relation_prob=1.5)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            self.make().corrupt_batch(np.array([1, 2, 3]))
