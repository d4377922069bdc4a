"""Tests for the filtered link-prediction ranking protocol."""

import numpy as np
import pytest

from repro.baselines import evaluate_link_prediction, make_scorer
from repro.baselines.link_prediction import _rank
from repro.kg import TripleStore


class OracleModel:
    """A fake scorer that knows the answers: true triples get energy 0."""

    def __init__(self, truth, num_entities):
        self.truth = truth
        self.num_entities = num_entities

    def score_all_tails(self, head, relation):
        energies = np.ones(self.num_entities)
        for h, r, t in self.truth:
            if h == head and r == relation:
                energies[t] = 0.0
        return energies

    def score_all_heads(self, relation, tail):
        energies = np.ones(self.num_entities)
        for h, r, t in self.truth:
            if r == relation and t == tail:
                energies[h] = 0.0
        return energies


class AntiOracleModel(OracleModel):
    """True triples get the *worst* energy."""

    def score_all_tails(self, head, relation):
        return 1.0 - super().score_all_tails(head, relation)

    def score_all_heads(self, relation, tail):
        return 1.0 - super().score_all_heads(relation, tail)


@pytest.fixture
def tiny():
    truth = [(0, 0, 5), (1, 0, 6), (2, 1, 7)]
    test = TripleStore(truth)
    return truth, test


class TestOracleRanking:
    def test_oracle_gets_perfect_metrics(self, tiny):
        truth, test = tiny
        model = OracleModel(truth, num_entities=10)
        result = evaluate_link_prediction(model, test, [test], ks=(1, 3))
        assert result.mrr == pytest.approx(1.0)
        assert result.hits[1] == pytest.approx(1.0)
        assert result.mean_rank == pytest.approx(1.0)

    def test_anti_oracle_ranks_last(self, tiny):
        truth, test = tiny
        model = AntiOracleModel(truth, num_entities=10)
        result = evaluate_link_prediction(model, test, [test], ks=(1,))
        assert result.hits[1] == 0.0
        assert result.mean_rank > 5

    def test_filtering_removes_other_true_answers(self):
        # (0,0,5) and (0,0,6) both true; when ranking (0,0,5) the entity 6
        # must be excluded from candidates.
        truth = [(0, 0, 5), (0, 0, 6)]
        test = TripleStore([(0, 0, 5)])
        filter_store = TripleStore(truth)

        class BiasedModel(OracleModel):
            def score_all_tails(self, head, relation):
                energies = np.ones(self.num_entities)
                energies[6] = 0.0  # other true answer scores best
                energies[5] = 0.5
                return energies

            def score_all_heads(self, relation, tail):
                energies = np.ones(self.num_entities)
                energies[0] = 0.0
                return energies

        model = BiasedModel(truth, num_entities=10)
        filtered = evaluate_link_prediction(model, test, [filter_store], ks=(1,))
        unfiltered = evaluate_link_prediction(model, test, [test], ks=(1,))
        # With filtering, entity 6 is removed, so rank of 5 improves to 1.
        assert filtered.hits[1] > unfiltered.hits[1]

    def test_tail_only_mode(self, tiny):
        truth, test = tiny
        model = OracleModel(truth, num_entities=10)
        result = evaluate_link_prediction(model, test, [test], both_sides=False)
        assert result.num_queries == len(test.to_array())

    def test_max_queries_subsamples(self, tiny):
        truth, test = tiny
        model = OracleModel(truth, num_entities=10)
        result = evaluate_link_prediction(
            model, test, [test], max_queries=2, rng=np.random.default_rng(0)
        )
        assert result.num_queries == 4  # 2 triples x 2 sides

    def test_empty_test_raises(self):
        model = OracleModel([], num_entities=10)
        with pytest.raises(ValueError):
            evaluate_link_prediction(model, TripleStore(), [])

    def test_tie_policy_averages(self):
        """A constant scorer gets the mid rank, not rank 1."""
        class ConstantModel:
            num_entities = 10

            def score_all_tails(self, head, relation):
                return np.zeros(10)

            def score_all_heads(self, relation, tail):
                return np.zeros(10)

        rank = _rank(ConstantModel(), 0, 0, 5, [], side="tail")
        # 0 strictly better, 9 ties -> 1 + 9//2 = 5.
        assert rank == 5

    def test_bad_side_raises(self, tiny):
        truth, _ = tiny
        model = OracleModel(truth, num_entities=10)
        with pytest.raises(ValueError):
            _rank(model, 0, 0, 5, [], side="middle")


class TestEndToEnd:
    def test_trained_transe_beats_untrained(self):
        from repro.baselines import KGETrainer, KGETrainerConfig
        from repro.data import CatalogConfig, generate_catalog
        from repro.kg import split_triples

        catalog = generate_catalog(
            CatalogConfig(
                num_categories=3,
                products_per_category=10,
                min_items_per_product=2,
                max_items_per_product=3,
                seed=0,
            )
        )
        split = split_triples(catalog.store, 0.12, 0.12, np.random.default_rng(0))
        n_ent, n_rel = len(catalog.entities), len(catalog.relations)

        untrained = make_scorer("transe", n_ent, n_rel, 16, rng=np.random.default_rng(1))
        before = evaluate_link_prediction(
            untrained, split.test, [split.train, split.valid, split.test]
        )
        trained = make_scorer("transe", n_ent, n_rel, 16, rng=np.random.default_rng(1))
        KGETrainer(
            trained,
            KGETrainerConfig(epochs=30, batch_size=64, learning_rate=0.02, seed=0),
        ).train(split.train)
        after = evaluate_link_prediction(
            trained, split.test, [split.train, split.valid, split.test]
        )
        assert after.mrr > max(before.mrr * 2, 0.15)


class TestANNEvaluation:
    @pytest.fixture(scope="class")
    def transe(self):
        rng = np.random.default_rng(3)
        model = make_scorer("transe", 120, 4, 16, rng=np.random.default_rng(2))
        triples = [
            (int(rng.integers(0, 120)), int(rng.integers(0, 4)), int(rng.integers(0, 120)))
            for _ in range(25)
        ]
        return model, TripleStore(triples)

    def test_flat_index_has_perfect_recall(self, transe):
        from repro.baselines import evaluate_link_prediction_ann

        model, test = transe
        result = evaluate_link_prediction_ann(model, test, k=5, index_kind="flat")
        assert result.recall_at_k == 1.0
        assert result.num_queries == len(test.to_array())
        assert result.exact_distance_computations == result.num_queries * 120

    def test_ivf_trades_recall_for_savings(self, transe):
        from repro.baselines import evaluate_link_prediction_ann

        model, test = transe
        result = evaluate_link_prediction_ann(
            model, test, k=5, index_kind="ivf",
            index_params={"nlist": 8, "nprobe": 4, "seed": 0},
        )
        assert 0.0 <= result.recall_at_k <= 1.0
        assert result.saving > 1.0
        assert "recall@5" in result.as_row("ivf")

    def test_prebuilt_index_is_used(self, transe):
        from repro.baselines import evaluate_link_prediction_ann
        from repro.index import FlatIndex

        model, test = transe
        index = FlatIndex(model.dim, metric="l1")
        index.add(model.entities.weight.data)
        result = evaluate_link_prediction_ann(model, test, k=3, index=index)
        assert result.recall_at_k == 1.0
        assert index.metrics.counter("index.search.queries").value > 0

    def test_non_transe_rejected(self, transe):
        from repro.baselines import evaluate_link_prediction_ann

        model, test = transe
        oracle = OracleModel([], num_entities=120)
        with pytest.raises(TypeError, match="TransE"):
            evaluate_link_prediction_ann(oracle, test, k=5)
        # "ivfpq" names the deleted IVF-PQ index.
        with pytest.raises(ValueError, match=r"\['flat', 'ivf'\]"):
            evaluate_link_prediction_ann(model, test, k=5, index_kind="ivfpq")

    def test_max_queries_subsamples(self, transe):
        from repro.baselines import evaluate_link_prediction_ann

        model, test = transe
        result = evaluate_link_prediction_ann(
            model, test, k=5, index_kind="flat", max_queries=7
        )
        assert result.num_queries == 7
