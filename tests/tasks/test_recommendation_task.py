"""Tests for the NCF recommendation task (Table VIII protocol)."""

import numpy as np
import pytest

from repro.data import generate_interactions
from repro.nn import Tensor
from repro.tasks import NCF, NCFConfig, RecommendationTask


@pytest.fixture(scope="module")
def interactions(workbench, config):
    return generate_interactions(workbench.catalog, config.interactions)


@pytest.fixture(scope="module")
def task(workbench, interactions, config):
    entity_ids = [item.entity_id for item in workbench.catalog.items]
    return RecommendationTask(
        interactions, entity_ids, server=workbench.server, config=config.ncf
    )


class TestNCFModel:
    def make(self, service_dim=0):
        return NCF(
            num_users=10,
            num_items=20,
            config=NCFConfig(
                gmf_dim=4, mlp_dim=8, mlp_layers=(8, 4), service_dim=service_dim,
                epochs=1,
            ),
            rng=np.random.default_rng(0),
        )

    def test_logit_shape(self):
        model = self.make()
        logits = model(np.array([0, 1, 2]), np.array([5, 6, 7]))
        assert logits.shape == (3,)

    def test_predict_probabilities(self):
        model = self.make()
        probs = model.predict(np.array([0, 1]), np.array([2, 3]))
        assert np.all((probs > 0) & (probs < 1))

    def test_service_input_required_when_configured(self):
        model = self.make(service_dim=6)
        with pytest.raises(ValueError):
            model(np.array([0]), np.array([1]))

    def test_service_input_rejected_when_not_configured(self):
        model = self.make()
        with pytest.raises(ValueError):
            model(np.array([0]), np.array([1]), service=np.ones((1, 6)))

    def test_service_shape_validated(self):
        model = self.make(service_dim=6)
        with pytest.raises(ValueError):
            model(np.array([0]), np.array([1]), service=np.ones((1, 5)))

    def test_service_changes_prediction(self):
        model = self.make(service_dim=6)
        users, items = np.array([0]), np.array([1])
        p1 = model.predict(users, items, service=np.ones((1, 6)))
        p2 = model.predict(users, items, service=-np.ones((1, 6)))
        assert p1[0] != pytest.approx(p2[0])

    def test_predict_unseen_refuses_a_service_dim_model(self):
        model = self.make(service_dim=6)
        with pytest.raises(ValueError, match="needs service input"):
            model.predict_unseen(np.array([0, 1]))

    def test_predict_unseen_scores_every_user(self):
        model = self.make()
        scores = model.predict_unseen(np.array([0, 1, 2]))
        assert scores.shape == (3,)
        assert np.all((scores > 0) & (scores < 1))
        assert model.training  # eval mode is restored

    def test_misaligned_inputs_rejected(self):
        model = self.make()
        with pytest.raises(ValueError):
            model(np.array([0, 1]), np.array([1]))

    def test_gradients_reach_both_pathways(self):
        model = self.make()
        logits = model(np.array([0, 1]), np.array([2, 3]))
        logits.sum().backward()
        assert model.gmf_user.weight.grad is not None
        assert model.mlp_user.weight.grad is not None
        assert model.prediction.weight.grad is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NCFConfig(gmf_dim=0)
        with pytest.raises(ValueError):
            NCFConfig(mlp_layers=())
        with pytest.raises(ValueError):
            NCFConfig(negative_ratio=0)
        with pytest.raises(ValueError):
            NCFConfig(eval_negatives=0)
        with pytest.raises(ValueError):
            NCFConfig(service_dim=-1)


class TestRecommendationTask:
    def test_leave_one_out_sizes(self, task, interactions):
        assert len(task.heldout) == interactions.num_users
        assert len(task.train_pairs) == len(interactions.interactions) - len(
            task.heldout
        )

    def test_item_features_shapes(self, task, workbench):
        d = workbench.server.dim
        n = task.interactions.num_items
        assert task.item_features("base") is None
        assert task.item_features("pkgm-t").shape == (n, d)
        assert task.item_features("pkgm-r").shape == (n, d)
        assert task.item_features("pkgm-all").shape == (n, 2 * d)

    def test_condensed_feature_matches_equation_20(self, task, workbench):
        features = task.item_features("pkgm-all")
        entity = task.item_entity_ids[0]
        expected = workbench.server.serve(entity).condensed()
        assert np.allclose(features[0], expected)

    def test_run_base_metrics_structure(self, task):
        result = task.run("base")
        for k in (1, 3, 5, 10, 30):
            assert f"HR@{k}" in result.metrics
            assert f"NDCG@{k}" in result.metrics
        # Monotonicity in k.
        assert result.metrics["HR@1"] <= result.metrics["HR@10"]
        assert result.metrics["NDCG@1"] <= result.metrics["NDCG@30"]

    def test_hr1_equals_ndcg1(self, task):
        """Table VIII shows NDCG@1 == HR@1 (single-positive ranking)."""
        result = task.run("base")
        assert result.metrics["NDCG@1"] == pytest.approx(
            result.metrics["HR@1"] / 100 * 100
        )

    def test_learned_model_beats_chance(self, task, config):
        result = task.run("base")
        # Chance HR@10 with eval_negatives candidates.
        chance = 10 / (config.ncf.eval_negatives + 1)
        assert result.metrics["HR@10"] > chance

    def test_pkgm_variant_runs(self, task):
        result = task.run("pkgm-r")
        assert result.variant == "pkgm-r"

    def test_negative_sampling_avoids_observed(self, task):
        rng = np.random.default_rng(0)
        users = np.asarray([i.user_id for i in task.train_pairs[:50]])
        items = np.asarray([i.item_id for i in task.train_pairs[:50]])
        all_users, all_items, labels = task._with_negatives(users, items, 4, rng)
        negatives = all_items[labels == 0]
        negative_users = all_users[labels == 0]
        for user, item in zip(negative_users, negatives):
            assert item not in task._observed[int(user)]

    def test_eval_negative_sampling_excludes_observed(self, task):
        rng = np.random.default_rng(1)
        user = next(iter(task.heldout))
        negatives = task._sample_unobserved(user, 20, rng)
        assert len(set(negatives)) == 20
        assert not set(negatives) & task._observed[user]

    def test_too_many_negatives_raises(self, task):
        rng = np.random.default_rng(2)
        user = next(iter(task.heldout))
        with pytest.raises(ValueError):
            task._sample_unobserved(user, 10**6, rng)

    def test_entity_map_length_validated(self, interactions, workbench, config):
        with pytest.raises(ValueError):
            RecommendationTask(
                interactions, [0, 1, 2], server=workbench.server, config=config.ncf
            )

    def test_table_row_format(self, task):
        result = task.run("base")
        row = result.as_table_row()
        assert row.startswith("base | ")
        assert row.count("|") == 10
