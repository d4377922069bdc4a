"""Unit tests for functional ops: softmax, losses, norms, dropout."""

import numpy as np
import pytest

from repro.nn import Tensor, check_gradients
from repro.nn import functional as F


RNG = np.random.default_rng(11)


def randt(*shape, shift=0.0):
    return Tensor(RNG.normal(size=shape) + shift, requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = F.softmax(randt(4, 7)).data
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert np.all(out > 0)

    def test_stable_for_large_logits(self):
        out = F.softmax(Tensor([[1000.0, 1000.0]])).data
        assert np.allclose(out, 0.5)

    def test_log_softmax_matches_log_of_softmax(self):
        x = randt(3, 5)
        assert np.allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10
        )

    def test_softmax_gradient(self):
        check_gradients(lambda x: F.softmax(x, axis=-1), [randt(3, 4)])

    def test_log_softmax_gradient(self):
        check_gradients(lambda x: F.log_softmax(x, axis=-1), [randt(3, 4)])


class TestCrossEntropy:
    def test_value_against_manual(self):
        logits = Tensor([[2.0, 1.0, 0.0]])
        labels = np.array([0])
        expected = -np.log(np.exp(2.0) / np.exp([2.0, 1.0, 0.0]).sum())
        assert F.cross_entropy(logits, labels).item() == pytest.approx(expected)

    def test_perfect_prediction_near_zero(self):
        logits = Tensor([[100.0, 0.0], [0.0, 100.0]])
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-8

    def test_gradient(self):
        labels = np.array([1, 0, 2])
        check_gradients(lambda x: F.cross_entropy(x, labels), [randt(3, 4)])

    def test_sum_reduction(self):
        logits = randt(3, 4)
        labels = np.array([0, 1, 2])
        mean = F.cross_entropy(logits, labels, reduction="mean").item()
        total = F.cross_entropy(logits, labels, reduction="sum").item()
        assert total == pytest.approx(3 * mean)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            F.cross_entropy(randt(3), np.array([0]))

    def test_rejects_bad_reduction(self):
        with pytest.raises(ValueError):
            F.cross_entropy(randt(2, 3), np.array([0, 1]), reduction="bogus")


class TestBCE:
    def test_value_against_manual(self):
        logit, target = 0.7, 1.0
        expected = -np.log(1.0 / (1.0 + np.exp(-logit)))
        got = F.binary_cross_entropy_with_logits(Tensor([logit]), np.array([target]))
        assert got.item() == pytest.approx(expected)

    def test_stable_for_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor([1000.0, -1000.0]), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-8

    def test_gradient(self):
        targets = np.array([1.0, 0.0, 1.0])
        check_gradients(
            lambda x: F.binary_cross_entropy_with_logits(x, targets), [randt(3)]
        )

    def test_accepts_tensor_targets(self):
        loss = F.binary_cross_entropy_with_logits(Tensor([0.0]), Tensor([1.0]))
        assert loss.item() == pytest.approx(np.log(2.0))


class TestMarginRanking:
    def test_zero_when_margin_satisfied(self):
        pos, neg = Tensor([1.0]), Tensor([5.0])
        assert F.margin_ranking_loss(pos, neg, margin=2.0).item() == 0.0

    def test_positive_when_violated(self):
        pos, neg = Tensor([3.0]), Tensor([3.5])
        assert F.margin_ranking_loss(pos, neg, margin=2.0).item() == pytest.approx(1.5)

    def test_matches_paper_equation(self):
        # L = [f(pos) + gamma - f(neg)]_+ summed over the batch (Eq. 4-5).
        pos = Tensor([1.0, 4.0, 0.0])
        neg = Tensor([3.0, 4.0, 0.5])
        gamma = 1.0
        expected = sum(max(p + gamma - n, 0.0) for p, n in zip(pos.data, neg.data))
        assert F.margin_ranking_loss(pos, neg, margin=gamma).item() == pytest.approx(
            expected
        )

    def test_gradient(self):
        check_gradients(
            lambda p, n: F.margin_ranking_loss(p, n, margin=1.0),
            [randt(4, shift=0.3), randt(4)],
        )


class TestNorms:
    def test_l1_norm(self):
        x = Tensor([[3.0, -4.0]])
        assert F.l1_norm(x).item() == pytest.approx(7.0)

    def test_l2_norm(self):
        x = Tensor([[3.0, 4.0]])
        assert F.l2_norm(x).item() == pytest.approx(5.0)

    def test_normalize_unit_rows(self):
        x = randt(5, 8)
        normed = F.normalize(x).data
        assert np.allclose(np.linalg.norm(normed, axis=-1), 1.0)

    def test_l1_gradient(self):
        check_gradients(lambda x: F.l1_norm(x), [randt(3, 4, shift=2.0)])

    def test_l2_gradient(self):
        check_gradients(lambda x: F.l2_norm(x), [randt(3, 4, shift=2.0)])


class TestDropoutAndUtils:
    def test_dropout_noop_in_eval(self):
        x = randt(10, 10)
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_dropout_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            F.dropout(randt(2), 1.0, training=True, rng=np.random.default_rng(0))

    def test_mse(self):
        assert F.mse_loss(Tensor([1.0, 3.0]), np.array([1.0, 1.0])).item() == pytest.approx(2.0)
