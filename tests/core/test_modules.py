"""Unit tests for the triple and relation query modules (Eq. 1-2, 6-7)."""

import numpy as np
import pytest

from repro.core import PKGM, PKGMConfig, RelationQueryModule, TripleQueryModule
from repro.nn import no_grad


RNG = np.random.default_rng(0)


@pytest.fixture
def triple_module():
    return TripleQueryModule(20, 5, dim=8, rng=np.random.default_rng(1))


@pytest.fixture
def relation_module(triple_module):
    return RelationQueryModule(triple_module, rng=np.random.default_rng(2))


class TestTripleQueryModule:
    def test_score_matches_l1_formula(self, triple_module):
        h, r, t = np.array([1]), np.array([2]), np.array([3])
        expected = np.abs(
            triple_module.entity_embeddings.weight.data[1]
            + triple_module.relation_embeddings.weight.data[2]
            - triple_module.entity_embeddings.weight.data[3]
        ).sum()
        assert triple_module.score(h, r, t).item() == pytest.approx(expected)

    def test_score_batch_shape(self, triple_module):
        scores = triple_module.score(
            np.array([0, 1, 2]), np.array([0, 1, 2]), np.array([3, 4, 5])
        )
        assert scores.shape == (3,)
        assert np.all(scores.data >= 0)

    def test_service_is_h_plus_r(self, triple_module):
        out = triple_module.service(np.array([4]), np.array([1]))
        expected = (
            triple_module.entity_embeddings.weight.data[4]
            + triple_module.relation_embeddings.weight.data[1]
        )
        assert np.allclose(out[0], expected)

    def test_service_returns_numpy(self, triple_module):
        out = triple_module.service(np.array([0, 1]), np.array([0, 1]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (2, 8)

    def test_perfect_triple_scores_zero(self, triple_module):
        # Force t = h + r exactly.
        weights = triple_module.entity_embeddings.weight.data
        weights[3] = (
            weights[1] + triple_module.relation_embeddings.weight.data[2]
        )
        score = triple_module.score(np.array([1]), np.array([2]), np.array([3]))
        assert score.item() == pytest.approx(0.0, abs=1e-12)

    def test_gradients_flow(self, triple_module):
        score = triple_module.score(np.array([0]), np.array([0]), np.array([1]))
        score.sum().backward()
        assert triple_module.entity_embeddings.weight.grad is not None
        assert triple_module.relation_embeddings.weight.grad is not None

    def test_renormalize(self, triple_module):
        with no_grad():
            triple_module.entity_embeddings.weight.data *= 100
        triple_module.renormalize_entities(1.0)
        norms = np.linalg.norm(triple_module.entity_embeddings.weight.data, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            TripleQueryModule(5, 2, dim=0)


class TestRelationQueryModule:
    def test_transfer_matrix_shape(self, relation_module):
        assert relation_module.transfer_matrices.shape == (5, 8, 8)

    def test_init_near_identity(self, relation_module):
        eye = np.eye(8)
        for r in range(5):
            assert np.allclose(
                relation_module.transfer_matrices.data[r], eye, atol=0.1
            )

    def test_score_matches_formula(self, relation_module, triple_module):
        h, r = 3, 2
        M = relation_module.transfer_matrices.data[r]
        h_vec = triple_module.entity_embeddings.weight.data[h]
        r_vec = triple_module.relation_embeddings.weight.data[r]
        expected = np.abs(M @ h_vec - r_vec).sum()
        got = relation_module.score(np.array([h]), np.array([r])).item()
        assert got == pytest.approx(expected)

    def test_service_matches_transform(self, relation_module):
        heads, rels = np.array([0, 1]), np.array([2, 3])
        with_grad = relation_module.transform(heads, rels).data
        service = relation_module.service(heads, rels)
        assert np.allclose(with_grad, service)

    def test_zero_discrepancy_when_mh_equals_r(self, relation_module, triple_module):
        # Craft M_r h == r exactly.
        h, r = 0, 0
        h_vec = triple_module.entity_embeddings.weight.data[h]
        r_vec = triple_module.relation_embeddings.weight.data[r]
        # Set M = outer(r, h)/||h||^2 so M h = r.
        relation_module.transfer_matrices.data[r] = np.outer(
            r_vec, h_vec
        ) / np.dot(h_vec, h_vec)
        score = relation_module.score(np.array([h]), np.array([r]))
        assert score.item() == pytest.approx(0.0, abs=1e-10)

    def test_gradients_reach_transfer_matrices(self, relation_module):
        score = relation_module.score(np.array([1, 2]), np.array([0, 4]))
        score.sum().backward()
        grad = relation_module.transfer_matrices.grad
        assert grad is not None
        assert np.any(grad[0] != 0)
        assert np.any(grad[4] != 0)
        assert np.allclose(grad[1], 0)  # untouched relation

    def test_shares_embeddings_with_triple_module(self, relation_module, triple_module):
        names = dict(relation_module.named_parameters())
        assert "triple_module.entity_embeddings.weight" in names
        assert (
            names["triple_module.entity_embeddings.weight"]
            is triple_module.entity_embeddings.weight
        )


class TestPKGMModel:
    def test_joint_score_is_sum(self):
        model = PKGM(10, 3, PKGMConfig(dim=4), rng=np.random.default_rng(3))
        triples = np.array([[0, 1, 2], [3, 0, 4]])
        joint = model.score(triples).data
        ft = model.triple_module.score(
            triples[:, 0], triples[:, 1], triples[:, 2]
        ).data
        fr = model.relation_module.score(triples[:, 0], triples[:, 1]).data
        assert np.allclose(joint, ft + fr)

    def test_score_rejects_bad_shape(self):
        model = PKGM(10, 3, PKGMConfig(dim=4))
        with pytest.raises(ValueError):
            model.score(np.array([0, 1, 2]))

    def test_margin_loss_zero_when_negatives_far(self):
        model = PKGM(10, 3, PKGMConfig(dim=4, margin=0.5), rng=np.random.default_rng(4))
        pos = np.array([[0, 0, 1]])
        # Make the positive perfect and negative terrible.
        weights = model.triple_module.entity_embeddings.weight.data
        weights[1] = (
            weights[0] + model.triple_module.relation_embeddings.weight.data[0]
        )
        weights[2] = weights[1] + 100.0
        neg = np.array([[0, 0, 2]])
        # Loss = [f(pos) + margin - f(neg)]_+ ; f(neg) is huge -> loss only
        # from the shared relation term, bounded by f_R(pos)+margin-f_R(neg)=margin...
        # with same (h, r), f_R cancels; f_T(pos)=0, f_T(neg)~800.
        loss = model.margin_loss(pos, neg)
        assert loss.item() == pytest.approx(0.0)

    def test_margin_loss_positive_when_indistinguishable(self):
        model = PKGM(10, 3, PKGMConfig(dim=4, margin=2.0), rng=np.random.default_rng(5))
        pos = np.array([[0, 0, 1]])
        loss = model.margin_loss(pos, pos.copy())  # identical scores
        assert loss.item() == pytest.approx(2.0)

    def test_margin_loss_multiple_negatives(self):
        model = PKGM(10, 3, PKGMConfig(dim=4), rng=np.random.default_rng(6))
        pos = np.array([[0, 0, 1], [2, 1, 3]])
        negs = np.stack([pos.copy(), pos.copy()])  # (2, N, 3)
        loss = model.margin_loss(pos, negs)
        assert loss.item() == pytest.approx(2 * 2 * model.config.margin)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PKGMConfig(dim=0)
        with pytest.raises(ValueError):
            PKGMConfig(margin=0.0)

    def test_nearest_entities_finds_exact_match(self):
        model = PKGM(10, 3, PKGMConfig(dim=4), rng=np.random.default_rng(7))
        table = model.triple_module.entity_embeddings.weight.data
        top = model.nearest_entities(table[7], k=1)
        assert top[0][0] == 7

    def test_nearest_entities_candidate_restriction(self):
        model = PKGM(10, 3, PKGMConfig(dim=4), rng=np.random.default_rng(8))
        table = model.triple_module.entity_embeddings.weight.data
        candidates = np.array([2, 5, 9])
        top = model.nearest_entities(table[7], k=3, candidate_ids=candidates)
        assert set(top[0]) == {2, 5, 9}
