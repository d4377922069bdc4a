"""Tests for the mini-BERT encoder, service injection, MLM, and heads."""

import numpy as np
import pytest

from repro.text import (
    MLMConfig,
    MLMTrainer,
    MiniBert,
    MiniBertConfig,
    PairClassifier,
    TextClassifier,
    WordTokenizer,
    mask_tokens,
)


@pytest.fixture
def tok():
    words = [f"w{i}" for i in range(30)]
    return WordTokenizer(words)


def make_bert(tok, **overrides):
    defaults = dict(
        vocab_size=tok.vocab_size,
        max_length=12,
        dim=16,
        num_layers=2,
        num_heads=2,
        ffn_dim=32,
        dropout=0.0,
        service_dim=8,
        max_service_vectors=10,
    )
    defaults.update(overrides)
    return MiniBert(MiniBertConfig(**defaults), rng=np.random.default_rng(0))


class TestMiniBert:
    def test_output_shape(self, tok):
        bert = make_bert(tok)
        ids, mask, seg = tok.encode_batch([["w1", "w2"], ["w3"]], 12)
        out = bert(ids, attention_mask=mask, segment_ids=seg)
        assert out.shape == (2, 12, 16)

    def test_pooled_is_cls_position(self, tok):
        bert = make_bert(tok)
        ids, mask, seg = tok.encode_batch([["w1"]], 12)
        hidden = bert(ids, attention_mask=mask, segment_ids=seg)
        assert np.allclose(bert.pooled(hidden).data, hidden.data[:, 0, :])

    def test_defaults_for_mask_and_segments(self, tok):
        bert = make_bert(tok)
        ids, _, _ = tok.encode_batch([["w1", "w2"]], 12)
        out = bert(ids)
        assert out.shape == (1, 12, 16)

    def test_rejects_overlong_sequence(self, tok):
        bert = make_bert(tok, max_length=6)
        ids = np.zeros((1, 7), dtype=np.int64)
        with pytest.raises(ValueError):
            bert(ids)

    def test_rejects_1d_ids(self, tok):
        bert = make_bert(tok)
        with pytest.raises(ValueError):
            bert(np.zeros(5, dtype=np.int64))

    def test_service_injection_extends_sequence(self, tok):
        bert = make_bert(tok)
        ids, mask, seg = tok.encode_batch([["w1"], ["w2"]], 12)
        service = np.random.default_rng(1).normal(size=(2, 4, 8))
        out = bert(ids, attention_mask=mask, segment_ids=seg, service_vectors=service)
        assert out.shape == (2, 12 + 4, 16)

    def test_service_vectors_influence_cls(self, tok):
        bert = make_bert(tok)
        bert.eval()
        ids, mask, seg = tok.encode_batch([["w1", "w2"]], 12)
        s1 = np.ones((1, 2, 8))
        s2 = -np.ones((1, 2, 8))
        out1 = bert(ids, mask, seg, service_vectors=s1)
        out2 = bert(ids, mask, seg, service_vectors=s2)
        assert not np.allclose(out1.data[:, 0], out2.data[:, 0])

    def test_service_without_projection_raises(self, tok):
        bert = make_bert(tok, service_dim=None)
        ids, mask, seg = tok.encode_batch([["w1"]], 12)
        with pytest.raises(ValueError):
            bert(ids, mask, seg, service_vectors=np.zeros((1, 2, 8)))

    def test_service_shape_validated(self, tok):
        bert = make_bert(tok)
        ids, mask, seg = tok.encode_batch([["w1"]], 12)
        with pytest.raises(ValueError):
            bert(ids, mask, seg, service_vectors=np.zeros((2, 2, 8)))  # wrong batch
        with pytest.raises(ValueError):
            bert(ids, mask, seg, service_vectors=np.zeros((1, 11, 8)))  # > max

    def test_service_segment_ids_change_output(self, tok):
        bert = make_bert(tok)
        bert.eval()
        ids, mask, seg = tok.encode_batch([["w1"]], 12)
        service = np.ones((1, 4, 8))
        segs_a = np.zeros((1, 4), dtype=np.int64)
        segs_b = np.array([[0, 0, 1, 1]])
        out_a = bert(ids, mask, seg, service_vectors=service, service_segment_ids=segs_a)
        out_b = bert(ids, mask, seg, service_vectors=service, service_segment_ids=segs_b)
        assert not np.allclose(out_a.data, out_b.data)

    def test_service_segment_shape_validated(self, tok):
        bert = make_bert(tok)
        ids, mask, seg = tok.encode_batch([["w1"]], 12)
        with pytest.raises(ValueError):
            bert(
                ids,
                mask,
                seg,
                service_vectors=np.zeros((1, 4, 8)),
                service_segment_ids=np.zeros((1, 3), dtype=np.int64),
            )

    def test_pair_service_segment_ids_helper(self):
        from repro.text import pair_service_segment_ids

        segs = pair_service_segment_ids(3, "pkgm-all", k=5)
        assert segs.shape == (3, 20)
        assert np.all(segs[:, :10] == 0) and np.all(segs[:, 10:] == 1)
        assert pair_service_segment_ids(3, "base", k=5) is None

    def test_gradients_flow_through_service_projection(self, tok):
        bert = make_bert(tok)
        ids, mask, seg = tok.encode_batch([["w1"]], 12)
        service = np.ones((1, 3, 8))
        out = bert(ids, mask, seg, service_vectors=service)
        out.sum().backward()
        assert bert.service_projection.weight.grad is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MiniBertConfig(vocab_size=3)
        with pytest.raises(ValueError):
            MiniBertConfig(max_length=2)
        with pytest.raises(ValueError):
            MiniBertConfig(num_segments=0)


class TestMaskTokens:
    def test_labels_only_at_selected_positions(self, tok):
        rng = np.random.default_rng(0)
        ids, mask, _ = tok.encode_batch([[f"w{i}" for i in range(8)]] * 10, 12)
        config = MLMConfig(mask_probability=0.5)
        corrupted, labels = mask_tokens(ids, mask, tok, config, rng)
        selected = labels >= 0
        # Original ids preserved in labels.
        assert np.all(labels[selected] == ids[selected])
        # Non-selected positions untouched.
        assert np.all(corrupted[~selected] == ids[~selected])

    def test_never_masks_specials_or_padding(self, tok):
        rng = np.random.default_rng(1)
        ids, mask, _ = tok.encode_batch([["w1", "w2"]] * 20, 12)
        config = MLMConfig(mask_probability=0.9)
        corrupted, labels = mask_tokens(ids, mask, tok, config, rng)
        specials = np.isin(ids, [tok.pad_id, tok.cls_id, tok.sep_id])
        assert np.all(labels[specials] == -1)
        assert np.all(corrupted[specials] == ids[specials])

    def test_mask_token_dominates_corruptions(self, tok):
        rng = np.random.default_rng(2)
        ids, mask, _ = tok.encode_batch([[f"w{i}" for i in range(10)]] * 50, 12)
        config = MLMConfig(mask_probability=0.5)
        corrupted, labels = mask_tokens(ids, mask, tok, config, rng)
        selected = labels >= 0
        masked_share = (corrupted[selected] == tok.mask_id).mean()
        assert 0.7 < masked_share < 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MLMConfig(mask_probability=0.0)
        with pytest.raises(ValueError):
            MLMConfig(replace_with_mask=0.8, replace_with_random=0.3)


class TestMLMTraining:
    def test_loss_decreases(self, tok):
        bert = make_bert(tok, service_dim=None, dropout=0.0)
        rng = np.random.default_rng(3)
        # Structured corpus: deterministic co-occurrence so MLM can learn.
        corpus = []
        for _ in range(60):
            start = int(rng.integers(0, 10))
            corpus.append([f"w{start}", f"w{start + 10}", f"w{start + 20}"])
        trainer = MLMTrainer(
            bert, tok, MLMConfig(epochs=10, batch_size=16, learning_rate=3e-3, seed=0)
        )
        losses = trainer.train(corpus, max_length=8)
        assert losses[-1] < losses[0]

    def test_empty_corpus_raises(self, tok):
        bert = make_bert(tok, service_dim=None)
        trainer = MLMTrainer(bert, tok)
        with pytest.raises(ValueError):
            trainer.train([])


class TestHeads:
    def test_classifier_shapes(self, tok):
        bert = make_bert(tok)
        clf = TextClassifier(bert, num_classes=5, rng=np.random.default_rng(1))
        ids, mask, seg = tok.encode_batch([["w1"], ["w2"], ["w3"]], 12)
        logits = clf(ids, mask, seg)
        assert logits.shape == (3, 5)
        assert clf.predict(ids, mask, seg).shape == (3,)

    def test_classifier_rejects_single_class(self, tok):
        with pytest.raises(ValueError):
            TextClassifier(make_bert(tok), num_classes=1)

    def test_pair_classifier_shapes(self, tok):
        bert = make_bert(tok)
        pair = PairClassifier(bert, rng=np.random.default_rng(2))
        ids, mask, seg = tok.encode_pair_batch(
            [(["w1"], ["w2"]), (["w3"], ["w4"])], 12
        )
        logits = pair(ids, mask, seg)
        assert logits.shape == (2,)
        proba = pair.predict_proba(ids, mask, seg)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_classifier_trains_on_separable_data(self, tok):
        """Fine-tuning drives training accuracy up on a separable task."""
        from repro.nn import Adam, functional as F

        bert = make_bert(tok, service_dim=None, dropout=0.0)
        clf = TextClassifier(bert, num_classes=2, rng=np.random.default_rng(3))
        titles = [["w1", "w2"]] * 8 + [["w20", "w21"]] * 8
        labels = np.array([0] * 8 + [1] * 8)
        ids, mask, seg = tok.encode_batch(titles, 8)
        opt = Adam(clf.parameters(), lr=1e-3)
        for _ in range(30):
            opt.zero_grad()
            loss = F.cross_entropy(clf(ids, mask, seg), labels)
            loss.backward()
            opt.step()
        accuracy = (clf.predict(ids, mask, seg) == labels).mean()
        assert accuracy == 1.0
