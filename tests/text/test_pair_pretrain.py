"""Tests for the self-supervised title-pair pretext task (NSP substitute)."""

import numpy as np
import pytest

from repro.text import (
    MiniBert,
    MiniBertConfig,
    PairPretrainConfig,
    PairPretrainer,
    WordTokenizer,
)


@pytest.fixture
def tok():
    return WordTokenizer([f"w{i}" for i in range(40)])


@pytest.fixture
def encoder(tok):
    config = MiniBertConfig(
        vocab_size=tok.vocab_size,
        max_length=16,
        dim=24,
        num_layers=2,
        num_heads=2,
        ffn_dim=48,
        dropout=0.0,
        tie_qk_init=True,
    )
    return MiniBert(config, rng=np.random.default_rng(0))


def make_title_fn(rng):
    """Items are distinct 4-word bags; titles are noisy samples of them."""
    vocab_per_item = {}

    def title_fn(item):
        if item not in vocab_per_item:
            local = np.random.default_rng(item)
            vocab_per_item[item] = [f"w{i}" for i in local.choice(40, 4, replace=False)]
        words = vocab_per_item[item]
        keep = [w for w in words if rng.random() > 0.2]
        return keep or words[:1]

    return title_fn


class TestPairPretrainer:
    def test_build_pairs_balanced(self, encoder, tok):
        trainer = PairPretrainer(
            encoder, tok, PairPretrainConfig(num_pairs=100, epochs=1, seed=0)
        )
        pairs, labels = trainer.build_pairs(
            make_title_fn(np.random.default_rng(0)), num_items=20
        )
        assert len(pairs) == 100
        assert labels.sum() == 50

    def test_same_category_negatives(self, encoder, tok):
        trainer = PairPretrainer(
            encoder,
            tok,
            PairPretrainConfig(num_pairs=60, epochs=1, same_category_negatives=True),
        )
        categories = [i % 3 for i in range(20)]
        # Should not raise even with sparse categories.
        pairs, labels = trainer.build_pairs(
            make_title_fn(np.random.default_rng(1)), 20, categories
        )
        assert len(pairs) == 60

    def test_training_reduces_loss(self, encoder, tok):
        trainer = PairPretrainer(
            encoder,
            tok,
            PairPretrainConfig(
                num_pairs=400, epochs=6, batch_size=32, max_length=14, seed=0
            ),
        )
        losses = trainer.train(make_title_fn(np.random.default_rng(2)), num_items=25)
        assert losses[-1] < losses[0]

    def test_pretext_accuracy_above_chance_after_training(self, encoder, tok):
        trainer = PairPretrainer(
            encoder,
            tok,
            PairPretrainConfig(
                num_pairs=600, epochs=8, batch_size=32, max_length=14, seed=0
            ),
        )
        title_fn = make_title_fn(np.random.default_rng(3))
        trainer.train(title_fn, num_items=25)
        # Held-out pairs from another sampler seed, scored by the trained head.
        held_out = PairPretrainer(
            encoder, tok, PairPretrainConfig(num_pairs=200, max_length=14, seed=99)
        )
        pairs, labels = held_out.build_pairs(title_fn, num_items=25)
        ids, mask, seg = tok.encode_pair_batch(pairs, 14)
        probabilities = trainer.head.predict_proba(
            ids, attention_mask=mask, segment_ids=seg
        )
        assert ((probabilities >= 0.5) == labels).mean() > 0.6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PairPretrainConfig(num_pairs=1)
        with pytest.raises(ValueError):
            PairPretrainConfig(epochs=0)
        with pytest.raises(ValueError):
            PairPretrainConfig(learning_rate=0)

    def test_rejects_single_item(self, encoder, tok):
        trainer = PairPretrainer(encoder, tok, PairPretrainConfig(num_pairs=10, epochs=1))
        with pytest.raises(ValueError):
            trainer.build_pairs(make_title_fn(np.random.default_rng(0)), num_items=1)
