"""Unit tests for the word tokenizer."""

import numpy as np
import pytest

from repro.text import WordTokenizer


@pytest.fixture
def tok():
    return WordTokenizer(["red", "skirt", "cotton", "brandx", "summer"])


class TestVocabulary:
    def test_specials_occupy_first_ids(self, tok):
        assert tok.pad_id == 0
        assert tok.unk_id == 1
        assert tok.cls_id == 2
        assert tok.sep_id == 3
        assert tok.mask_id == 4

    def test_vocab_size(self, tok):
        assert tok.vocab_size == 5 + 5

    def test_unknown_word_maps_to_unk(self, tok):
        assert tok.id_of("zzz") == tok.unk_id

    def test_roundtrip(self, tok):
        assert tok.token_of(tok.id_of("red")) == "red"

    def test_token_of_bad_id_raises(self, tok):
        with pytest.raises(IndexError):
            tok.token_of(999)

    def test_is_special(self, tok):
        assert tok.is_special(tok.pad_id)
        assert not tok.is_special(tok.id_of("red"))

    def test_specials_not_duplicated(self):
        tok = WordTokenizer(["[PAD]", "word"])
        assert tok.vocab_size == 5 + 1


class TestEncodeSingle:
    def test_structure(self, tok):
        ids, mask, segments = tok.encode(["red", "skirt"], max_length=8)
        assert ids[0] == tok.cls_id
        assert ids[3] == tok.sep_id
        assert list(ids[4:]) == [tok.pad_id] * 4
        assert list(mask) == [1, 1, 1, 1, 0, 0, 0, 0]
        assert np.all(segments == 0)

    def test_truncation_keeps_first_words(self, tok):
        words = ["red", "skirt", "cotton", "summer", "brandx"]
        ids, _, _ = tok.encode(words, max_length=5)
        decoded = tok.decode(ids)
        assert decoded == ["red", "skirt", "cotton"]

    def test_min_length_validated(self, tok):
        with pytest.raises(ValueError):
            tok.encode(["red"], max_length=2)

    def test_batch_shapes(self, tok):
        ids, mask, segments = tok.encode_batch(
            [["red"], ["skirt", "cotton"]], max_length=6
        )
        assert ids.shape == mask.shape == segments.shape == (2, 6)


class TestEncodePair:
    def test_structure(self, tok):
        ids, mask, segments = tok.encode_pair(["red"], ["skirt"], max_length=8)
        assert ids[0] == tok.cls_id
        assert ids[2] == tok.sep_id  # after first sentence
        assert ids[4] == tok.sep_id  # after second sentence
        # Segments: [CLS] a [SEP] -> 0, b [SEP] -> 1.
        assert list(segments[:5]) == [0, 0, 0, 1, 1]
        assert np.all(segments[5:] == 0)
        assert list(mask[:5]) == [1] * 5

    def test_each_side_truncated_to_half_budget(self, tok):
        a = ["red"] * 10
        b = ["skirt"] * 10
        ids, _, _ = tok.encode_pair(a, b, max_length=11)
        decoded = tok.decode(ids)
        assert decoded.count("red") == 4  # (11-3)//2
        assert decoded.count("skirt") == 4

    def test_min_length_validated(self, tok):
        with pytest.raises(ValueError):
            tok.encode_pair(["a"], ["b"], max_length=4)

    def test_pair_batch(self, tok):
        ids, mask, segments = tok.encode_pair_batch(
            [(["red"], ["skirt"]), (["cotton"], ["summer"])], max_length=8
        )
        assert ids.shape == (2, 8)
        assert segments.max() == 1

    def test_unknown_words_in_pair(self, tok):
        ids, _, _ = tok.encode_pair(["zzz"], ["qqq"], max_length=8)
        assert (ids == tok.unk_id).sum() == 2


class TestDecode:
    def test_skips_specials_by_default(self, tok):
        ids, _, _ = tok.encode(["red"], max_length=6)
        assert tok.decode(ids) == ["red"]

    def test_keeps_specials_on_request(self, tok):
        ids, _, _ = tok.encode(["red"], max_length=6)
        decoded = tok.decode(ids, skip_special=False)
        assert decoded[0] == "[CLS]"
        assert "[PAD]" in decoded
